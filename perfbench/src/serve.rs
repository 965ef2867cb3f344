//! `serve`: dashboard sessions (§6.5) against the lineage server. Two client
//! sessions each send the next `QueryMix` query only after the previous
//! reply (a closed loop), over `demo_snapshot` served with the default
//! `ServerConfig`. The workload's operation is one client-observed reply.
//! Loads `server` (framing, admission queue, result cache), `planner`
//! strategy choice and `lineage` reads; `core` capture runs only in set-up
//! and the pager is not used.
//!
//! The traced run also replays each session's query sequence in-process,
//! one query at a time, with a span around each call the server makes for a
//! query: decode, plan, execute, encode.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use smoke_core::ops::groupby::{group_by, GroupByOptions};
use smoke_core::AggExpr;
use smoke_planner::wire::{result_to_json, QuerySpec, SelectionSpec};
use smoke_planner::{Direction, LineageResult, Strategy};
use smoke_server::protocol::ok_response;
use smoke_server::workload::MixedQuery;
use smoke_server::{
    demo_snapshot, Client, QueryMix, Reply, Request, Server, ServerConfig, ServerHandle, Snapshot,
};
use smoke_storage::Rid;

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::Samples;
use crate::{repeated_setup, report_overhead, span_median_ms, RunConfig};

/// Input size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Rows of the base table.
    pub rows: usize,
    /// Zipf groups of the `by_z` view.
    pub groups: usize,
    /// Untimed queries per session before the measured window.
    pub warmup: usize,
    /// Queries per session the traced run replays in-process.
    pub replay: usize,
}

/// The size the benchmark runs at.
pub const FULL: Size = Size {
    rows: 1_000_000,
    groups: 1_000,
    warmup: 300,
    replay: 2_000,
};

/// Client sessions, each one thread with one connection.
pub const CLIENTS: usize = 2;

/// A running server over its snapshot; shut down on drop.
struct Served {
    snapshot: Arc<Snapshot>,
    handle: Option<ServerHandle>,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

fn setup(cfg: &RunConfig, size: Size, tracer: &mut Tracer) -> Result<Served, String> {
    let snapshot = tracer
        .span("server", "demo_snapshot", |_| {
            demo_snapshot(size.rows, size.groups, cfg.derive(2))
        })
        .map_err(|e| e.to_string())?;
    let snapshot = Arc::new(snapshot);
    let handle = tracer
        .span("server", "Server::serve", |_| {
            Server::serve(
                Arc::clone(&snapshot),
                "127.0.0.1:0",
                ServerConfig::default(),
            )
        })
        .map_err(|e| format!("bind: {e}"))?;
    Ok(Served {
        snapshot,
        handle: Some(handle),
    })
}

/// Maps a `QueryMix` popularity rank to the `by_z` output rid of the group
/// with that rank.
///
/// `QueryMix` uses the drawn rank itself as the output rid, which assumes
/// output rids are in frequency order. `group_by` numbers groups by first
/// appearance instead, so which group is hottest would be decided by the
/// seed's first rows, and the load would swing twofold from seed to seed.
/// The zipf generator gives rank `r` the value `z = r + 1`, so the group
/// with the `r`-th smallest `z` is the one the mix means.
struct Ranks(Vec<Rid>);

impl Ranks {
    fn of(snapshot: &Snapshot) -> Result<Ranks, String> {
        let output = snapshot.view("by_z").ok_or("no by_z view")?.output();
        let z = output
            .column_by_name("z")
            .map_err(|e| e.to_string())?
            .as_int();
        let mut by_z: Vec<(i64, Rid)> = z
            .iter()
            .enumerate()
            .map(|(gid, &z)| (z, gid as Rid))
            .collect();
        by_z.sort_unstable();
        Ok(Ranks(by_z.into_iter().map(|(_, gid)| gid).collect()))
    }

    fn apply(&self, (view, mut spec): MixedQuery) -> MixedQuery {
        if spec.direction != Direction::Forward {
            if let SelectionSpec::Rids(rids) = &mut spec.selection {
                for rid in rids.iter_mut() {
                    *rid = self.0.get(*rid as usize).copied().unwrap_or(*rid);
                }
            }
        }
        (view, spec)
    }
}

fn mix_seed(cfg: &RunConfig, client: usize) -> u64 {
    cfg.derive(100 + client as u64)
}

/// The first reply to each distinct query, kept as a fingerprint: every
/// later reply to the same query must repeat it, and after the window it is
/// checked against `Snapshot::execute`.
struct FirstReply {
    view: &'static str,
    spec: QuerySpec,
    fingerprint: u64,
}

#[derive(Default)]
struct Session {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    first: HashMap<String, FirstReply>,
}

impl Session {
    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

/// A hash of everything a reply must reproduce: strategy, rids and rows.
fn fingerprint(r: &LineageResult) -> u64 {
    let mut h = DefaultHasher::new();
    r.strategy.to_string().hash(&mut h);
    r.rids.hash(&mut h);
    format!("{:?}", r.rows).hash(&mut h);
    h.finish()
}

/// One session: warm-up, then closed-loop queries until the window ends, then
/// the check of every distinct reply against the in-process reference.
fn session(
    cfg: &RunConfig,
    size: Size,
    client_no: usize,
    snapshot: &Snapshot,
    ranks: &Ranks,
    addr: std::net::SocketAddr,
    barrier: &Barrier,
) -> Session {
    let mut out = Session::default();
    let n_groups = snapshot.view("by_z").map_or(1, |v| v.output().len());
    let mut mix = QueryMix::new(n_groups, size.rows, mix_seed(cfg, client_no));
    let client =
        Client::connect(addr).and_then(|c| c.set_timeout(Some(Duration::from_secs(30))).map(|_| c));
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("client {client_no}: connect: {e}"));
            barrier.wait();
            return out;
        }
    };
    let mut tracer = Tracer::new(false);
    let mut exchange = |out: &mut Session, timed: bool, traced: bool| {
        let (view, spec) = ranks.apply(mix.next_query());
        let key = format!("{view}:{}", spec.cache_key());
        tracer.set_enabled(traced);
        let t = Instant::now();
        let reply = tracer.span("server", "Client::query", |_| {
            client.query(view, spec.clone())
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        let result = match reply {
            Ok(Reply::Result(r)) => r,
            Ok(other) => {
                return out.fail(format!("client {client_no}: {view} {spec:?}: {other:?}"))
            }
            Err(e) => return out.fail(format!("client {client_no}: exchange: {e}")),
        };
        if timed {
            if traced {
                &mut out.traced_ms
            } else {
                &mut out.untraced_ms
            }
            .push(ms);
        }
        let fingerprint = fingerprint(&result);
        match out.first.get(&key) {
            Some(first) if first.fingerprint != fingerprint => {
                out.fail(format!(
                    "client {client_no}: reply to {key} changed between requests"
                ));
            }
            Some(_) => {}
            None => {
                out.first.insert(
                    key,
                    FirstReply {
                        view,
                        spec,
                        fingerprint,
                    },
                );
            }
        }
    };
    for _ in 0..size.warmup {
        exchange(&mut out, false, false);
    }
    barrier.wait();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < cfg.measure {
        exchange(&mut out, true, cfg.trace && i % 2 == 1);
        i += 1;
    }
    let firsts: Vec<FirstReply> = out.first.drain().map(|(_, v)| v).collect();
    for first in firsts {
        out.attempted += 1;
        match snapshot.execute(first.view, &first.spec) {
            Ok(expected) if fingerprint(&expected) == first.fingerprint => {}
            Ok(_) => out.fail(format!(
                "client {client_no}: {} {:?} differs from Snapshot::execute",
                first.view, first.spec
            )),
            Err(e) => out.fail(format!("client {client_no}: reference failed: {e}")),
        }
    }
    out
}

/// Runs the workload and records its metrics into `report`.
pub fn run(cfg: &RunConfig, size: Size, report: &mut Report) -> Result<(), String> {
    let mut tracer = Tracer::new(cfg.trace);
    let served = repeated_setup(cfg, &mut tracer, report, |t| setup(cfg, size, t))?;
    let snapshot = Arc::clone(&served.snapshot);
    let handle = served.handle.as_ref().ok_or("server already stopped")?;
    let addr = handle.addr();

    let ranks = Ranks::of(&snapshot)?;
    let barrier = Barrier::new(CLIENTS + 1);
    let mut before = handle.stats();
    let sessions: Vec<Session> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (snapshot, ranks, barrier) = (&snapshot, &ranks, &barrier);
                s.spawn(move || session(cfg, size, c, snapshot, ranks, addr, barrier))
            })
            .collect();
        barrier.wait();
        before = handle.stats();
        threads
            .into_iter()
            .map(|t| {
                t.join().unwrap_or_else(|_| Session {
                    attempted: 1,
                    failures: vec!["client session panicked".to_string()],
                    ..Session::default()
                })
            })
            .collect()
    });
    let after = handle.stats();

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for s in sessions {
        report.attempted += s.attempted;
        for why in s.failures {
            report.fail(why);
        }
        untraced.extend(s.untraced_ms);
        traced.extend(s.traced_ms);
    }
    let shed = after.shed - before.shed;
    if shed > 0 {
        report.fail(format!("{shed} requests shed by admission control"));
    }
    let untraced = Samples::new(untraced);
    let traced = Samples::new(traced);
    report.op_latency(&untraced);
    let replies = (untraced.len() + traced.len()) as f64;
    report.set(
        "ops_per_s",
        "1/s",
        replies / cfg.measure.as_secs_f64(),
        untraced.len() + traced.len(),
        format!("{CLIENTS} closed-loop sessions"),
    );

    // The Smoke-I lineage of the snapshot's two views, captured again outside
    // the set-up for its statistics. The `by_z` view's partitioned index and
    // cube are not lineage and are not counted.
    let base = snapshot.view("by_z").ok_or("no by_z view")?.base();
    let capture = |key: &str| {
        group_by(
            base,
            &[key.to_string()],
            &[AggExpr::count("cnt")],
            &GroupByOptions::inject(),
        )
        .map_err(|e| e.to_string())
    };
    let by_z = capture("z")?;
    let mut stats = by_z.stats;
    stats.merge(&capture("v_bin")?.stats);
    report.count("lineage.edges", "count", stats.edges as f64);
    report.count("lineage.rid_resizes", "count", stats.rid_resizes as f64);
    let lineage_bytes = stats.lineage_bytes;
    report.count(
        "lineage_bytes_per_row",
        "B",
        lineage_bytes as f64 / size.rows as f64,
    );
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    report.set(
        "server.cache_hit_rate",
        "ratio",
        hits as f64 / lookups.max(1) as f64,
        lookups as usize,
        "measured window",
    );

    if cfg.trace {
        replay(cfg, size, &snapshot, &ranks, &mut tracer, report)?;
        let stages: f64 = [
            "Request::decode",
            "LineagePlanner::plan",
            "LineagePlanner::execute_plan",
            "encode_result",
        ]
        .iter()
        .map(|name| span_median_ms(&tracer, name))
        .sum();
        report.set(
            "server.self_ms",
            "ms",
            untraced.median().unwrap_or(0.0) - stages,
            untraced.len(),
            "client p50 minus decode, plan, execute, encode",
        );
        let backward = by_z
            .lineage
            .input(0)
            .backward
            .as_ref()
            .ok_or("no backward index")?;
        let finalized = Samples::new(
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    drop(std::hint::black_box(tracer.span(
                        "lineage",
                        "LineageIndex::finalized",
                        |_| backward.finalized(),
                    )));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect(),
        );
        report.median("lineage.finalize_ms", "ms", &finalized);
        report_overhead(report, &untraced, &traced);
    }
    drop(served);
    Ok(())
}

/// Replays each session's first `size.replay` queries in-process, timing
/// the server's per-query steps, and records the planner's strategy shares.
fn replay(
    cfg: &RunConfig,
    size: Size,
    snapshot: &Snapshot,
    ranks: &Ranks,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let n_groups = snapshot.view("by_z").map_or(1, |v| v.output().len());
    let mut chosen: HashMap<Strategy, usize> = HashMap::new();
    let mut total = 0usize;
    for c in 0..CLIENTS {
        let mut mix = QueryMix::new(n_groups, size.rows, mix_seed(cfg, c));
        for _ in 0..size.replay {
            let (view, spec) = ranks.apply(mix.next_query());
            let frame = Request::Query {
                view: view.to_string(),
                spec,
                sleep_ms: 0,
            }
            .encode();
            tracer.next_op();
            let strategy = tracer.span("bench", "replay", |t| -> Result<Strategy, String> {
                let request = t
                    .span("server", "Request::decode", |_| Request::decode(&frame))
                    .map_err(|e| e.to_string())?;
                let Request::Query { view, spec, .. } = request else {
                    return Err("decoded a non-query request".to_string());
                };
                let v = snapshot
                    .view(&view)
                    .ok_or_else(|| format!("unknown view {view}"))?;
                let planner = v.planner();
                let (query, plan) = t
                    .span("planner", "LineagePlanner::plan", |_| {
                        let query = spec
                            .to_query(|name| snapshot.view(name).and_then(|v| v.forward_index()))?;
                        let plan = planner.plan(&query)?;
                        Ok::<_, smoke_core::EngineError>((query, plan))
                    })
                    .map_err(|e| e.to_string())?;
                let result = t
                    .span("planner", "LineagePlanner::execute_plan", |_| {
                        planner.execute_plan(&plan, &query)
                    })
                    .map_err(|e| e.to_string())?;
                let body = t.span("server", "encode_result", |_| {
                    ok_response("result", result_to_json(&result))
                });
                std::hint::black_box(body);
                Ok(plan.strategy)
            })?;
            *chosen.entry(strategy).or_default() += 1;
            total += 1;
        }
    }
    for (name, strategy) in [
        ("EagerTrace", Strategy::EagerTrace),
        ("PartitionPruned", Strategy::PartitionPruned),
        ("CubeHit", Strategy::CubeHit),
        ("LazyRewrite", Strategy::LazyRewrite),
    ] {
        let n = chosen.get(&strategy).copied().unwrap_or(0);
        report.set(
            &format!("planner.strategy_share.{name}"),
            "ratio",
            n as f64 / total.max(1) as f64,
            total,
            "exact per seed",
        );
    }
    for (metric, span) in [
        ("server.decode_ms", "Request::decode"),
        ("planner.plan_ms", "LineagePlanner::plan"),
        ("planner.execute_ms", "LineagePlanner::execute_plan"),
        ("server.encode_ms", "encode_result"),
    ] {
        report.median(metric, "ms", &Samples::new(tracer.durations_ms(span)));
    }
    Ok(())
}
