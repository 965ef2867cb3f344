//! `capture`: the paper's capture claim (§6.1–6.2). One SPJA query,
//! `gids ⋈ σ(v<80)(zipf)` grouped by `label`, runs sequentially through
//! `Executor::execute` under Baseline, Smoke-I and Smoke-D, interleaved run
//! by run with the order rotating each round. The workload's operation is
//! the Smoke-I query. Loads `core` operators and `lineage` writes; the
//! planner, server and pager do no work.

use std::collections::HashMap;
use std::time::Instant;

use smoke_core::instrument::CaptureMode;
use smoke_core::ops::groupby::{group_by, GroupByOptions};
use smoke_core::ops::join::{hash_join, JoinOptions};
use smoke_core::ops::select::{select, SelectOptions};
use smoke_core::{
    check_lineage_round_trip, par_group_by, AggExpr, Executor, Expr, LogicalPlan, ParallelOptions,
    PlanBuilder, QueryOutput,
};
use smoke_datagen::zipf::{gids_table, zipf_table, ZipfSpec};
use smoke_storage::{Database, Relation, Rid};

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::Samples;
use crate::{repeated_setup, report_overhead, span_median_ms, RunConfig};

/// Input size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Rows of the zipf fact table.
    pub rows: usize,
    /// Distinct groups (rows of `gids`).
    pub groups: usize,
}

/// The size the benchmark runs at.
pub const FULL: Size = Size {
    rows: 1_000_000,
    groups: 10_000,
};

/// Rounds run even when the window is over. With 24 samples per mode the
/// highest percentile with ten samples beyond it is p58, above the median.
const MIN_ROUNDS: usize = 24;

const MODES: [CaptureMode; 3] = [
    CaptureMode::Baseline,
    CaptureMode::Inject,
    CaptureMode::Defer,
];

fn plan() -> LogicalPlan {
    PlanBuilder::scan("gids")
        .join(
            PlanBuilder::scan("zipf").select(predicate()),
            &["id"],
            &["z"],
        )
        .group_by(&["label"], aggs())
        .build()
}

fn predicate() -> Expr {
    Expr::col("v").lt(Expr::lit(80.0))
}

fn aggs() -> Vec<AggExpr> {
    vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")]
}

struct Inputs {
    zipf: Relation,
    gids: Relation,
    db: Database,
}

fn setup(cfg: &RunConfig, size: Size, tracer: &mut Tracer) -> Result<Inputs, String> {
    let spec = ZipfSpec {
        theta: 1.0,
        rows: size.rows,
        groups: size.groups,
        seed: cfg.derive(1),
    };
    let zipf = tracer.span("datagen", "zipf_table", |_| zipf_table(&spec));
    let gids = tracer.span("datagen", "gids_table", |_| gids_table(size.groups));
    let mut db = Database::new();
    tracer.span("storage", "Database::register", |_| -> Result<(), String> {
        db.register(zipf.clone()).map_err(|e| e.to_string())?;
        db.register(gids.clone()).map_err(|e| e.to_string())
    })?;
    Ok(Inputs { zipf, gids, db })
}

/// What a query run must reproduce.
struct Expected {
    relation: Relation,
    edges: [u64; 3],
    bytes: [u64; 3],
}

/// Runs the workload and records its metrics into `report`.
pub fn run(cfg: &RunConfig, size: Size, report: &mut Report) -> Result<(), String> {
    let mut tracer = Tracer::new(cfg.trace);
    let inputs = repeated_setup(cfg, &mut tracer, report, |t| setup(cfg, size, t))?;
    let plan = plan();
    let executors = MODES.map(Executor::new);
    let base_rows = (inputs.zipf.len() + inputs.gids.len()) as f64;

    // Warm-up: one untimed run per mode, which also yields the reference
    // answer and the per-mode lineage counts every timed run must repeat.
    let mut warm: Vec<QueryOutput> = Vec::new();
    for exec in &executors {
        warm.push(exec.execute(&plan, &inputs.db).map_err(|e| e.to_string())?);
    }
    let expected = Expected {
        relation: warm[0].relation.clone(),
        edges: [0, 1, 2].map(|i| warm[i].stats.edges),
        bytes: [0, 1, 2].map(|i| warm[i].stats.lineage_bytes),
    };
    for (i, out) in warm.iter().enumerate() {
        report.check(out.relation == expected.relation, || {
            format!("{:?} output differs from Baseline", MODES[i])
        });
    }
    for i in [1, 2] {
        for table in ["zipf", "gids"] {
            let ok = check_lineage_round_trip(&warm[i], table);
            report.check(ok.is_ok(), || {
                format!("{:?} lineage round trip on {table}: {ok:?}", MODES[i])
            });
        }
    }
    let oracle = lineage_oracle(&inputs, &expected.relation)?;
    for i in [1, 2] {
        let ok = same_backward(&warm[i], "zipf", &oracle.zipf)
            && same_backward(&warm[i], "gids", &oracle.gids);
        report.check(ok, || {
            format!(
                "{:?} backward lineage differs from a scan of the inputs",
                MODES[i]
            )
        });
    }
    let inject = warm[1].stats;
    drop(warm);

    // Timed rounds. A traced run alternates untraced and traced rounds so the
    // tracing overhead is measured on interleaved samples.
    let mut times: [Vec<f64>; 3] = Default::default();
    let mut traced_inject = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;
    while round < MIN_ROUNDS || start.elapsed() < cfg.measure {
        let traced_round = cfg.trace && round % 2 == 1;
        tracer.set_enabled(traced_round);
        tracer.next_op();
        for k in 0..3 {
            let i = (round + k) % 3;
            let mode = MODES[i];
            let t = Instant::now();
            let out = tracer.span("core", "Executor::execute", |_| {
                executors[i].execute(&plan, &inputs.db)
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    report.check(false, || format!("{mode:?} query failed: {e}"));
                    continue;
                }
            };
            if traced_round && mode == CaptureMode::Inject {
                traced_inject.push(ms);
            } else if !traced_round {
                times[i].push(ms);
            }
            let ok = out.relation == expected.relation
                && out.stats.edges == expected.edges[i]
                && out.stats.lineage_bytes == expected.bytes[i];
            report.check(ok, || {
                format!("{mode:?} run {round} differs from its warm-up run")
            });
        }
        if traced_round {
            operator_spans(&inputs, &mut tracer)?;
        }
        round += 1;
    }
    tracer.set_enabled(cfg.trace);

    let [base, smoke_i, smoke_d] = times.map(Samples::new);
    report.op_latency(&smoke_i);
    let smoke_i_s: f64 = smoke_i.mean().unwrap_or(0.0) / 1e3;
    report.set(
        "ops_per_s",
        "1/s",
        if smoke_i_s > 0.0 {
            1.0 / smoke_i_s
        } else {
            0.0
        },
        smoke_i.len(),
        "Smoke-I queries per second of query time",
    );
    report.count(
        "lineage_bytes_per_row",
        "B",
        inject.lineage_bytes as f64 / base_rows,
    );
    report.median("base_p50_ms", "ms", &base);
    report.median("defer_p50_ms", "ms", &smoke_d);

    report.median("core.query_base_ms", "ms", &base);
    report.median("core.query_defer_ms", "ms", &smoke_d);
    let ratio =
        |a: &Samples, b: &Samples| a.median().unwrap_or(0.0) / b.median().unwrap_or(f64::INFINITY);
    report.set(
        "lineage.capture_overhead_x",
        "x",
        ratio(&smoke_i, &base),
        smoke_i.len(),
        "Smoke-I over Baseline median",
    );
    report.set(
        "lineage.defer_overhead_x",
        "x",
        ratio(&smoke_d, &base),
        smoke_d.len(),
        "Smoke-D over Baseline median",
    );
    report.count("lineage.edges", "count", inject.edges as f64);
    report.count("lineage.rid_resizes", "count", inject.rid_resizes as f64);

    if cfg.trace {
        let select_ms = span_median_ms(&tracer, "select");
        let join_ms = span_median_ms(&tracer, "hash_join");
        let group_ms = span_median_ms(&tracer, "group_by");
        let traced_i = Samples::new(traced_inject);
        report.set("core.select_ms", "ms", select_ms, traced_i.len(), "Smoke-I");
        report.set("core.join_ms", "ms", join_ms, traced_i.len(), "Smoke-I");
        report.set(
            "core.group_by_ms",
            "ms",
            group_ms,
            traced_i.len(),
            "Smoke-I",
        );
        report.set(
            "core.compose_ms",
            "ms",
            traced_i.median().unwrap_or(0.0) - select_ms - join_ms - group_ms,
            traced_i.len(),
            "Executor::execute minus its operators",
        );
        let base_ops = Samples::new(tracer.durations_ms("baseline_operators"));
        report.median("core.base_ms", "ms", &base_ops);
        report.set(
            "core.dop2_speedup_x",
            "x",
            dop2_speedup(&inputs.zipf)?,
            3,
            "par_group_by DOP 1 over DOP 2 median",
        );
        report_overhead(report, &smoke_i, &traced_i);
    }
    Ok(())
}

/// Per output row, the base rows its backward lineage must name, found by a
/// scan of the inputs: the `zipf` rows with `v < 80` and `z` equal to the
/// group's id, and the one `gids` row with the group's label.
struct Oracle {
    zipf: Vec<Vec<Rid>>,
    gids: Vec<Vec<Rid>>,
}

fn lineage_oracle(inputs: &Inputs, output: &Relation) -> Result<Oracle, String> {
    let col = |r: &Relation, name: &str| r.column_by_name(name).map_err(|e| e.to_string()).cloned();
    let (z, v) = (col(&inputs.zipf, "z")?, col(&inputs.zipf, "v")?);
    let mut zipf_of: HashMap<i64, Vec<Rid>> = HashMap::new();
    for (rid, (&z, &v)) in z.as_int().iter().zip(v.as_float()).enumerate() {
        if v < 80.0 {
            zipf_of.entry(z).or_default().push(rid as Rid);
        }
    }
    let (ids, labels) = (col(&inputs.gids, "id")?, col(&inputs.gids, "label")?);
    let gid_of: HashMap<&str, (i64, Rid)> = labels
        .as_str()
        .iter()
        .zip(ids.as_int())
        .enumerate()
        .map(|(rid, (label, &id))| (label.as_str(), (id, rid as Rid)))
        .collect();
    let mut oracle = Oracle {
        zipf: Vec::new(),
        gids: Vec::new(),
    };
    for label in col(output, "label")?.as_str() {
        let &(id, rid) = gid_of
            .get(label.as_str())
            .ok_or_else(|| format!("unknown label {label}"))?;
        oracle.zipf.push(zipf_of.remove(&id).unwrap_or_default());
        oracle.gids.push(vec![rid]);
    }
    Ok(oracle)
}

/// Whether every output row's backward lineage on `table`, as a set, is the
/// oracle's.
fn same_backward(out: &QueryOutput, table: &str, oracle: &[Vec<Rid>]) -> bool {
    let Some(backward) = out.lineage.table(table).and_then(|l| l.backward.as_ref()) else {
        return false;
    };
    oracle.iter().enumerate().all(|(o, expected)| {
        let mut got = backward.lookup(o as Rid);
        got.sort_unstable();
        got.dedup();
        got == *expected
    })
}

/// The plan's three operators called one by one on the same intermediate
/// inputs, under Smoke-I and then under Baseline options.
fn operator_spans(inputs: &Inputs, tracer: &mut Tracer) -> Result<(), String> {
    let keys = |k: &str| vec![k.to_string()];
    let err = |e: smoke_core::EngineError| e.to_string();
    let selected = tracer
        .span("core", "select", |_| {
            select(&inputs.zipf, &predicate(), &SelectOptions::inject())
        })
        .map_err(err)?;
    let joined = tracer
        .span("core", "hash_join", |_| {
            hash_join(
                &inputs.gids,
                &selected.output,
                &keys("id"),
                &keys("z"),
                &JoinOptions::inject(),
            )
        })
        .map_err(err)?;
    tracer
        .span("core", "group_by", |_| {
            group_by(
                &joined.output,
                &keys("label"),
                &aggs(),
                &GroupByOptions::inject(),
            )
        })
        .map_err(err)?;
    drop((selected, joined));
    tracer.span("bench", "baseline_operators", |t| -> Result<(), String> {
        let selected = t
            .span("core", "select_base", |_| {
                select(&inputs.zipf, &predicate(), &SelectOptions::baseline())
            })
            .map_err(err)?;
        let joined = t
            .span("core", "hash_join_base", |_| {
                hash_join(
                    &inputs.gids,
                    &selected.output,
                    &keys("id"),
                    &keys("z"),
                    &JoinOptions::baseline(),
                )
            })
            .map_err(err)?;
        t.span("core", "group_by_base", |_| {
            group_by(
                &joined.output,
                &keys("label"),
                &aggs(),
                &GroupByOptions::baseline(),
            )
        })
        .map_err(err)?;
        Ok(())
    })?;
    Ok(())
}

/// `par_group_by` of the fact table by `z`, DOP 1 over DOP 2, interleaved.
fn dop2_speedup(zipf: &Relation) -> Result<f64, String> {
    let keys = ["z".to_string()];
    let aggs = [AggExpr::count("cnt")];
    let mut dop = [Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (i, d) in [1usize, 2].into_iter().enumerate() {
            let t = Instant::now();
            par_group_by(
                zipf,
                &keys,
                &aggs,
                &GroupByOptions::inject(),
                &ParallelOptions::new(d),
            )
            .map_err(|e| e.to_string())?;
            dop[i].push(t.elapsed().as_secs_f64());
        }
    }
    let [one, two] = dop.map(|v| Samples::new(v).median().unwrap_or(0.0));
    Ok(if two > 0.0 { one / two } else { 0.0 })
}
