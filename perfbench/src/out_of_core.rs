//! `out_of_core`: the only workload larger than the program's own cache. A
//! zipf table is spilled by `PagedRelation::spill` into a file-backed SIEVE
//! pool with one prefetch thread and a budget of a quarter of the column
//! bytes; a Smoke-I `paged_group_by` captures its lineage, which is then
//! compressed into the same pool. The workload's operation is one backward
//! trace of a zipf-drawn group: `CompressedCsrIndex::lookup`, a prefetch
//! hint, and `PagedRelation::gather`. Loads `pager` and `storage::paged`
//! with a sequential scan (capture, in set-up) and random gathers (traces),
//! and reads compressed `lineage`; the server and planner do no work.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use smoke_core::ops::groupby::{group_by, GroupByOptions, GroupByResult};
use smoke_core::{paged_group_by, AggExpr};
use smoke_datagen::zipf::{zipf_table_binned, ZipfSpec};
use smoke_lineage::{CompressedCsrIndex, LineageIndex};
use smoke_pager::{BufferPool, PoolStats, ReplacementPolicy, SegmentStore, PAGE_SIZE};
use smoke_storage::{PagedRelation, Relation, Rid, DEFAULT_CHUNK_ROWS};

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::Samples;
use crate::{repeated_setup, report_overhead, span_median_ms, splitmix64, RunConfig};

/// Input size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Rows of the spilled table.
    pub rows: usize,
    /// Zipf groups.
    pub groups: usize,
    /// Untimed traces before the measured window.
    pub warmup: usize,
}

/// The size the benchmark runs at.
pub const FULL: Size = Size {
    rows: 4_000_000,
    groups: 1_000,
    warmup: 10,
};

/// `v_bin` partitions of the table.
const BINS: usize = 8;
/// Paged columns of `zipf(id, z, v, v_bin)`, 8 bytes each.
const COLUMNS: usize = 4;
/// Pool budget as a share of the column bytes.
const BUDGET_SHARE: usize = 4;
/// Prefetch worker threads.
const PREFETCH_THREADS: usize = 1;

struct Paged {
    table: Relation,
    paged: PagedRelation,
    pool: Arc<BufferPool>,
    captured: GroupByResult,
    backward: LineageIndex,
    compressed: CompressedCsrIndex,
}

/// Per-set-up layer measurements.
#[derive(Default)]
struct SetupLayers {
    spill_s: Vec<f64>,
    capture_ms: Vec<f64>,
    capture_hit_rate: Vec<f64>,
    capture_disk_reads: Vec<f64>,
    finalize_ms: Vec<f64>,
}

fn delta(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        disk_reads: after.disk_reads - before.disk_reads,
        disk_writes: after.disk_writes - before.disk_writes,
        prefetch_loads: after.prefetch_loads - before.prefetch_loads,
        prefetch_hits: after.prefetch_hits - before.prefetch_hits,
        prefetch_wasted: after.prefetch_wasted - before.prefetch_wasted,
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn setup(
    cfg: &RunConfig,
    size: Size,
    tracer: &mut Tracer,
    layers: &mut SetupLayers,
) -> Result<Paged, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let spec = ZipfSpec {
        theta: 1.0,
        rows: size.rows,
        groups: size.groups,
        seed: cfg.derive(3),
    };
    let table = tracer.span("datagen", "zipf_table_binned", |_| {
        zipf_table_binned(&spec, BINS)
    });
    let budget_pages = (size.rows * COLUMNS * 8 / BUDGET_SHARE / PAGE_SIZE).max(1);
    let store = SegmentStore::temp("perfbench").map_err(|e| err(&e))?;
    let pool = Arc::new(BufferPool::with_prefetch(
        store,
        budget_pages,
        ReplacementPolicy::Sieve,
        PREFETCH_THREADS,
    ));
    let (paged, spill_s) = timed(|| {
        tracer.span("storage", "PagedRelation::spill", |_| {
            PagedRelation::spill(&table, &pool)
        })
    });
    let paged = paged.map_err(|e| err(&e))?;
    layers.spill_s.push(spill_s);

    pool.prefetch_quiesce();
    let before = pool.stats();
    let (captured, capture_s) = timed(|| {
        tracer.span("core", "paged_group_by", |_| {
            paged_group_by(
                &paged,
                &["z".to_string()],
                &[AggExpr::count("cnt")],
                &GroupByOptions::inject(),
                DEFAULT_CHUNK_ROWS,
            )
        })
    });
    let captured = captured.map_err(|e| err(&e))?;
    let capture = delta(pool.stats(), before);
    layers.capture_ms.push(capture_s * 1e3);
    layers.capture_hit_rate.push(capture.hit_rate());
    layers.capture_disk_reads.push(capture.disk_reads as f64);

    let index = captured
        .lineage
        .input(0)
        .backward
        .as_ref()
        .ok_or("Smoke-I capture kept no backward index")?;
    let (backward, finalize_s) =
        timed(|| tracer.span("lineage", "LineageIndex::finalized", |_| index.finalized()));
    layers.finalize_ms.push(finalize_s * 1e3);
    let LineageIndex::Csr(csr) = &backward else {
        return Err("finalized backward index is not CSR".to_string());
    };
    let compressed = tracer
        .span("lineage", "CompressedCsrIndex::spill", |_| {
            CompressedCsrIndex::spill(csr, &pool)
        })
        .map_err(|e| err(&e))?;
    Ok(Paged {
        table,
        paged,
        pool,
        captured,
        backward,
        compressed,
    })
}

/// Zipf(θ=1) ranks `1..=n`, drawn by inverting the CDF at a golden-ratio
/// sequence that starts at a seed-derived point. The sequence covers the unit
/// interval evenly, so every run traces nearly the same mix of group sizes
/// and the trace median does not swing with the luck of independent draws.
struct ZipfDraws {
    cdf: Vec<f64>,
    u: f64,
}

impl ZipfDraws {
    fn new(n: usize, seed: u64) -> Self {
        let weights: Vec<f64> = (1..=n.max(1)).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfDraws {
            cdf,
            u: (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64,
        }
    }

    fn next(&mut self) -> usize {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        self.u = (self.u + GOLDEN).fract();
        (self.cdf.partition_point(|&c| c < self.u) + 1).min(self.cdf.len())
    }
}

/// Per-trace pool counters.
#[derive(Default)]
struct TraceCounters {
    hit_rates: Vec<f64>,
    totals: PoolStats,
    rows: usize,
}

/// Runs the workload and records its metrics into `report`.
pub fn run(cfg: &RunConfig, size: Size, report: &mut Report) -> Result<(), String> {
    let mut tracer = Tracer::new(cfg.trace);
    let mut layers = SetupLayers::default();
    let state = repeated_setup(cfg, &mut tracer, report, |t| {
        setup(cfg, size, t, &mut layers)
    })?;
    let LineageIndex::Csr(csr) = &state.backward else {
        return Err("finalized backward index is not CSR".to_string());
    };

    // The paged capture must equal the resident one, output and lineage.
    let resident = group_by(
        &state.table,
        &["z".to_string()],
        &[AggExpr::count("cnt")],
        &GroupByOptions::inject(),
    )
    .map_err(|e| e.to_string())?;
    report.check(resident.output == state.captured.output, || {
        "paged_group_by output differs from group_by".to_string()
    });
    let same_lineage = resident
        .lineage
        .input(0)
        .backward
        .as_ref()
        .map(LineageIndex::finalized)
        == Some(state.backward.clone());
    report.check(same_lineage, || {
        "paged_group_by lineage differs from group_by".to_string()
    });
    drop(resident);

    let gid_of: HashMap<i64, Rid> = state
        .captured
        .output
        .column_by_name("z")
        .map_err(|e| e.to_string())?
        .as_int()
        .iter()
        .enumerate()
        .map(|(gid, &z)| (z, gid as Rid))
        .collect();
    let mut ranks = ZipfDraws::new(size.groups, cfg.derive(4));
    let mut draw = || loop {
        if let Some(&gid) = gid_of.get(&(ranks.next() as i64)) {
            return gid;
        }
    };

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut counters = TraceCounters::default();
    let mut one = |timed: bool, traced_op: bool, tracer: &mut Tracer, report: &mut Report| {
        tracer.set_enabled(traced_op);
        tracer.next_op();
        let gid = draw();
        let before = state.pool.stats();
        let t = Instant::now();
        let out = tracer.span("bench", "trace", |t| trace(&state, gid, t));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let pool = delta(state.pool.stats(), before);
        let (rids, rows) = match out {
            Ok(out) => out,
            Err(e) => return report.check(false, || format!("trace of group {gid} failed: {e}")),
        };
        if timed {
            if traced_op {
                &mut traced
            } else {
                &mut untraced
            }
            .push(ms);
            counters.hit_rates.push(pool.hit_rate());
            counters.rows += rids.len();
        }
        let ok = rids == csr.get(gid as usize) && rows == state.table.gather(&rids, "trace");
        report.check(ok, || {
            format!("trace of group {gid} differs from the resident table")
        });
    };
    for _ in 0..size.warmup {
        one(false, false, &mut tracer, report);
    }
    let window_before = state.pool.stats();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < cfg.measure {
        one(true, cfg.trace && i % 2 == 1, &mut tracer, report);
        i += 1;
    }
    counters.totals = delta(state.pool.stats(), window_before);
    tracer.set_enabled(cfg.trace);

    let untraced = Samples::new(untraced);
    let traced_s = Samples::new(traced);
    report.op_latency(&untraced);
    let mean_s = untraced.mean().unwrap_or(0.0) / 1e3;
    report.set(
        "ops_per_s",
        "1/s",
        if mean_s > 0.0 { 1.0 / mean_s } else { 0.0 },
        untraced.len(),
        "traces per second of trace time",
    );
    report.count(
        "lineage_bytes_per_row",
        "B",
        state.compressed.compressed_bytes() as f64 / size.rows as f64,
    );
    let capture = state.captured.stats;
    report.count("lineage.edges", "count", capture.edges as f64);
    report.count("lineage.rid_resizes", "count", capture.rid_resizes as f64);

    let traces = (untraced.len() + traced_s.len()).max(1);
    report.median("storage.spill_s", "s", &Samples::new(layers.spill_s));
    report.median(
        "core.paged_group_by_ms",
        "ms",
        &Samples::new(layers.capture_ms),
    );
    report.median(
        "pager.capture_hit_rate",
        "ratio",
        &Samples::new(layers.capture_hit_rate),
    );
    report.median(
        "pager.capture_disk_reads",
        "count",
        &Samples::new(layers.capture_disk_reads),
    );
    report.median(
        "lineage.finalize_ms",
        "ms",
        &Samples::new(layers.finalize_ms),
    );
    report.count(
        "lineage.compression_ratio",
        "ratio",
        state.compressed.compressed_bytes() as f64 / state.compressed.raw_bytes().max(1) as f64,
    );
    let totals = counters.totals;
    let hit_rates = Samples::new(counters.hit_rates);
    report.set(
        "pager.hit_rate",
        "ratio",
        totals.hit_rate(),
        traces,
        format!("per-trace iqr={:.4}", hit_rates.iqr().unwrap_or(0.0)),
    );
    report.set(
        "pager.hit_rate_iqr",
        "ratio",
        hit_rates.iqr().unwrap_or(0.0),
        hit_rates.len(),
        "spread of per-trace hit rates",
    );
    report.set(
        "pager.disk_reads_per_trace",
        "count",
        totals.disk_reads as f64 / traces as f64,
        traces,
        "mean",
    );
    report.set(
        "pager.evictions_per_trace",
        "count",
        totals.evictions as f64 / traces as f64,
        traces,
        "mean",
    );
    let useful = totals.prefetch_hits + totals.prefetch_wasted;
    report.set(
        "pager.prefetch_useful",
        "ratio",
        totals.prefetch_hits as f64 / useful.max(1) as f64,
        useful as usize,
        "prefetch hits over hits plus wasted",
    );
    report.set(
        "storage.rows_per_trace",
        "count",
        counters.rows as f64 / traces as f64,
        traces,
        "mean",
    );

    if cfg.trace {
        report.set(
            "lineage.compressed_lookup_ms",
            "ms",
            span_median_ms(&tracer, "CompressedCsrIndex::lookup"),
            traced_s.len(),
            "median",
        );
        report.set(
            "storage.gather_ms",
            "ms",
            span_median_ms(&tracer, "PagedRelation::gather"),
            traced_s.len(),
            "median",
        );
        let self_ms = Samples::new(tracer.self_times_ms("trace"));
        let whole: f64 = tracer.durations_ms("trace").iter().sum();
        let unaccounted: f64 = tracer.self_times_ms("trace").iter().sum();
        report.set(
            "bench.trace_self_ms",
            "ms",
            self_ms.median().unwrap_or(0.0),
            self_ms.len(),
            format!(
                "trace time outside lookup, prefetch and gather: {:.4}%",
                100.0 * unaccounted / whole.max(f64::MIN_POSITIVE)
            ),
        );
        report_overhead(report, &untraced, &traced_s);
    }
    drop(state);
    Ok(())
}

/// One backward trace: compressed lookup, prefetch hint, paged gather.
fn trace(state: &Paged, gid: Rid, tracer: &mut Tracer) -> Result<(Vec<Rid>, Relation), String> {
    let rids = tracer
        .span("lineage", "CompressedCsrIndex::lookup", |_| {
            state.compressed.lookup(gid as usize)
        })
        .map_err(|e| e.to_string())?;
    tracer.span("storage", "PagedRelation::prefetch_rids", |_| {
        state.paged.prefetch_rids(&rids)
    });
    let rows = tracer
        .span("storage", "PagedRelation::gather", |_| {
            state.paged.gather(&rids, "trace")
        })
        .map_err(|e| e.to_string())?;
    Ok((rids, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_follow_the_distribution_and_the_seed() {
        let n = 100;
        let draws = 20_000;
        let mut d = ZipfDraws::new(n, 5);
        let mut counts = vec![0usize; n + 1];
        for _ in 0..draws {
            counts[d.next()] += 1;
        }
        assert_eq!(counts[0], 0, "ranks start at 1");
        let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        for k in [1, 2, 5, 10, 50] {
            let expected = draws as f64 / (k as f64 * h);
            let got = counts[k] as f64;
            assert!(
                (got - expected).abs() <= 0.02 * expected + 2.0,
                "rank {k}: {got} vs {expected}"
            );
        }
        let run = |seed| {
            let mut d = ZipfDraws::new(n, seed);
            (0..50).map(|_| d.next()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5), "one seed, one sequence");
        assert_ne!(run(5), run(6), "the seed moves the sequence");
    }
}
