//! The repository benchmark: three workloads driven through the public APIs
//! of the engine crates, every answer checked, end-to-end metrics measured
//! untraced and per-layer metrics from a separate traced run.
//!
//! - [`capture`]: an SPJA query under Baseline, Smoke-I and Smoke-D,
//!   interleaved run by run (lineage writes; `core` and `lineage`).
//! - [`serve`]: two closed-loop client sessions against the lineage server
//!   (lineage reads; `server`, `planner`, `lineage`).
//! - [`out_of_core`]: backward traces over a relation spilled behind a
//!   buffer pool a quarter of its size (`pager`, `storage`, compressed
//!   `lineage`).

pub mod capture;
pub mod host;
pub mod out_of_core;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use std::time::{Duration, Instant};

use report::Report;
use spans::Tracer;
use stats::Samples;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Settings of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub measure: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl RunConfig {
    /// A sub-seed for the input stream named `stream`.
    pub fn derive(&self, stream: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(stream))
    }
}

/// SplitMix64 finalizer: spreads nearby seeds over the whole `u64` range.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `build` [`SETUPS`] times (at least once), keeping the last result.
/// Earlier results are dropped before the next set-up starts so they never
/// add to the peak memory. In a traced run the set-ups alternate untraced
/// and traced, one more of each, and the difference of the two medians is
/// reported as `overhead.setup_s`. Records `setup_s`.
pub fn repeated_setup<T>(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    report: &mut Report,
    mut build: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<T, String> {
    let rounds = if cfg.trace { SETUPS + 1 } else { SETUPS };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut kept = None;
    for i in 0..rounds {
        drop(kept.take());
        let traced_round = cfg.trace && i % 2 == 1;
        tracer.set_enabled(traced_round);
        let t = Instant::now();
        let built = build(tracer)?;
        let secs = t.elapsed().as_secs_f64();
        if traced_round {
            &mut traced
        } else {
            &mut untraced
        }
        .push(secs);
        kept = Some(built);
    }
    tracer.set_enabled(cfg.trace);
    let untraced = Samples::new(untraced);
    report.median("setup_s", "s", &untraced);
    if cfg.trace {
        let traced = Samples::new(traced);
        report.set(
            "overhead.setup_s",
            "s",
            traced.median().unwrap_or(0.0) - untraced.median().unwrap_or(0.0),
            traced.len() + untraced.len(),
            "traced minus untraced median",
        );
    }
    kept.ok_or_else(|| "no set-up ran".to_string())
}

/// Reports the tracing overhead of the workload's operation: traced minus
/// untraced median and tail, and the throughput difference.
pub fn report_overhead(report: &mut Report, untraced_ms: &Samples, traced_ms: &Samples) {
    let n = untraced_ms.len() + traced_ms.len();
    let med = |s: &Samples| s.median().unwrap_or(0.0);
    let tail = |s: &Samples| {
        s.tail()
            .map_or_else(|| s.percentile(100.0).unwrap_or(0.0), |t| t.value)
    };
    let rate = |s: &Samples| {
        let mean_ms = s.mean().unwrap_or(0.0);
        if mean_ms > 0.0 {
            1e3 / mean_ms
        } else {
            0.0
        }
    };
    report.set(
        "overhead.op_p50_ms",
        "ms",
        med(traced_ms) - med(untraced_ms),
        n,
        "traced minus untraced",
    );
    report.set(
        "overhead.op_tail_ms",
        "ms",
        tail(traced_ms) - tail(untraced_ms),
        n,
        "traced minus untraced",
    );
    report.set(
        "overhead.ops_per_s",
        "1/s",
        rate(traced_ms) - rate(untraced_ms),
        n,
        "traced minus untraced",
    );
}

/// Median of the durations of spans named `name`, in ms (0 when none).
pub fn span_median_ms(tracer: &Tracer, name: &str) -> f64 {
    Samples::new(tracer.durations_ms(name))
        .median()
        .unwrap_or(0.0)
}
