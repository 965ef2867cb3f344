//! Collects a run's metrics and correctness counts and prints them: one
//! human-readable line per metric, then the one-line JSON result.

use crate::stats::Samples;

/// The end-to-end metrics every workload reports with tracing off, in the
/// order `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("lineage_bytes_per_row", "B"),
];

/// The per-layer metrics every traced run reports, in `BENCHMARK.json`
/// order. A workload that bypasses a layer reports its metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.select_ms", "ms"),
    ("core.join_ms", "ms"),
    ("core.group_by_ms", "ms"),
    ("core.compose_ms", "ms"),
    ("core.base_ms", "ms"),
    ("core.query_base_ms", "ms"),
    ("core.query_defer_ms", "ms"),
    ("core.dop2_speedup_x", "x"),
    ("core.paged_group_by_ms", "ms"),
    ("lineage.capture_overhead_x", "x"),
    ("lineage.defer_overhead_x", "x"),
    ("lineage.edges", "count"),
    ("lineage.rid_resizes", "count"),
    ("lineage.finalize_ms", "ms"),
    ("lineage.compressed_lookup_ms", "ms"),
    ("lineage.compression_ratio", "ratio"),
    ("storage.gather_ms", "ms"),
    ("storage.rows_per_trace", "count"),
    ("storage.spill_s", "s"),
    ("pager.hit_rate", "ratio"),
    ("pager.hit_rate_iqr", "ratio"),
    ("pager.disk_reads_per_trace", "count"),
    ("pager.evictions_per_trace", "count"),
    ("pager.prefetch_useful", "ratio"),
    ("pager.capture_hit_rate", "ratio"),
    ("pager.capture_disk_reads", "count"),
    ("planner.plan_ms", "ms"),
    ("planner.execute_ms", "ms"),
    ("planner.strategy_share.EagerTrace", "ratio"),
    ("planner.strategy_share.PartitionPruned", "ratio"),
    ("planner.strategy_share.CubeHit", "ratio"),
    ("planner.strategy_share.LazyRewrite", "ratio"),
    ("server.decode_ms", "ms"),
    ("server.encode_ms", "ms"),
    ("server.self_ms", "ms"),
    ("server.cache_hit_rate", "ratio"),
    ("bench.trace_self_ms", "ms"),
    ("overhead.setup_s", "s"),
    ("overhead.op_p50_ms", "ms"),
    ("overhead.op_tail_ms", "ms"),
    ("overhead.ops_per_s", "1/s"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (a median for timings).
    pub value: f64,
    /// Samples behind the value (1 for counts).
    pub n: usize,
    /// Extra context printed next to the value, such as the tail percentile.
    pub detail: String,
}

/// Everything one benchmark run produced.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that failed, were shed, or returned a wrong answer.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Report {
    /// Records `value` under `name`, replacing an earlier value.
    pub fn set(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        n: usize,
        detail: impl Into<String>,
    ) {
        let metric = Metric {
            name: name.to_string(),
            unit,
            value,
            n,
            detail: detail.into(),
        };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => *m = metric,
            None => self.metrics.push(metric),
        }
    }

    /// Records the median of `samples` (0 when there are none).
    pub fn median(&mut self, name: &str, unit: &'static str, samples: &Samples) {
        let spread = samples
            .iqr()
            .map(|q| format!("iqr={q:.4}"))
            .unwrap_or_default();
        self.set(
            name,
            unit,
            samples.median().unwrap_or(0.0),
            samples.len(),
            spread,
        );
    }

    /// Records an exact count or a ratio of counts.
    pub fn count(&mut self, name: &str, unit: &'static str, value: f64) {
        self.set(name, unit, value, 1, "exact");
    }

    /// Records the median and the tail of the workload's operation latency,
    /// in ms, as `op_p50_ms` and `op_tail_ms`.
    pub fn op_latency(&mut self, samples: &Samples) {
        self.median("op_p50_ms", "ms", samples);
        let (value, detail) = match samples.tail() {
            Some(t) => (t.value, format!("p{}", t.percentile)),
            None => (
                samples.percentile(100.0).unwrap_or(0.0),
                "max (under 20 samples)".to_string(),
            ),
        };
        self.set("op_tail_ms", "ms", value, samples.len(), detail);
    }

    /// Counts one checked operation, failing it with `why` when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Counts a failure of an already-attempted operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Looks up a recorded metric.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// All recorded metrics, in recording order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// The JSON result line over `wanted`. Per-layer metrics a workload did
    /// not record are reported as 0 (the layer is bypassed); a missing
    /// end-to-end metric is an error.
    pub fn json_line(
        &self,
        wanted: &[(&str, &str)],
        missing_is_zero: bool,
    ) -> Result<String, String> {
        let mut parts = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            let value = match self.get(name) {
                Some(m) => m.value,
                None if missing_is_zero => 0.0,
                None => return Err(format!("metric `{name}` was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json");
        let flat: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            let found = flat[at..]
                .find(&entry)
                .unwrap_or_else(|| panic!("{entry} missing or out of order"));
            at += found + entry.len();
        }
        assert_eq!(
            flat.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.set("a", "ms", 1.25, 3, "");
        r.count("b", "count", 7.0);
        let line = r
            .json_line(&[("a", "ms"), ("b", "count"), ("c", "s")], true)
            .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 7.0, \"unit\": \"count\"}, \"c\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        assert!(r.json_line(&[("c", "s")], false).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "wrong rids".to_string());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r
            .json_line(&[], true)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn latency_reports_median_tail_and_sample_count() {
        let mut r = Report::default();
        r.op_latency(&Samples::new((1..=100).map(f64::from).collect()));
        assert_eq!(r.get("op_p50_ms").unwrap().value, 50.5);
        let tail = r.get("op_tail_ms").unwrap();
        assert_eq!(
            (tail.value, tail.n, tail.detail.as_str()),
            (90.0, 100, "p90")
        );
    }
}
