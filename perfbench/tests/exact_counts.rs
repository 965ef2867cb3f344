//! The counts the benchmark names as exact must repeat exactly across two
//! runs of one seed, and every answer of a small run must check out.

use std::time::Duration;

use perfbench::report::Report;
use perfbench::{capture, out_of_core, serve, RunConfig};

const EXACT: &[&str] = &[
    "lineage.edges",
    "lineage.rid_resizes",
    "lineage_bytes_per_row",
    "planner.strategy_share.EagerTrace",
    "planner.strategy_share.PartitionPruned",
    "planner.strategy_share.CubeHit",
    "planner.strategy_share.LazyRewrite",
];

fn run_all(seed: u64) -> Vec<(&'static str, Report)> {
    let cfg = RunConfig {
        seed,
        measure: Duration::from_millis(200),
        trace: true,
    };
    let mut out = Vec::new();
    let mut report = Report::default();
    capture::run(
        &cfg,
        capture::Size {
            rows: 20_000,
            groups: 200,
        },
        &mut report,
    )
    .expect("capture runs");
    out.push(("capture", report));
    let mut report = Report::default();
    let size = serve::Size {
        rows: 20_000,
        groups: 50,
        warmup: 20,
        replay: 200,
    };
    serve::run(&cfg, size, &mut report).expect("serve runs");
    out.push(("serve", report));
    let mut report = Report::default();
    let size = out_of_core::Size {
        rows: 60_000,
        groups: 100,
        warmup: 2,
    };
    out_of_core::run(&cfg, size, &mut report).expect("out_of_core runs");
    out.push(("out_of_core", report));
    out
}

#[test]
fn exact_counts_repeat_across_runs_of_one_seed_and_answers_check_out() {
    // Keep the pager's segment files inside the build directory. This is the
    // only test in this binary, so no other thread reads the variable.
    std::env::set_var("TMPDIR", env!("CARGO_TARGET_TMPDIR"));
    let first = run_all(7);
    let second = run_all(7);
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        assert!(a.attempted > 0, "{workload} checked nothing");
        assert_eq!(a.failed, 0, "{workload}: {:?}", a.failures);
        assert_eq!(b.failed, 0, "{workload}: {:?}", b.failures);
        let mut compared = 0;
        for name in EXACT {
            match (a.get(name), b.get(name)) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.value, y.value, "{workload} {name}");
                    compared += 1;
                }
                (None, None) => {}
                _ => panic!("{workload} reported {name} in only one run"),
            }
        }
        assert!(compared > 0, "{workload} reported no exact count");
    }
    // A second seed changes the data, and still passes every check.
    let other = run_all(8);
    for (workload, r) in &other {
        assert_eq!(r.failed, 0, "{workload}: {:?}", r.failures);
    }
    let edges = |runs: &[(&str, Report)]| runs[0].1.get("lineage.edges").map(|m| m.value);
    assert_ne!(edges(&first), edges(&other), "the seed must reach the data");
}
