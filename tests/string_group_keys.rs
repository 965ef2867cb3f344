//! A string group key must behave exactly like an integer coding of the same
//! column: same groups in the same order, same aggregates, and the same
//! lineage rid for rid, under every capture mode, with and without a
//! selection push-down. The string key runs on the borrowed-`&str` key path
//! and the integer key on the dense-table path, so this pins the two against
//! each other, including the Defer pass that re-probes every row.

use proptest::prelude::*;
use smoke::core::ops::groupby::{group_by, GroupByOptions, GroupByResult};
use smoke::prelude::*;

fn relation(rows: &[(i64, i64)]) -> Relation {
    let mut builder = Relation::builder("t")
        .column("tag", DataType::Str)
        .column("code", DataType::Int)
        .column("v", DataType::Float);
    for &(key, v) in rows {
        // Key 0 is the empty string, so the empty key is exercised too.
        let tag = if key == 0 {
            String::new()
        } else {
            format!("k{key}")
        };
        builder = builder.row(vec![
            Value::Str(tag),
            Value::Int(key),
            Value::Float(v as f64),
        ]);
    }
    builder.build().unwrap()
}

fn run(input: &Relation, key: &str, mode: CaptureMode, pushdown: bool) -> GroupByResult {
    let mut opts = GroupByOptions {
        mode,
        ..Default::default()
    };
    if pushdown {
        opts.workload.selection_pushdown = Some(Expr::col("v").lt(Expr::lit(50.0)));
    }
    let aggs = vec![
        AggExpr::count("cnt"),
        AggExpr::sum("v", "total"),
        AggExpr::max("v", "top"),
    ];
    group_by(input, &[key.to_string()], &aggs, &opts).unwrap()
}

fn assert_same(by_str: &GroupByResult, by_int: &GroupByResult) {
    let (s, i) = (&by_str.output, &by_int.output);
    assert_eq!(s.len(), i.len());
    // Same groups in the same order: each output tag codes to its output code.
    for (tag, code) in s.column(0).as_str().iter().zip(i.column(0).as_int()) {
        let expected = if *code == 0 {
            String::new()
        } else {
            format!("k{code}")
        };
        assert_eq!(tag, &expected);
    }
    assert_eq!(s.columns()[1..], i.columns()[1..]);

    assert_eq!(by_str.lineage.input_count(), by_int.lineage.input_count());
    if by_str.lineage.is_none() {
        return;
    }
    let (ls, li) = (by_str.lineage.input(0), by_int.lineage.input(0));
    // Index equality is rid for rid, in order, and includes each rid
    // array's resize count.
    assert_eq!(ls.backward, li.backward);
    assert_eq!(ls.forward, li.forward);
    assert_eq!(ls.resizes(), li.resizes());
    assert_eq!(by_str.stats.rid_resizes, by_int.stats.rid_resizes);
    assert_eq!(by_str.stats.edges, by_int.stats.edges);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn string_keys_match_integer_coded_keys(
        rows in prop::collection::vec((0i64..12, 0i64..100), 0..400),
    ) {
        let input = relation(&rows);
        for mode in [CaptureMode::Baseline, CaptureMode::Inject, CaptureMode::Defer] {
            for pushdown in [false, true] {
                let by_str = run(&input, "tag", mode, pushdown);
                let by_int = run(&input, "code", mode, pushdown);
                assert_same(&by_str, &by_int);
            }
        }
    }
}

#[test]
fn inject_resizes_are_those_of_the_integer_key() {
    // One hot key and many cold ones: the hot group's rid array grows past
    // its initial capacity several times.
    let rows: Vec<(i64, i64)> = (0..2000).map(|i| (i % 3 * (i % 7), i % 100)).collect();
    let input = relation(&rows);
    let by_str = run(&input, "tag", CaptureMode::Inject, false);
    let by_int = run(&input, "code", CaptureMode::Inject, false);
    assert!(by_str.lineage.input(0).resizes() > 0);
    assert_same(&by_str, &by_int);
}
