//! Property-based equivalence between the out-of-core paged operators and
//! the in-RAM engine: on random inputs spilled to a buffer pool,
//! `paged_select` / `paged_group_by` / `paged_hash_join` must be rid-for-rid
//! and aggregate-for-aggregate identical to the resident operators — under
//! eviction-forcing pool budgets down to a single frame, with chunk sizes of
//! one page so every chunk boundary is also a page boundary.
//!
//! Float columns hold dyadic rationals (multiples of 0.5) so chunked partial
//! aggregation is exact and equality can be asserted bit-for-bit.

use std::sync::Arc;

use proptest::prelude::*;
use smoke_core::ops::groupby::{group_by, GroupByOptions};
use smoke_core::ops::join::{hash_join, JoinOptions};
use smoke_core::ops::select::{select, SelectOptions};
use smoke_core::{paged_group_by, paged_hash_join, paged_select, AggExpr, AggPushdown, Expr};
use smoke_pager::{BufferPool, ReplacementPolicy, SegmentStore};
use smoke_storage::{DataType, PagedRelation, Relation, Rid, Value, ROWS_PER_PAGE};

/// Builds `t(a, b, s, c)` from `rows` tiled `reps` times, so small proptest
/// inputs still span several pages (`ROWS_PER_PAGE` = 1024). `a` and `c`
/// are small-domain ints, `b` a dyadic float, `s` a short string — the
/// `Str` column stays resident under the paged layout and proves mixed
/// layouts decode consistently.
fn table_from(rows: &[(i64, i64)], reps: usize) -> Relation {
    let mut b = Relation::builder("t")
        .column("a", DataType::Int)
        .column("b", DataType::Float)
        .column("s", DataType::Str)
        .column("c", DataType::Int);
    for _ in 0..reps {
        for &(x, y) in rows {
            let s = ["red", "green", "blue", "cyan"][(y % 4).unsigned_abs() as usize];
            b = b.row(vec![
                Value::Int(x),
                Value::Float(y as f64 * 0.5),
                Value::Str(s.into()),
                Value::Int(y % 3),
            ]);
        }
    }
    b.build().unwrap()
}

/// Group-by key shapes: one `Int` column, an `Int` pair, a `Float` column
/// (the generic `HashKey` path) and one `Str` column.
fn group_keys(shape: usize) -> Vec<String> {
    let keys: &[&str] = match shape {
        0 => &["a"],
        1 => &["a", "c"],
        2 => &["b"],
        _ => &["s"],
    };
    keys.iter().map(|k| k.to_string()).collect()
}

fn group_by_mode(mode: usize) -> GroupByOptions {
    [
        GroupByOptions::baseline(),
        GroupByOptions::inject(),
        GroupByOptions::defer(),
    ][mode]
        .clone()
}

/// Spills `table` behind a pool of exactly `budget` frames — a budget of 1
/// means every page fault evicts, the harshest possible schedule.
fn spill(table: &Relation, budget: usize, policy: ReplacementPolicy) -> PagedRelation {
    let pool = Arc::new(BufferPool::new(SegmentStore::in_memory(), budget, policy));
    PagedRelation::spill(table, &pool).unwrap()
}

/// Like [`spill`] but the pool carries a background prefetcher, so the paged
/// operators' run-ahead hints actually load pages concurrently with the scan.
fn spill_with_prefetch(
    table: &Relation,
    budget: usize,
    policy: ReplacementPolicy,
) -> PagedRelation {
    let pool = Arc::new(BufferPool::with_prefetch(
        SegmentStore::in_memory(),
        budget,
        policy,
        2,
    ));
    PagedRelation::spill(table, &pool).unwrap()
}

/// One-page chunks: every chunk boundary is a page boundary, so group and
/// join state must be carried across chunks to stay correct.
const CHUNK: usize = ROWS_PER_PAGE;

fn exact_aggs(col: &str) -> Vec<AggExpr> {
    vec![
        AggExpr::count("cnt"),
        AggExpr::sum(col, "sum_v"),
        AggExpr::avg(col, "avg_v"),
        AggExpr::min(col, "min_v"),
        AggExpr::max(col, "max_v"),
        AggExpr::count_distinct(col, "dcnt_v"),
    ]
}

fn assert_select_equivalent(table: &Relation, paged: &PagedRelation, pred: &Expr) {
    let seq = select(table, pred, &SelectOptions::inject()).unwrap();
    let p = paged_select(paged, pred, &SelectOptions::inject(), CHUNK).unwrap();
    assert_eq!(seq.output, p.output, "output mismatch for {pred:?}");
    for o in 0..seq.output.len() as Rid {
        assert_eq!(
            seq.lineage.input(0).backward().lookup(o),
            p.lineage.input(0).backward().lookup(o),
            "backward mismatch at {o} for {pred:?}"
        );
    }
    for i in 0..table.len() as Rid {
        assert_eq!(
            seq.lineage.input(0).forward().lookup(i),
            p.lineage.input(0).forward().lookup(i),
            "forward mismatch at {i} for {pred:?}"
        );
    }
    assert_eq!(seq.stats.edges, p.stats.edges);
}

fn assert_group_by_equivalent(
    table: &Relation,
    paged: &PagedRelation,
    keys: &[String],
    aggs: &[AggExpr],
    opts: &GroupByOptions,
) {
    let seq = group_by(table, keys, aggs, opts).unwrap();
    let p = paged_group_by(paged, keys, aggs, opts, CHUNK).unwrap();
    assert_eq!(seq.output, p.output, "group-by output mismatch");
    if !opts.mode.captures() {
        assert!(seq.lineage.is_none() && p.lineage.is_none());
        return;
    }
    for g in 0..seq.output.len() as Rid {
        assert_eq!(
            seq.lineage.input(0).backward().lookup(g),
            p.lineage.input(0).backward().lookup(g),
            "backward mismatch at group {g}"
        );
    }
    for i in 0..table.len() as Rid {
        assert_eq!(
            seq.lineage.input(0).forward().lookup(i),
            p.lineage.input(0).forward().lookup(i),
            "forward mismatch at row {i}"
        );
    }
    // Workload artifacts captured out-of-core must match the resident ones
    // partition-for-partition.
    match (&seq.artifacts.partitioned, &p.artifacts.partitioned) {
        (Some(sp), Some(pp)) => {
            assert_eq!(sp.len(), pp.len());
            for g in 0..sp.len() {
                for key in ["0", "1", "2", "3"] {
                    assert_eq!(
                        sp.partition(g, key),
                        pp.partition(g, key),
                        "partition mismatch at group {g} key {key}"
                    );
                }
            }
        }
        (None, None) => {}
        (s, p) => panic!(
            "partitioned-index presence mismatch: seq={} paged={}",
            s.is_some(),
            p.is_some()
        ),
    }
}

fn assert_join_equivalent(
    left: &Relation,
    right: &Relation,
    pleft: &PagedRelation,
    pright: &PagedRelation,
    keys: &[String],
    opts: &JoinOptions,
) {
    let seq = hash_join(left, right, keys, keys, opts).unwrap();
    let p = paged_hash_join(pleft, pright, keys, keys, opts, CHUNK).unwrap();
    assert_eq!(seq.output, p.output, "join output mismatch");
    assert_eq!(seq.output_rows, p.output_rows);
    assert_eq!(seq.pk_fk, p.pk_fk);
    for side in 0..2 {
        for o in 0..seq.output_rows as Rid {
            assert_eq!(
                seq.lineage.input(side).backward().lookup(o),
                p.lineage.input(side).backward().lookup(o),
                "backward mismatch side {side} output {o}"
            );
        }
    }
    for l in 0..left.len() as Rid {
        let mut a = seq.lineage.input(0).forward().lookup(l);
        let mut b = p.lineage.input(0).forward().lookup(l);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "left forward mismatch at {l}");
    }
    for r in 0..right.len() as Rid {
        assert_eq!(
            seq.lineage.input(1).forward().lookup(r),
            p.lineage.input(1).forward().lookup(r),
            "right forward mismatch at {r}"
        );
    }
}

/// A group-by options set with the full workload surface on: a selection
/// push-down, skipping partitions on `a` and an aggregate push-down cube.
fn workload_opts() -> GroupByOptions {
    let mut opts = GroupByOptions::inject();
    opts.workload.selection_pushdown = Some(Expr::col("b").lt(Expr::lit(25.0)));
    opts.workload.skipping_partition_by = vec!["a".to_string()];
    opts.workload.agg_pushdown = Some(AggPushdown {
        partition_by: vec!["a".to_string()],
        aggs: vec![AggExpr::count("cnt"), AggExpr::sum("b", "total")],
    });
    opts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn paged_select_matches_resident(
        rows in prop::collection::vec((-2i64..8, 0i64..100), 1..200),
        reps in 1usize..12,
        cut in -2i64..8,
        budget in 1usize..9,
    ) {
        let table = table_from(&rows, reps);
        let paged = spill(&table, budget, ReplacementPolicy::Sieve);
        assert_select_equivalent(&table, &paged, &Expr::col("a").ge(Expr::lit(cut)));
        // Compound predicate spanning both a paged and a resident column.
        let pred = Expr::col("a")
            .in_list(vec![Value::Int(cut), Value::Int(cut + 2)])
            .or(Expr::col("b").lt(Expr::lit(10.0)));
        assert_select_equivalent(&table, &paged, &pred);
    }

    #[test]
    fn paged_group_by_matches_resident(
        shape in 0usize..4,
        mode in 0usize..3,
        rows in prop::collection::vec((0i64..4, 0i64..100), 1..200),
        reps in 1usize..12,
        budget in 1usize..9,
    ) {
        let table = table_from(&rows, reps);
        let paged = spill(&table, budget, ReplacementPolicy::Clock);
        let keys = group_keys(shape);
        let opts = group_by_mode(mode);
        assert_group_by_equivalent(&table, &paged, &keys, &exact_aggs("b"), &opts);
        // Same capture with push-down, skipping partitions + cube on `a`.
        let workload = GroupByOptions { mode: opts.mode, ..workload_opts() };
        assert_group_by_equivalent(&table, &paged, &keys, &exact_aggs("b"), &workload);
    }

    #[test]
    fn paged_join_matches_resident(
        left_rows in prop::collection::vec((-2i64..8, 0i64..100), 1..40),
        right_rows in prop::collection::vec((-2i64..8, 0i64..100), 1..200),
        reps in 1usize..8,
        budget in 1usize..9,
        mode in 0usize..3,
        str_key in 0usize..2,
    ) {
        let left = table_from(&left_rows, 1).with_name("L");
        let right = table_from(&right_rows, reps).with_name("R");
        let pleft = spill(&left, budget, ReplacementPolicy::Lru);
        let pright = spill(&right, budget, ReplacementPolicy::Lru);
        let opts = [JoinOptions::inject(), JoinOptions::defer(), JoinOptions::defer_forward()];
        let key = if str_key == 1 { "s" } else { "a" };
        assert_join_equivalent(&left, &right, &pleft, &pright, &[key.to_string()], &opts[mode]);
    }

    /// Prefetching is an advisory optimization: with a prefetcher attached,
    /// every operator must produce bit-for-bit the same outputs and lineage
    /// as the same pool without one — for any budget and policy, the grace
    /// join path included (large `reps` push the build side over budget).
    #[test]
    fn prefetch_on_equals_prefetch_off(
        rows in prop::collection::vec((-2i64..8, 0i64..100), 1..100),
        reps in 1usize..8,
        cut in -2i64..8,
        budget in 1usize..9,
        policy in 0usize..3,
    ) {
        let policy = ReplacementPolicy::ALL[policy];
        let table = table_from(&rows, reps);
        let plain = spill(&table, budget, policy);
        let pre = spill_with_prefetch(&table, budget, policy);

        let pred = Expr::col("a").ge(Expr::lit(cut));
        let off = paged_select(&plain, &pred, &SelectOptions::inject(), CHUNK).unwrap();
        let on = paged_select(&pre, &pred, &SelectOptions::inject(), CHUNK).unwrap();
        assert_eq!(off.output, on.output);
        for o in 0..off.output.len() as Rid {
            assert_eq!(
                off.lineage.input(0).backward().lookup(o),
                on.lineage.input(0).backward().lookup(o),
            );
        }
        for i in 0..table.len() as Rid {
            assert_eq!(
                off.lineage.input(0).forward().lookup(i),
                on.lineage.input(0).forward().lookup(i),
            );
        }

        // Group-by on the resident string column: the offsets-run hints of
        // the spilled Str pages must not perturb anything either.
        let keys = ["s".to_string()];
        let off = paged_group_by(&plain, &keys, &exact_aggs("b"), &GroupByOptions::defer(), CHUNK)
            .unwrap();
        let on = paged_group_by(&pre, &keys, &exact_aggs("b"), &GroupByOptions::defer(), CHUNK)
            .unwrap();
        assert_eq!(off.output, on.output);
        for g in 0..off.output.len() as Rid {
            assert_eq!(
                off.lineage.input(0).backward().lookup(g),
                on.lineage.input(0).backward().lookup(g),
            );
        }

        // Self-join on `a`; over-budget build sides take the grace path on
        // both pools.
        let jk = ["a".to_string()];
        let off = paged_hash_join(&plain, &plain, &jk, &jk, &JoinOptions::inject(), CHUNK).unwrap();
        let on = paged_hash_join(&pre, &pre, &jk, &jk, &JoinOptions::inject(), CHUNK).unwrap();
        assert_eq!(off.grace_partitions, on.grace_partitions);
        assert_eq!(off.output, on.output);
        assert_eq!(off.output_rows, on.output_rows);
        for side in 0..2 {
            for o in 0..off.output_rows as Rid {
                assert_eq!(
                    off.lineage.input(side).backward().lookup(o),
                    on.lineage.input(side).backward().lookup(o),
                );
            }
        }
    }
}

/// The grace-hash join under the harshest schedule: one-frame pools, every
/// replacement policy, every capture mode — rid-for-rid against the
/// resident engine, with the partition fan-out actually engaged.
#[test]
fn grace_join_survives_one_frame_pools_for_all_policies() {
    let rows: Vec<(i64, i64)> = (0..1500).map(|i| (i % 7, i % 13)).collect();
    let left = table_from(&rows, 1).with_name("L");
    let right = table_from(&rows, 1).with_name("R");
    let keys = ["a".to_string()];
    for policy in ReplacementPolicy::ALL {
        // The paged side runs with a live prefetcher: grace partitioning,
        // probing, and merging must tolerate background page installs even
        // when there is a single frame to fight over.
        let pleft = spill_with_prefetch(&left, 1, policy);
        let pright = spill_with_prefetch(&right, 1, policy);
        for opts in [
            JoinOptions::baseline(),
            JoinOptions::inject(),
            JoinOptions::defer(),
            JoinOptions::defer_forward(),
        ] {
            let seq = hash_join(&left, &right, &keys, &keys, &opts).unwrap();
            let p = paged_hash_join(&pleft, &pright, &keys, &keys, &opts, CHUNK).unwrap();
            assert!(p.grace_partitions > 1, "grace must engage ({policy:?})");
            assert_eq!(seq.output, p.output, "{policy:?}");
            assert_eq!(seq.output_rows, p.output_rows);
            assert_eq!(seq.pk_fk, p.pk_fk);
            if !opts.mode.captures() {
                continue;
            }
            for side in 0..2 {
                for o in 0..seq.output_rows as Rid {
                    assert_eq!(
                        seq.lineage.input(side).backward().lookup(o),
                        p.lineage.input(side).backward().lookup(o),
                        "{policy:?} side {side} output {o}"
                    );
                }
            }
            for l in 0..left.len() as Rid {
                let mut a = seq.lineage.input(0).forward().lookup(l);
                let mut b = p.lineage.input(0).forward().lookup(l);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{policy:?} left forward at {l}");
            }
            for r in 0..right.len() as Rid {
                assert_eq!(
                    seq.lineage.input(1).forward().lookup(r),
                    p.lineage.input(1).forward().lookup(r),
                    "{policy:?} right forward at {r}"
                );
            }
        }
    }
}

#[test]
fn budget_of_one_frame_survives_multi_page_tables() {
    // 3000 rows = 3 pages per numeric column; one single frame serves every
    // pin across spill boundaries, so progress proves no pin is ever held
    // while the next page faults.
    let rows: Vec<(i64, i64)> = (0..3000).map(|i| (i % 7, i % 13)).collect();
    let table = table_from(&rows, 1);
    for policy in ReplacementPolicy::ALL {
        let paged = spill(&table, 1, policy);
        assert_select_equivalent(&table, &paged, &Expr::col("a").ge(Expr::lit(3)));
        assert_group_by_equivalent(
            &table,
            &paged,
            &["a".to_string()],
            &exact_aggs("b"),
            &workload_opts(),
        );
        let pright = spill(&table, 1, policy);
        assert_join_equivalent(
            &table,
            &table,
            &paged,
            &pright,
            &["a".to_string()],
            &JoinOptions::inject(),
        );
    }
}

#[test]
fn empty_relation_round_trips_through_the_pool() {
    let empty = table_from(&[], 1);
    let paged = spill(&empty, 1, ReplacementPolicy::Sieve);
    assert_select_equivalent(&empty, &paged, &Expr::col("a").gt(Expr::lit(0)));
    assert_group_by_equivalent(
        &empty,
        &paged,
        &["a".to_string()],
        &exact_aggs("b"),
        &GroupByOptions::inject(),
    );
}
