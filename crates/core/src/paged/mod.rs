//! Out-of-core operator execution over [`PagedRelation`]s.
//!
//! One body per operator; residency is the chunk source. The entry points
//! here run the same select, group-by and hash-join bodies as
//! [`crate::ops`], over a `(&PagedRelation, chunk_rows)` source: the input
//! lives in a buffer-pool-backed segment store and is scanned in
//! page-aligned chunks, with the next chunk's pages hinted to the
//! prefetcher. Only the scan is chunked — key tables, aggregation state and
//! lineage indexes stay in RAM (they are the operator's working set; the
//! paper's capture paradigms assume as much) — so every operator here gives
//! the resident operator's output rows and lineage indexes, rid for rid,
//! for any pool budget down to a single page.
//!
//! Lineage capture stays fused with the chunk scan exactly as §3.2
//! prescribes: Inject populates indexes while pages are pinned for the base
//! query, and Defer replays the chunk scan (re-pinning pages — the realistic
//! out-of-core cost of deferral) against the pinned key table.
//!
//! [`smoke_storage::DEFAULT_CHUNK_ROWS`] (64 pages per column) amortizes
//! per-chunk setup while keeping the transient chunk small.

mod grace;

pub use grace::{paged_grace_hash_join, BUILD_BYTES_PER_ROW, MAX_GRACE_PARTITIONS};

use smoke_storage::PagedRelation;

use crate::agg::AggExpr;
use crate::error::Result;
use crate::expr::Expr;
use crate::ops::groupby::{group_by_over, GroupByOptions, GroupByResult};
use crate::ops::join::{hash_join_over, JoinOptions, JoinResult};
use crate::ops::select::{select_over, SelectOptions};
use crate::ops::OpOutput;

/// Executes `SELECT * FROM input WHERE predicate` over a paged relation,
/// streaming page-aligned chunks of at least `chunk_rows` rows. Rid-for-rid
/// equivalent to [`crate::ops::select::select`] on the materialized
/// relation.
pub fn paged_select(
    input: &PagedRelation,
    predicate: &Expr,
    opts: &SelectOptions,
    chunk_rows: usize,
) -> Result<OpOutput> {
    select_over(&(input, chunk_rows), predicate, opts)
}

/// Executes `SELECT keys, aggs FROM input GROUP BY keys` over a paged
/// relation, streaming page-aligned chunks of at least `chunk_rows` rows.
/// Rid-for-rid equivalent to [`crate::ops::groupby::group_by`], including
/// the workload-aware artifacts (selection push-down, data-skipping
/// partitions, group-by push-down cube).
pub fn paged_group_by(
    input: &PagedRelation,
    keys: &[String],
    aggs: &[AggExpr],
    opts: &GroupByOptions,
    chunk_rows: usize,
) -> Result<GroupByResult> {
    group_by_over(&(input, chunk_rows), keys, aggs, opts)
}

/// Executes `left ⋈ right ON left_keys = right_keys` over two paged
/// relations: the build phase streams left chunks into an in-RAM key table,
/// the probe phase streams right chunks against it. Rid-for-rid equivalent
/// to [`crate::ops::join::hash_join`] on the materialized relations, for
/// every capture mode.
///
/// When the estimated build table would dwarf the build side's pool budget
/// (and the keys are numeric), the join transparently switches to the
/// [grace-hash spilling path](paged_grace_hash_join) — same outputs, same
/// lineage, bounded memory; [`JoinResult::grace_partitions`] reports which
/// path ran.
pub fn paged_hash_join(
    left: &PagedRelation,
    right: &PagedRelation,
    left_keys: &[String],
    right_keys: &[String],
    opts: &JoinOptions,
    chunk_rows: usize,
) -> Result<JoinResult> {
    if let Some(partitions) = grace::grace_plan(left, right, left_keys, right_keys) {
        return paged_grace_hash_join(
            left, right, left_keys, right_keys, opts, chunk_rows, partitions,
        );
    }
    hash_join_over(
        &(left, chunk_rows),
        &(right, chunk_rows),
        left_keys,
        right_keys,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::microbenchmark_aggs;
    use crate::ops::groupby::group_by;
    use crate::ops::join::hash_join;
    use crate::ops::select::select;
    use smoke_lineage::OperatorLineage;
    use smoke_pager::{BufferPool, ReplacementPolicy, SegmentStore};
    use smoke_storage::{DataType, Value};
    use smoke_storage::{Relation, Rid};
    use std::sync::Arc;

    fn pool(budget: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(
            SegmentStore::in_memory(),
            budget,
            ReplacementPolicy::Sieve,
        ))
    }

    fn zipfish(rows: usize) -> Relation {
        let mut b = Relation::builder("zipf")
            .column("z", DataType::Int)
            .column("v", DataType::Float)
            .column("v_bin", DataType::Int);
        for i in 0..rows {
            let z = (i * i % 7) as i64;
            b = b.row(vec![
                Value::Int(z),
                Value::Float(i as f64 * 0.25),
                Value::Int((i % 4) as i64),
            ]);
        }
        b.build().unwrap()
    }

    fn assert_same_lineage(
        a: &OperatorLineage,
        b: &OperatorLineage,
        input_lens: &[usize],
        out_rows: usize,
    ) {
        for (input, &ilen) in input_lens.iter().enumerate() {
            let la = a.input(input);
            let lb = b.input(input);
            assert_eq!(la.backward.is_some(), lb.backward.is_some());
            assert_eq!(la.forward.is_some(), lb.forward.is_some());
            if la.backward.is_some() {
                for o in 0..out_rows as Rid {
                    assert_eq!(la.backward().lookup(o), lb.backward().lookup(o), "o={o}");
                }
            }
            if la.forward.is_some() {
                for i in 0..ilen as Rid {
                    let mut x = la.forward().lookup(i);
                    let mut y = lb.forward().lookup(i);
                    x.sort_unstable();
                    y.sort_unstable();
                    assert_eq!(x, y, "i={i}");
                }
            }
        }
    }

    #[test]
    fn paged_select_matches_in_ram() {
        let rel = zipfish(3000); // 3 pages per numeric column
        let paged = PagedRelation::spill(&rel, &pool(1)).unwrap();
        let pred = Expr::col("z")
            .ge(Expr::lit(3))
            .and(Expr::col("v").lt(Expr::lit(600.0)));
        for opts in [
            SelectOptions::baseline(),
            SelectOptions::inject(),
            SelectOptions::inject().scalar(),
        ] {
            let ram = select(&rel, &pred, &opts).unwrap();
            let out = paged_select(&paged, &pred, &opts, 1024).unwrap();
            assert_eq!(out.output, ram.output);
            if opts.capture {
                assert_same_lineage(&out.lineage, &ram.lineage, &[rel.len()], ram.output.len());
            } else {
                assert!(out.lineage.is_none());
            }
        }
    }

    #[test]
    fn paged_group_by_matches_in_ram() {
        let rel = zipfish(3000);
        let paged = PagedRelation::spill(&rel, &pool(2)).unwrap();
        let keys = ["z".to_string()];
        let aggs = microbenchmark_aggs("v");
        for opts in [
            GroupByOptions::baseline(),
            GroupByOptions::inject(),
            GroupByOptions::defer(),
        ] {
            let ram = group_by(&rel, &keys, &aggs, &opts).unwrap();
            let out = paged_group_by(&paged, &keys, &aggs, &opts, 1024).unwrap();
            assert_eq!(out.output, ram.output);
            if opts.mode.captures() {
                assert_same_lineage(&out.lineage, &ram.lineage, &[rel.len()], ram.output.len());
            }
        }
    }

    #[test]
    fn paged_group_by_workload_artifacts_match() {
        let rel = zipfish(2100);
        let paged = PagedRelation::spill(&rel, &pool(2)).unwrap();
        let keys = ["z".to_string()];
        let mut opts = GroupByOptions::inject();
        opts.workload.selection_pushdown = Some(Expr::col("v").lt(Expr::lit(400.0)));
        opts.workload.skipping_partition_by = vec!["v_bin".to_string()];
        let ram = group_by(&rel, &keys, &[AggExpr::count("cnt")], &opts).unwrap();
        let out = paged_group_by(&paged, &keys, &[AggExpr::count("cnt")], &opts, 1024).unwrap();
        assert_eq!(out.output, ram.output);
        let (pp, rp) = (
            out.artifacts.partitioned.as_ref().unwrap(),
            ram.artifacts.partitioned.as_ref().unwrap(),
        );
        for gid in 0..out.output.len() {
            for part in ["0", "1", "2", "3"] {
                assert_eq!(pp.partition(gid, part), rp.partition(gid, part));
            }
        }
        assert_same_lineage(&out.lineage, &ram.lineage, &[rel.len()], ram.output.len());
    }

    #[test]
    fn paged_join_matches_in_ram() {
        let mut b = Relation::builder("dims").column("id", DataType::Int);
        for i in 0..7 {
            b = b.row(vec![Value::Int(i)]);
        }
        let left = b.build().unwrap();
        let right = zipfish(2500);
        let lp = PagedRelation::spill(&left, &pool(1)).unwrap();
        let rp = PagedRelation::spill(&right, &pool(2)).unwrap();
        let lk = ["id".to_string()];
        let rk = ["z".to_string()];
        for opts in [
            JoinOptions::baseline(),
            JoinOptions::inject(),
            JoinOptions::defer(),
            JoinOptions::defer_forward(),
        ] {
            let ram = hash_join(&left, &right, &lk, &rk, &opts).unwrap();
            let out = paged_hash_join(&lp, &rp, &lk, &rk, &opts, 1024).unwrap();
            assert_eq!(out.grace_partitions, 1, "small build side stays resident");
            assert_eq!(out.output, ram.output);
            assert_eq!(out.output_rows, ram.output_rows);
            assert_eq!(out.pk_fk, ram.pk_fk);
            if opts.mode.captures() {
                assert_same_lineage(
                    &out.lineage,
                    &ram.lineage,
                    &[left.len(), right.len()],
                    ram.output_rows,
                );
            }
        }
    }

    #[test]
    fn mn_paged_join_matches_in_ram() {
        let mut b = Relation::builder("A").column("z", DataType::Int);
        for z in [1, 1, 2, 3, 1] {
            b = b.row(vec![Value::Int(z)]);
        }
        let left = b.build().unwrap();
        let mut b = Relation::builder("B").column("z", DataType::Int);
        for z in [1, 2, 1, 3, 9] {
            b = b.row(vec![Value::Int(z)]);
        }
        let right = b.build().unwrap();
        let lp = PagedRelation::spill(&left, &pool(1)).unwrap();
        let rp = PagedRelation::spill(&right, &pool(1)).unwrap();
        let k = ["z".to_string()];
        for opts in [JoinOptions::inject(), JoinOptions::defer()] {
            let ram = hash_join(&left, &right, &k, &k, &opts).unwrap();
            let out = paged_hash_join(&lp, &rp, &k, &k, &opts, 1024).unwrap();
            assert!(!out.pk_fk);
            assert_eq!(out.output, ram.output);
            assert_same_lineage(
                &out.lineage,
                &ram.lineage,
                &[left.len(), right.len()],
                ram.output_rows,
            );
        }
    }

    #[test]
    fn grace_join_engages_over_budget_and_matches_in_ram() {
        // 1000 build rows × 48 bytes ≫ a one-frame budget, so the join
        // auto-dispatches to the grace path; 2500 probe rows with 7 distinct
        // keys make it M:N.
        let mut b = Relation::builder("dims")
            .column("id", DataType::Int)
            .column("w", DataType::Float);
        for i in 0..1000 {
            b = b.row(vec![Value::Int(i % 7), Value::Float(i as f64 * 0.5)]);
        }
        let left = b.build().unwrap();
        let right = zipfish(2500);
        let lp = PagedRelation::spill(&left, &pool(1)).unwrap();
        let rp = PagedRelation::spill(&right, &pool(2)).unwrap();
        let lk = ["id".to_string()];
        let rk = ["z".to_string()];
        for opts in [
            JoinOptions::baseline(),
            JoinOptions::inject(),
            JoinOptions::defer(),
            JoinOptions::defer_forward(),
        ] {
            let ram = hash_join(&left, &right, &lk, &rk, &opts).unwrap();
            let out = paged_hash_join(&lp, &rp, &lk, &rk, &opts, 1024).unwrap();
            assert!(out.grace_partitions > 1, "expected the grace path");
            assert_eq!(out.output, ram.output);
            assert_eq!(out.output_rows, ram.output_rows);
            assert_eq!(out.pk_fk, ram.pk_fk);
            if opts.mode.captures() {
                assert_same_lineage(
                    &out.lineage,
                    &ram.lineage,
                    &[left.len(), right.len()],
                    ram.output_rows,
                );
            } else {
                assert!(out.lineage.is_none());
            }
        }
    }

    #[test]
    fn grace_join_handles_float_keys() {
        let mut b = Relation::builder("fl").column("f", DataType::Float);
        for i in 0..500 {
            b = b.row(vec![Value::Float((i % 5) as f64 * 0.5)]);
        }
        let left = b.build().unwrap();
        let mut b = Relation::builder("fr").column("f", DataType::Float);
        for i in 0..600 {
            b = b.row(vec![Value::Float((i % 8) as f64 * 0.5)]);
        }
        let right = b.build().unwrap();
        let lp = PagedRelation::spill(&left, &pool(1)).unwrap();
        let rp = PagedRelation::spill(&right, &pool(1)).unwrap();
        let k = ["f".to_string()];
        for opts in [JoinOptions::inject(), JoinOptions::defer()] {
            let ram = hash_join(&left, &right, &k, &k, &opts).unwrap();
            let out = paged_hash_join(&lp, &rp, &k, &k, &opts, 1024).unwrap();
            assert!(out.grace_partitions > 1);
            assert_eq!(out.output, ram.output);
            assert_same_lineage(
                &out.lineage,
                &ram.lineage,
                &[left.len(), right.len()],
                ram.output_rows,
            );
        }
    }

    #[test]
    fn grace_falls_back_to_resident_for_string_keys() {
        // Over budget, but the key column is Str: partitions spill through
        // fixed-width runs only, so the join must stay on the resident path
        // (and still be correct).
        let mut b = Relation::builder("sl").column("s", DataType::Str);
        for i in 0..1000 {
            b = b.row(vec![Value::Str(format!("k{}", i % 6))]);
        }
        let left = b.build().unwrap();
        let mut b = Relation::builder("sr").column("s", DataType::Str);
        for i in 0..800 {
            b = b.row(vec![Value::Str(format!("k{}", i % 9))]);
        }
        let right = b.build().unwrap();
        let lp = PagedRelation::spill(&left, &pool(1)).unwrap();
        let rp = PagedRelation::spill(&right, &pool(1)).unwrap();
        let k = ["s".to_string()];
        let ram = hash_join(&left, &right, &k, &k, &JoinOptions::inject()).unwrap();
        let out = paged_hash_join(&lp, &rp, &k, &k, &JoinOptions::inject(), 1024).unwrap();
        assert_eq!(out.grace_partitions, 1, "Str keys must not take grace");
        assert_eq!(out.output, ram.output);
        assert_same_lineage(
            &out.lineage,
            &ram.lineage,
            &[left.len(), right.len()],
            ram.output_rows,
        );
    }

    #[test]
    fn explicit_grace_join_matches_on_small_inputs() {
        // Direct invocation with a fixed fan-out on inputs far under the
        // budget: the grace machinery itself (not the dispatch heuristic)
        // must reproduce the resident join, empty partitions included.
        let mut b = Relation::builder("A").column("z", DataType::Int);
        for z in [1, 1, 2, 3, 1] {
            b = b.row(vec![Value::Int(z)]);
        }
        let left = b.build().unwrap();
        let mut b = Relation::builder("B").column("z", DataType::Int);
        for z in [1, 2, 1, 3, 9] {
            b = b.row(vec![Value::Int(z)]);
        }
        let right = b.build().unwrap();
        let lp = PagedRelation::spill(&left, &pool(1)).unwrap();
        let rp = PagedRelation::spill(&right, &pool(1)).unwrap();
        let k = ["z".to_string()];
        for opts in [
            JoinOptions::inject(),
            JoinOptions::defer(),
            JoinOptions::defer_forward(),
        ] {
            let ram = hash_join(&left, &right, &k, &k, &opts).unwrap();
            let out = paged_grace_hash_join(&lp, &rp, &k, &k, &opts, 1024, 3).unwrap();
            assert_eq!(out.grace_partitions, 3);
            assert!(!out.pk_fk);
            assert_eq!(out.output, ram.output);
            assert_same_lineage(
                &out.lineage,
                &ram.lineage,
                &[left.len(), right.len()],
                ram.output_rows,
            );
        }
    }

    #[test]
    fn unknown_columns_error_before_io() {
        let rel = zipfish(100);
        let paged = PagedRelation::spill(&rel, &pool(1)).unwrap();
        assert!(paged_select(
            &paged,
            &Expr::col("nope").lt(Expr::lit(1)),
            &SelectOptions::inject(),
            1024
        )
        .is_err());
        assert!(paged_group_by(
            &paged,
            &["nope".to_string()],
            &[],
            &GroupByOptions::inject(),
            1024
        )
        .is_err());
    }

    #[test]
    fn empty_paged_relation_executes() {
        let rel = Relation::builder("e")
            .column("z", DataType::Int)
            .column("v", DataType::Float)
            .build()
            .unwrap();
        let paged = PagedRelation::spill(&rel, &pool(1)).unwrap();
        let out = paged_select(
            &paged,
            &Expr::col("z").gt(Expr::lit(0)),
            &SelectOptions::inject(),
            1024,
        )
        .unwrap();
        assert_eq!(out.output.len(), 0);
        let gb = paged_group_by(
            &paged,
            &["z".to_string()],
            &[AggExpr::sum("v", "s")],
            &GroupByOptions::inject(),
            1024,
        )
        .unwrap();
        assert_eq!(gb.output.len(), 0);
    }
}
