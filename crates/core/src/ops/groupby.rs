//! Group-by aggregation with lineage capture (paper §3.2.3).
//!
//! The operator is decomposed into `γht` (build the hash table mapping
//! group-by values to intermediate aggregation state) and `γagg` (scan the
//! hash table, finalize aggregates, emit output records), mirroring query
//! compilers. Lineage is a backward rid index (output group → input rids) and
//! a forward rid array (input rid → output group).
//!
//! * **Inject** augments each group's intermediate state with an `i_rids` rid
//!   array during the build phase; `γagg` then moves those arrays into the
//!   backward index (data-structure *reuse*, principle P4).
//! * **Defer** stores only an output id per group during execution and builds
//!   the indexes in a separate pass that re-probes the (pinned) hash table;
//!   because group cardinalities are known by then, the indexes are allocated
//!   exactly and never resized.
//! * Cardinality hints (`Smoke-I+TC`) pre-allocate `i_rids` and eliminate the
//!   resize costs that otherwise dominate capture overhead.
//!
//! The workload-aware options of §4 (selection push-down, data skipping,
//! group-by push-down) are applied here because the final aggregation of an
//! SPJA block is where backward lineage for the query output is materialized.

use std::collections::HashMap;
use std::time::Instant;

use smoke_lineage::{
    CaptureStats, CsrBuilder, InputLineage, LineageIndex, OperatorLineage, PartitionedRidIndex,
    RidArray, RidIndex,
};
use smoke_storage::{
    Column, DataType, Field, Relation, Rid, Schema, SelectionMask, StorageError, Value,
};

use crate::agg::{AggExpr, AggFunc, AggState};
use crate::error::{EngineError, Result};
use crate::instrument::{
    AggPushdown, CaptureMode, CardinalityHints, DirectionFilter, WorkloadOptions,
};
use crate::key::{HashKey, KeyExtractor, KeyTable, KeyView};
use crate::ops::source::ChunkSource;
use crate::workload::{LineageCube, WorkloadArtifacts};

/// Options controlling group-by instrumentation.
#[derive(Debug, Clone, Default)]
pub struct GroupByOptions {
    /// Instrumentation paradigm.
    pub mode: CaptureMode,
    /// Lineage directions to capture.
    pub directions: DirectionFilter,
    /// Optional cardinality statistics (`Smoke-I+TC`).
    pub hints: Option<CardinalityHints>,
    /// Workload-aware push-down options.
    pub workload: WorkloadOptions,
}

impl GroupByOptions {
    /// Baseline: no capture.
    pub fn baseline() -> Self {
        GroupByOptions {
            mode: CaptureMode::Baseline,
            ..Default::default()
        }
    }

    /// `Smoke-I`.
    pub fn inject() -> Self {
        GroupByOptions {
            mode: CaptureMode::Inject,
            ..Default::default()
        }
    }

    /// `Smoke-D`.
    pub fn defer() -> Self {
        GroupByOptions {
            mode: CaptureMode::Defer,
            ..Default::default()
        }
    }

    /// `Smoke-I+TC`: Inject with true per-group cardinalities.
    pub fn inject_with_hints(hints: CardinalityHints) -> Self {
        GroupByOptions {
            mode: CaptureMode::Inject,
            hints: Some(hints),
            ..Default::default()
        }
    }
}

/// The result of an instrumented group-by aggregation.
#[derive(Debug, Clone)]
pub struct GroupByResult {
    /// Aggregated output relation (one row per group).
    pub output: Relation,
    /// Lineage w.r.t. the single input relation.
    pub lineage: OperatorLineage,
    /// Workload-aware artifacts (partitioned index / cube), if requested.
    pub artifacts: WorkloadArtifacts,
    /// Capture statistics.
    pub stats: CaptureStats,
}

struct GroupEntry {
    key_values: Vec<Value>,
    states: Vec<AggState>,
    i_rids: RidArray,
    /// Rows that passed the selection push-down (every row without one);
    /// the exact backward cardinality the Defer pass allocates with.
    lineage_count: u32,
}

pub(crate) struct AggInputs<'a> {
    pub(crate) columns: Vec<Option<&'a Column>>,
}

impl<'a> AggInputs<'a> {
    pub(crate) fn resolve(input: &'a Relation, aggs: &[AggExpr]) -> Result<Self> {
        let mut columns = Vec::with_capacity(aggs.len());
        for agg in aggs {
            match &agg.column {
                Some(name) => {
                    let idx = input
                        .column_index(name)
                        .map_err(|_| EngineError::UnknownColumn(name.clone()))?;
                    columns.push(Some(input.column(idx)));
                }
                None => columns.push(None),
            }
        }
        Ok(AggInputs { columns })
    }

    #[inline]
    pub(crate) fn update(&self, states: &mut [AggState], aggs: &[AggExpr], rid: usize) {
        for (i, state) in states.iter_mut().enumerate() {
            match (&aggs[i].func, self.columns[i]) {
                (AggFunc::Count, _) => state.update(0.0),
                (AggFunc::CountDistinct, Some(col)) => {
                    state.update_key(&col.value(rid).group_key())
                }
                (_, Some(col)) => state.update(col.numeric(rid).unwrap_or(0.0)),
                (_, None) => state.update(0.0),
            }
        }
    }
}

/// What one chunk feeds the build pass: its typed group keys, aggregate
/// inputs and — when capturing — the workload-aware columns. Resolving it
/// against a zero-row probe validates every column reference.
struct ChunkInputs<'c> {
    keys: KeyView<'c>,
    aggs: AggInputs<'c>,
    /// Selection push-down: the rows of the chunk that enter the lineage
    /// indexes, evaluated once per chunk through the kernel layer.
    pushdown: Option<SelectionMask>,
    skip: Option<KeyExtractor<'c>>,
    cube: Option<(&'c AggPushdown, KeyExtractor<'c>, AggInputs<'c>)>,
}

impl<'c> ChunkInputs<'c> {
    fn resolve(
        chunk: &'c Relation,
        keys: &[String],
        aggs: &[AggExpr],
        opts: &'c GroupByOptions,
    ) -> Result<Self> {
        let capture = opts.mode.captures();
        let wl = &opts.workload;
        // Uninstrumented runs never read the push-down mask, so they only
        // bind the predicate (validating it) without paying for the scan.
        let pushdown = match &wl.selection_pushdown {
            Some(expr) if capture => Some(crate::kernels::predicate_mask(chunk, expr)?),
            Some(expr) => {
                expr.bind(chunk)?;
                None
            }
            None => None,
        };
        let skip = if capture && !wl.skipping_partition_by.is_empty() {
            Some(KeyExtractor::new(chunk, &wl.skipping_partition_by)?)
        } else {
            None
        };
        let cube = match (&wl.agg_pushdown, capture) {
            (Some(pd), true) => Some((
                pd,
                KeyExtractor::new(chunk, &pd.partition_by)?,
                AggInputs::resolve(chunk, &pd.aggs)?,
            )),
            _ => None,
        };
        Ok(ChunkInputs {
            keys: KeyView::new(chunk, keys)?,
            aggs: AggInputs::resolve(chunk, aggs)?,
            pushdown,
            skip,
            cube,
        })
    }
}

/// Executes `SELECT keys, aggs FROM input GROUP BY keys` with the configured
/// instrumentation.
pub fn group_by(
    input: &Relation,
    keys: &[String],
    aggs: &[AggExpr],
    opts: &GroupByOptions,
) -> Result<GroupByResult> {
    group_by_over(input, keys, aggs, opts)
}

/// The group-by body over any [`ChunkSource`]. The key table, aggregation
/// state and lineage indexes live in RAM across chunks (they are the
/// operator's working set), so the result is the same rid for rid whether
/// the input is one resident chunk or a stream of paged ones.
pub(crate) fn group_by_over(
    input: &impl ChunkSource,
    keys: &[String],
    aggs: &[AggExpr],
    opts: &GroupByOptions,
) -> Result<GroupByResult> {
    let start = Instant::now();
    let n = input.len();
    let probe = input.probe();
    ChunkInputs::resolve(&probe, keys, aggs, opts)?;
    let key_types: Vec<DataType> = KeyExtractor::new(&probe, keys)?
        .columns()
        .iter()
        .map(|c| c.data_type())
        .collect();

    let capture = opts.mode.captures();
    let capture_b = capture && opts.directions.backward();
    let capture_f = capture && opts.directions.forward();
    // For group-by there are only two paradigms; DeferForward degenerates to
    // Inject (it is join-specific).
    let inject = matches!(opts.mode, CaptureMode::Inject | CaptureMode::DeferForward);
    let wl = &opts.workload;

    // γht: build phase. The key table is created from the first chunk's
    // view; only a chunk holding the whole input knows the key domain up
    // front, which the dense integer table needs.
    let mut table: Option<KeyTable> = None;
    let mut groups: Vec<GroupEntry> = Vec::new();
    let mut forward = if capture_f && inject {
        RidArray::filled(n)
    } else {
        RidArray::new()
    };
    let mut partitioned = (capture && !wl.skipping_partition_by.is_empty())
        .then(|| PartitionedRidIndex::new(wl.skipping_partition_by.join(",")));
    let mut cube = match (&wl.agg_pushdown, capture) {
        (Some(pd), true) => Some(LineageCube::new(
            0,
            pd.partition_by.clone(),
            pd.aggs.clone(),
        )),
        _ => None,
    };
    // The Defer pass re-reads the keys but reuses the build pass's push-down
    // mask, so both passes agree on which rows enter the indexes.
    let mut deferred_mask = (capture && !inject && wl.selection_pushdown.is_some())
        .then(|| SelectionMask::all_false(0));

    for item in input.chunks() {
        let (first, chunk) = item?;
        let chunk: &Relation = &chunk;
        let c = ChunkInputs::resolve(chunk, keys, aggs, opts)?;
        let table = table.get_or_insert_with(|| KeyTable::new(&c.keys, chunk.len() == n));
        for local in 0..chunk.len() {
            let rid = first + local;
            let gid = match table.get(&c.keys, local) {
                Some(gid) => gid,
                None => {
                    let key = c.keys.key(local);
                    let gid = groups.len() as u32;
                    let hinted_cap = opts.hints.as_ref().and_then(|h| h.cardinality(&key));
                    let i_rids = match hinted_cap {
                        Some(cap) if capture_b && inject => RidArray::with_capacity(cap),
                        _ => RidArray::new(),
                    };
                    groups.push(GroupEntry {
                        key_values: key.to_values(),
                        states: aggs.iter().map(AggExpr::new_state).collect(),
                        i_rids,
                        lineage_count: 0,
                    });
                    table.insert(&c.keys, local, gid);
                    gid
                }
            };
            let entry = &mut groups[gid as usize];
            c.aggs.update(&mut entry.states, aggs, local);

            // Selection push-down: only rows satisfying the future consuming
            // query's predicate enter the lineage indexes.
            if !capture || !c.pushdown.as_ref().is_none_or(|m| m.get(local)) {
                continue;
            }
            entry.lineage_count += 1;
            if capture_b && inject {
                entry.i_rids.push(rid as Rid);
            }
            if capture_f && inject {
                forward.set(rid, gid);
            }
            if let (Some(part), Some(skip)) = (partitioned.as_mut(), c.skip.as_ref()) {
                let key = skip.key(local);
                part.append(gid as usize, &render_partition_key(&key), rid as Rid);
            }
            if let (Some(cube), Some((pd, ex, cols))) = (cube.as_mut(), c.cube.as_ref()) {
                let pkey = ex.key(local);
                let key_values = pkey.to_values();
                let mut inputs = Vec::with_capacity(pd.aggs.len());
                let mut distinct = Vec::with_capacity(pd.aggs.len());
                for (i, agg) in pd.aggs.iter().enumerate() {
                    match (&agg.func, cols.columns[i]) {
                        (AggFunc::CountDistinct, Some(col)) => {
                            inputs.push(0.0);
                            distinct.push(Some(col.value(local).group_key()));
                        }
                        (_, Some(col)) => {
                            inputs.push(col.numeric(local).unwrap_or(0.0));
                            distinct.push(None);
                        }
                        (_, None) => {
                            inputs.push(0.0);
                            distinct.push(None);
                        }
                    }
                }
                cube.update(
                    gid as usize,
                    &render_partition_key(&pkey),
                    &key_values,
                    &inputs,
                    &distinct,
                );
            }
        }
        if let (Some(all), Some(mask)) = (deferred_mask.as_mut(), c.pushdown.as_ref()) {
            all.append(mask);
        }
    }

    // γagg: scan phase — finalize aggregates and emit output records.
    let mut key_cols: Vec<Column> = key_types
        .iter()
        .map(|&t| Column::with_capacity(t, groups.len()))
        .collect();
    let mut agg_cols: Vec<Column> = aggs
        .iter()
        .map(|a| Column::with_capacity(a.output_type(), groups.len()))
        .collect();

    let mut backward = RidIndex::with_len(0);
    for entry in groups.iter_mut() {
        for (i, col) in key_cols.iter_mut().enumerate() {
            col.push(entry.key_values[i].clone())?;
        }
        for (i, col) in agg_cols.iter_mut().enumerate() {
            col.push(entry.states[i].finalize())?;
        }
        if capture_b && inject {
            backward.push_entry(std::mem::take(&mut entry.i_rids));
        }
    }

    let fields = keys
        .iter()
        .zip(&key_types)
        .map(|(name, &t)| Field::new(name.clone(), t))
        .chain(
            aggs.iter()
                .map(|a| Field::new(a.alias.clone(), a.output_type())),
        )
        .collect();
    let mut columns = key_cols;
    columns.append(&mut agg_cols);
    let output = Relation::from_columns(
        format!("groupby({})", input.name()),
        Schema::new(fields)?,
        columns,
    )?;
    let base_query = start.elapsed();

    if !capture {
        let stats = CaptureStats {
            base_query,
            ..Default::default()
        };
        return Ok(GroupByResult {
            output,
            lineage: OperatorLineage::none(),
            artifacts: WorkloadArtifacts::default(),
            stats,
        });
    }

    // Defer pass: re-scan the input against the pinned key table (out of
    // core this re-pins every data page, the realistic cost of deferral).
    // Per-group cardinalities are exact by now, so the backward index is
    // built directly in CSR form — two flat buffers allocated once, zero
    // resizes, no per-group arrays.
    let defer_start = Instant::now();
    let mut deferred_backward: Option<CsrBuilder> = None;
    if !inject {
        if capture_b {
            deferred_backward = Some(CsrBuilder::with_counts(
                groups.iter().map(|g| g.lineage_count as usize),
            ));
        }
        if capture_f {
            forward = RidArray::filled(n);
        }
        for item in input.chunks() {
            let (first, chunk) = item?;
            let chunk: &Relation = &chunk;
            let view = KeyView::new(chunk, keys)?;
            for local in 0..chunk.len() {
                let rid = first + local;
                if !deferred_mask.as_ref().is_none_or(|m| m.get(rid)) {
                    continue;
                }
                let gid = table
                    .as_ref()
                    .and_then(|t| t.get(&view, local))
                    .ok_or_else(|| unseen_key(rid))?;
                if let Some(b) = deferred_backward.as_mut() {
                    b.append(gid as usize, rid as Rid);
                }
                if capture_f {
                    forward.set(rid, gid);
                }
            }
        }
    }
    let deferred = if inject {
        std::time::Duration::ZERO
    } else {
        defer_start.elapsed()
    };

    let backward_index = if capture_b {
        Some(match deferred_backward {
            Some(b) => LineageIndex::Csr(b.finish()),
            None => LineageIndex::Index(backward),
        })
    } else {
        None
    };
    let forward_index = capture_f.then_some(LineageIndex::Array(forward));

    let mut stats = CaptureStats {
        base_query,
        deferred,
        ..Default::default()
    };
    if let Some(b) = &backward_index {
        stats.edges += b.edge_count() as u64;
        stats.rid_resizes += b.resizes();
        stats.lineage_bytes += b.heap_bytes() as u64;
    }
    if let Some(f) = &forward_index {
        stats.rid_resizes += f.resizes();
        stats.lineage_bytes += f.heap_bytes() as u64;
    }

    Ok(GroupByResult {
        output,
        lineage: OperatorLineage::unary(InputLineage {
            backward: backward_index,
            forward: forward_index,
        }),
        artifacts: WorkloadArtifacts { partitioned, cube },
        stats,
    })
}

/// The Defer pass met a key the build pass never saw. Only an input that
/// changed between the two scans can do that — a re-read spilled page that
/// differs from its first read — so it is reported as a storage fault
/// instead of dropping the row's lineage.
fn unseen_key(rid: usize) -> EngineError {
    StorageError::Pager(format!(
        "group-by defer pass read a key at rid {rid} that its build pass never saw; \
         the input changed between scans"
    ))
    .into()
}

/// Renders a partition key in a stable human-readable form (partition
/// attributes are categorical or discretized, §4.2).
pub(crate) fn render_partition_key(key: &HashKey) -> String {
    match key {
        HashKey::Int(v) => v.to_string(),
        HashKey::Str(s) => s.clone(),
        HashKey::Composite(parts) => parts
            .iter()
            .map(|p| p.to_value().group_key())
            .collect::<Vec<_>>()
            .join("|"),
    }
}

/// Computes exact per-group cardinalities for `keys` over `input`, used to
/// drive the `Smoke-I+TC` experiments (the paper assumes such statistics can
/// be collected during prior query processing).
pub fn true_cardinalities(input: &Relation, keys: &[String]) -> Result<CardinalityHints> {
    let extractor = KeyExtractor::new(input, keys)?;
    let mut per_key: HashMap<HashKey, usize> = HashMap::new();
    for rid in 0..input.len() {
        *per_key.entry(extractor.key(rid)).or_insert(0) += 1;
    }
    Ok(CardinalityHints::with_per_key(per_key))
}

/// Convenience output-type helper used by callers that need the output schema
/// of a group-by without running it.
pub fn output_key_type(input: &Relation, key: &str) -> Result<DataType> {
    let idx = input
        .column_index(key)
        .map_err(|_| EngineError::UnknownColumn(key.to_string()))?;
    Ok(input.schema().field(idx).data_type)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::microbenchmark_aggs;
    use smoke_storage::DataType;

    fn rel() -> Relation {
        // z values: 1,2,1,3,2,1 ; v values: 10,20,30,40,50,60
        let mut b = Relation::builder("zipf")
            .column("z", DataType::Int)
            .column("v", DataType::Float)
            .column("tag", DataType::Str);
        let zs = [1, 2, 1, 3, 2, 1];
        for (i, z) in zs.iter().enumerate() {
            let tag = if i % 2 == 0 { "even" } else { "odd" };
            b = b.row(vec![
                Value::Int(*z),
                Value::Float((i as f64 + 1.0) * 10.0),
                Value::Str(tag.into()),
            ]);
        }
        b.build().unwrap()
    }

    fn check_correctness(result: &GroupByResult) {
        // Groups appear in first-occurrence order: z=1, z=2, z=3.
        assert_eq!(result.output.len(), 3);
        assert_eq!(result.output.column(0).as_int(), &[1, 2, 3]);
        // COUNT per group.
        assert_eq!(
            result.output.column_by_name("cnt").unwrap().as_int(),
            &[3, 2, 1]
        );
        // SUM(v) per group: z=1 -> 10+30+60, z=2 -> 20+50, z=3 -> 40.
        assert_eq!(
            result.output.column_by_name("sum_v").unwrap().as_float(),
            &[100.0, 70.0, 40.0]
        );
    }

    #[test]
    fn baseline_matches_expected_output() {
        let r = rel();
        let result = group_by(
            &r,
            &["z".to_string()],
            &microbenchmark_aggs("v"),
            &GroupByOptions::baseline(),
        )
        .unwrap();
        check_correctness(&result);
        assert!(result.lineage.is_none());
    }

    #[test]
    fn inject_captures_backward_and_forward() {
        let r = rel();
        let result = group_by(
            &r,
            &["z".to_string()],
            &microbenchmark_aggs("v"),
            &GroupByOptions::inject(),
        )
        .unwrap();
        check_correctness(&result);
        let lin = result.lineage.input(0);
        assert_eq!(lin.backward().lookup(0), vec![0, 2, 5]);
        assert_eq!(lin.backward().lookup(1), vec![1, 4]);
        assert_eq!(lin.backward().lookup(2), vec![3]);
        assert_eq!(lin.forward().lookup(4), vec![1]);
        assert_eq!(lin.forward().lookup(3), vec![2]);
        assert!(result.stats.edges >= 6);
    }

    #[test]
    fn defer_matches_inject() {
        let r = rel();
        let aggs = microbenchmark_aggs("v");
        let keys = ["z".to_string()];
        let inject = group_by(&r, &keys, &aggs, &GroupByOptions::inject()).unwrap();
        let defer = group_by(&r, &keys, &aggs, &GroupByOptions::defer()).unwrap();
        assert_eq!(inject.output, defer.output);
        for g in 0..3u32 {
            assert_eq!(
                inject.lineage.input(0).backward().lookup(g),
                defer.lineage.input(0).backward().lookup(g)
            );
        }
        for rid in 0..r.len() as Rid {
            assert_eq!(
                inject.lineage.input(0).forward().lookup(rid),
                defer.lineage.input(0).forward().lookup(rid)
            );
        }
        // Defer incurs zero resizes thanks to exact pre-allocation, and
        // builds its backward index directly in CSR form.
        assert_eq!(defer.lineage.input(0).resizes(), 0);
        assert!(matches!(
            defer.lineage.input(0).backward,
            Some(LineageIndex::Csr(_))
        ));
        // The flat CSR layout is strictly more compact than Inject's
        // Vec-of-RidArrays.
        assert!(
            defer.lineage.input(0).backward().heap_bytes()
                < inject.lineage.input(0).backward().heap_bytes()
        );
    }

    #[test]
    fn cardinality_hints_eliminate_resizes_for_backward_index() {
        let r = rel();
        let keys = ["z".to_string()];
        let hints = true_cardinalities(&r, &keys).unwrap();
        let tc = group_by(
            &r,
            &keys,
            &microbenchmark_aggs("v"),
            &GroupByOptions::inject_with_hints(hints),
        )
        .unwrap();
        check_correctness(&tc);
        if let Some(LineageIndex::Index(idx)) = &tc.lineage.input(0).backward {
            assert_eq!(idx.resizes(), 0);
        } else {
            panic!("expected a backward rid index");
        }
    }

    #[test]
    fn direction_pruning_skips_indexes() {
        let r = rel();
        let mut opts = GroupByOptions::inject();
        opts.directions = DirectionFilter::BackwardOnly;
        let result = group_by(&r, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap();
        assert!(result.lineage.input(0).forward.is_none());
        assert!(result.lineage.input(0).backward.is_some());

        opts.directions = DirectionFilter::ForwardOnly;
        let result = group_by(&r, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap();
        assert!(result.lineage.input(0).backward.is_none());
        assert_eq!(result.lineage.input(0).forward().lookup(5), vec![0]);
    }

    #[test]
    fn selection_pushdown_prunes_index_entries() {
        let r = rel();
        let mut opts = GroupByOptions::inject();
        opts.workload.selection_pushdown =
            Some(crate::expr::Expr::col("tag").eq(crate::expr::Expr::lit("even")));
        let result = group_by(&r, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap();
        // The query result is unchanged...
        assert_eq!(
            result.output.column_by_name("cnt").unwrap().as_int(),
            &[3, 2, 1]
        );
        // ...but the backward index only holds rows with tag = "even" (rids 0,2,4).
        assert_eq!(result.lineage.input(0).backward().lookup(0), vec![0, 2]);
        assert_eq!(result.lineage.input(0).backward().lookup(1), vec![4]);
        assert_eq!(
            result.lineage.input(0).backward().lookup(2),
            Vec::<Rid>::new()
        );
    }

    #[test]
    fn data_skipping_partitions_rid_arrays() {
        let r = rel();
        let mut opts = GroupByOptions::inject();
        opts.workload.skipping_partition_by = vec!["tag".to_string()];
        let result = group_by(&r, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap();
        let part = result.artifacts.partitioned.as_ref().unwrap();
        assert_eq!(part.partition(0, "even"), &[0, 2]);
        assert_eq!(part.partition(0, "odd"), &[5]);
        assert_eq!(part.partition(1, "odd"), &[1]);
        // Union of partitions equals the plain backward entry.
        let mut all = part.all(0);
        all.sort_unstable();
        assert_eq!(all, vec![0, 2, 5]);
    }

    #[test]
    fn agg_pushdown_materializes_cube() {
        let r = rel();
        let mut opts = GroupByOptions::inject();
        opts.workload.agg_pushdown = Some(crate::instrument::AggPushdown {
            partition_by: vec!["tag".to_string()],
            aggs: vec![AggExpr::count("cnt"), AggExpr::sum("v", "sum_v")],
        });
        let result = group_by(&r, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap();
        let cube = result.artifacts.cube.as_ref().unwrap();
        let drill = cube.query(0).unwrap(); // group z=1: rids 0 (even,10), 2 (even,30), 5 (odd,60)
        assert_eq!(drill.len(), 2);
        assert_eq!(drill.value(0, 0), Value::Str("even".into()));
        assert_eq!(drill.value(0, 2), Value::Float(40.0));
        assert_eq!(drill.value(1, 0), Value::Str("odd".into()));
        assert_eq!(drill.value(1, 2), Value::Float(60.0));
    }

    #[test]
    fn grouping_by_string_and_multiple_keys() {
        let r = rel();
        let result = group_by(
            &r,
            &["tag".to_string(), "z".to_string()],
            &[AggExpr::count("cnt")],
            &GroupByOptions::inject(),
        )
        .unwrap();
        // (even,1), (odd,2), (even,1)=dup, (odd,3), (even,2), (odd,1)
        assert_eq!(result.output.len(), 5);
        assert_eq!(result.output.schema().names(), vec!["tag", "z", "cnt"]);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let r = Relation::builder("e")
            .column("z", DataType::Int)
            .column("v", DataType::Float)
            .build()
            .unwrap();
        let result = group_by(
            &r,
            &["z".to_string()],
            &[AggExpr::sum("v", "s")],
            &GroupByOptions::inject(),
        )
        .unwrap();
        assert_eq!(result.output.len(), 0);
        assert_eq!(result.lineage.input(0).backward().len(), 0);
    }

    #[test]
    fn unknown_key_or_agg_column_errors() {
        let r = rel();
        assert!(group_by(&r, &["nope".to_string()], &[], &GroupByOptions::inject()).is_err());
        assert!(group_by(
            &r,
            &["z".to_string()],
            &[AggExpr::sum("nope", "s")],
            &GroupByOptions::inject()
        )
        .is_err());
    }

    use std::borrow::Cow;

    /// A source whose build scan reads `first` and whose every later scan
    /// reads `second`: a spilled page that changed between two reads.
    struct ChangingSource {
        first: Relation,
        second: Relation,
        scans: std::cell::Cell<usize>,
    }

    impl ChunkSource for ChangingSource {
        fn len(&self) -> usize {
            self.first.len()
        }

        fn schema(&self) -> &smoke_storage::Schema {
            self.first.schema()
        }

        fn name(&self) -> &str {
            self.first.name()
        }

        fn chunks(&self) -> impl Iterator<Item = Result<(usize, Cow<'_, Relation>)>> {
            let scan = self.scans.replace(self.scans.get() + 1);
            let chunk = if scan == 0 { &self.first } else { &self.second };
            std::iter::once(Ok((0, Cow::Borrowed(chunk))))
        }

        fn gather(&self, rids: &[Rid], name: String) -> Result<Relation> {
            Ok(self.first.gather(rids, name))
        }
    }

    fn keyed(zs: &[i64]) -> Relation {
        let mut b = Relation::builder("t")
            .column("z", DataType::Int)
            .column("tag", DataType::Str);
        for &z in zs {
            b = b.row(vec![Value::Int(z), Value::Str(format!("k{z}"))]);
        }
        b.build().unwrap()
    }

    #[test]
    fn defer_pass_reports_a_key_the_build_pass_never_saw() {
        // `2` is unseen inside the dense domain [1, 3], `9` outside it; the
        // `tag` key takes the hashed string table.
        for (changed, key) in [(2, "z"), (9, "z"), (2, "tag")] {
            let source = |second: &[i64]| ChangingSource {
                first: keyed(&[1, 3, 1, 3]),
                second: keyed(second),
                scans: std::cell::Cell::new(0),
            };
            let keys = [key.to_string()];
            let aggs = [AggExpr::count("cnt")];
            let err = group_by_over(
                &source(&[1, 3, changed, 3]),
                &keys,
                &aggs,
                &GroupByOptions::defer(),
            )
            .unwrap_err();
            assert!(
                matches!(err, EngineError::Storage(StorageError::Pager(_))),
                "{key}={changed}: {err}"
            );
            // Inject scans once, and an unchanged re-read defers cleanly.
            for (second, opts) in [
                (vec![1, 3, changed, 3], GroupByOptions::inject()),
                (vec![1, 3, 1, 3], GroupByOptions::defer()),
            ] {
                let out = group_by_over(&source(&second), &keys, &aggs, &opts).unwrap();
                assert_eq!(out.lineage.input(0).backward().lookup(0), vec![0, 2]);
            }
        }
    }
}
