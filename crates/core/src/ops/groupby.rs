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
use smoke_storage::{Column, DataType, Relation, Rid, Value};

use crate::agg::{AggExpr, AggFunc, AggState};
use crate::error::{EngineError, Result};
use crate::instrument::{CaptureMode, CardinalityHints, DirectionFilter, WorkloadOptions};
use crate::key::{HashKey, KeyExtractor, KeyPart};
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
    count: u32,
    /// Rows that passed the selection push-down (== `count` without one);
    /// the exact backward cardinality the Defer pass allocates with.
    lineage_count: u32,
}

/// Sentinel in the dense group-id table for "no group assigned yet".
const NO_GROUP: u32 = u32::MAX;

/// The result of probing a [`KeyMode`] for one row: either the row's group
/// already exists, or a new group must be created for the returned key.
enum Probe {
    Hit(u32),
    Miss(HashKey),
}

/// Vectorized group-key lookup, specialised by the typed shape of the key
/// columns (paper §3.2.3's `γht`, hardware-conscious edition).
///
/// Single integer keys with a bounded domain use a dense gid table (one
/// array index per row instead of a hash); wide integer domains and integer
/// pairs hash the primitive key directly (no per-row [`HashKey`]
/// construction, no allocation for composite keys); a single string key
/// hashes the `&str` borrowed from the column (no per-row `String` clone, in
/// the build phase or the Defer re-probe); everything else falls back to the
/// generic [`HashKey`] path. The choice mirrors `hash_join`'s typed key
/// paths.
enum KeyMode<'a> {
    DenseInt {
        keys: &'a [i64],
        min: i64,
        table: Vec<u32>,
    },
    HashInt {
        keys: &'a [i64],
        ht: HashMap<i64, u32>,
    },
    HashPair {
        keys: Vec<(i64, i64)>,
        ht: HashMap<(i64, i64), u32>,
    },
    HashStr {
        keys: &'a [String],
        ht: HashMap<&'a str, u32>,
    },
    Generic {
        ht: HashMap<HashKey, u32>,
    },
}

impl<'a> KeyMode<'a> {
    fn new(extractor: &KeyExtractor<'a>, n: usize) -> KeyMode<'a> {
        if let Some(keys) = smoke_storage::kernels::int_keys(extractor.columns()) {
            if let Some((min, max)) = smoke_storage::kernels::int_min_max(keys) {
                let width = max as i128 - min as i128 + 1;
                // The dense table pays 4 bytes per domain slot; cap it at a
                // small multiple of the input so sparse domains hash instead.
                if width <= 4 * n.max(256) as i128 {
                    return KeyMode::DenseInt {
                        keys,
                        min,
                        table: vec![NO_GROUP; width as usize],
                    };
                }
            }
            return KeyMode::HashInt {
                keys,
                ht: HashMap::new(),
            };
        }
        if let Some(keys) = smoke_storage::kernels::int_key_pairs(extractor.columns()) {
            return KeyMode::HashPair {
                keys,
                ht: HashMap::new(),
            };
        }
        if let Some(keys) = smoke_storage::kernels::str_keys(extractor.columns()) {
            return KeyMode::HashStr {
                keys,
                ht: HashMap::new(),
            };
        }
        KeyMode::Generic { ht: HashMap::new() }
    }

    /// Looks up the group of `rid`, or reports the key a new group needs.
    #[inline]
    fn probe(&self, rid: usize, extractor: &KeyExtractor) -> Probe {
        match self {
            KeyMode::DenseInt { keys, min, table } => match table[(keys[rid] - min) as usize] {
                NO_GROUP => Probe::Miss(HashKey::Int(keys[rid])),
                gid => Probe::Hit(gid),
            },
            KeyMode::HashInt { keys, ht } => match ht.get(&keys[rid]) {
                Some(&gid) => Probe::Hit(gid),
                None => Probe::Miss(HashKey::Int(keys[rid])),
            },
            KeyMode::HashPair { keys, ht } => match ht.get(&keys[rid]) {
                Some(&gid) => Probe::Hit(gid),
                None => {
                    let (a, b) = keys[rid];
                    Probe::Miss(HashKey::Composite(vec![KeyPart::Int(a), KeyPart::Int(b)]))
                }
            },
            KeyMode::HashStr { keys, ht } => match ht.get(keys[rid].as_str()) {
                Some(&gid) => Probe::Hit(gid),
                None => Probe::Miss(HashKey::Str(keys[rid].clone())),
            },
            KeyMode::Generic { ht } => {
                let key = extractor.key(rid);
                match ht.get(&key) {
                    Some(&gid) => Probe::Hit(gid),
                    None => Probe::Miss(key),
                }
            }
        }
    }

    /// Registers a freshly created group for `rid` (the second half of a
    /// [`Probe::Miss`]; only runs once per distinct group).
    fn record(&mut self, rid: usize, key: HashKey, gid: u32) {
        match self {
            KeyMode::DenseInt { keys, min, table } => {
                table[(keys[rid] - *min) as usize] = gid;
            }
            KeyMode::HashInt { keys, ht } => {
                ht.insert(keys[rid], gid);
            }
            KeyMode::HashPair { keys, ht } => {
                ht.insert(keys[rid], gid);
            }
            KeyMode::HashStr { keys, ht } => {
                ht.insert(keys[rid].as_str(), gid);
            }
            KeyMode::Generic { ht } => {
                ht.insert(key, gid);
            }
        }
    }

    /// The (existing) group of `rid`, used by the Defer re-probe pass.
    #[inline]
    fn lookup(&self, rid: usize, extractor: &KeyExtractor) -> u32 {
        match self.probe(rid, extractor) {
            Probe::Hit(gid) => gid,
            Probe::Miss(_) => unreachable!("defer pass re-probes only known keys"),
        }
    }
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

/// Executes `SELECT keys, aggs FROM input GROUP BY keys` with the configured
/// instrumentation.
pub fn group_by(
    input: &Relation,
    keys: &[String],
    aggs: &[AggExpr],
    opts: &GroupByOptions,
) -> Result<GroupByResult> {
    let start = Instant::now();
    let n = input.len();
    let extractor = KeyExtractor::new(input, keys)?;
    let agg_inputs = AggInputs::resolve(input, aggs)?;

    let capture = opts.mode.captures();
    let capture_b = capture && opts.directions.backward();
    let capture_f = capture && opts.directions.forward();
    // For group-by there are only two paradigms; DeferForward degenerates to
    // Inject (it is join-specific).
    let inject = matches!(opts.mode, CaptureMode::Inject | CaptureMode::DeferForward);

    // Workload-aware set-up. The push-down predicate is evaluated once for
    // the whole input through the kernel layer (falling back to the
    // interpreter for arbitrary shapes); the capture loop then tests a bit
    // per row instead of re-interpreting the expression. Uninstrumented runs
    // never read the mask, so they only bind (validating the expression)
    // without paying for the scan.
    let wl = &opts.workload;
    let pushdown_mask = match &wl.selection_pushdown {
        Some(expr) if capture => Some(crate::kernels::predicate_mask(input, expr)?),
        Some(expr) => {
            expr.bind(input)?;
            None
        }
        None => None,
    };
    let skip_extractor = if capture && !wl.skipping_partition_by.is_empty() {
        Some(KeyExtractor::new(input, &wl.skipping_partition_by)?)
    } else {
        None
    };
    let cube_setup = match (&wl.agg_pushdown, capture) {
        (Some(pd), true) => {
            let ex = KeyExtractor::new(input, &pd.partition_by)?;
            let cols = AggInputs::resolve(input, &pd.aggs)?;
            Some((pd, ex, cols))
        }
        _ => None,
    };

    // γht: build phase. The group-id lookup runs over typed key vectors
    // extracted once (dense table / primitive-key hash for integer keys,
    // borrowed `&str` hash for a string key), falling back to per-row
    // `HashKey` construction for other shapes.
    let mut key_mode = KeyMode::new(&extractor, n);
    let mut groups: Vec<GroupEntry> = Vec::new();
    let mut forward = if capture_f && inject {
        RidArray::filled(n)
    } else {
        RidArray::new()
    };
    let mut partitioned = skip_extractor
        .as_ref()
        .map(|_| PartitionedRidIndex::new(wl.skipping_partition_by.join(",")));
    let mut cube = cube_setup
        .as_ref()
        .map(|(pd, _, _)| LineageCube::new(0, pd.partition_by.clone(), pd.aggs.clone()));

    for rid in 0..n {
        let gid = match key_mode.probe(rid, &extractor) {
            Probe::Hit(gid) => gid,
            Probe::Miss(key) => {
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
                    count: 0,
                    lineage_count: 0,
                });
                key_mode.record(rid, key, gid);
                gid
            }
        };
        let entry = &mut groups[gid as usize];
        agg_inputs.update(&mut entry.states, aggs, rid);
        entry.count += 1;

        if capture {
            // Selection push-down: only rows satisfying the future consuming
            // query's predicate enter the lineage indexes.
            let include = pushdown_mask.as_ref().is_none_or(|m| m.get(rid));
            if include {
                entry.lineage_count += 1;
                if capture_b && inject {
                    entry.i_rids.push(rid as Rid);
                }
                if capture_f && inject {
                    forward.set(rid, gid);
                }
                if let Some(part) = partitioned.as_mut() {
                    let key = skip_extractor.as_ref().unwrap().key(rid);
                    part.append(gid as usize, &render_partition_key(&key), rid as Rid);
                }
                if let Some((pd, ex, cols)) = cube_setup.as_ref() {
                    let pkey = ex.key(rid);
                    let key_values = pkey.to_values();
                    let mut inputs = Vec::with_capacity(pd.aggs.len());
                    let mut distinct = Vec::with_capacity(pd.aggs.len());
                    for (i, agg) in pd.aggs.iter().enumerate() {
                        match (&agg.func, cols.columns[i]) {
                            (AggFunc::CountDistinct, Some(col)) => {
                                inputs.push(0.0);
                                distinct.push(Some(col.value(rid).group_key()));
                            }
                            (_, Some(col)) => {
                                inputs.push(col.numeric(rid).unwrap_or(0.0));
                                distinct.push(None);
                            }
                            (_, None) => {
                                inputs.push(0.0);
                                distinct.push(None);
                            }
                        }
                    }
                    cube.as_mut().unwrap().update(
                        gid as usize,
                        &render_partition_key(&pkey),
                        &key_values,
                        &inputs,
                        &distinct,
                    );
                }
            }
        }
    }

    // γagg: scan phase — finalize aggregates and emit output records.
    let mut key_cols: Vec<Column> = keys
        .iter()
        .map(|name| {
            let idx = input.column_index(name).expect("validated by extractor");
            Column::with_capacity(input.schema().field(idx).data_type, groups.len())
        })
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

    let mut builder = Relation::builder(format!("groupby({})", input.name()));
    for name in keys {
        let idx = input.column_index(name)?;
        builder = builder.column(name.clone(), input.schema().field(idx).data_type);
    }
    for agg in aggs {
        builder = builder.column(agg.alias.clone(), agg.output_type());
    }
    let schema = builder.build()?.schema().clone();
    let mut columns = key_cols;
    columns.append(&mut agg_cols);
    let output = Relation::from_columns(format!("groupby({})", input.name()), schema, columns)?;
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

    // Defer pass: re-probe the pinned hash table. Per-group cardinalities
    // are exact by now, so the backward index is built directly in CSR form —
    // two flat buffers allocated once, zero resizes, no per-group arrays.
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
        for rid in 0..n {
            let include = pushdown_mask.as_ref().is_none_or(|m| m.get(rid));
            if !include {
                continue;
            }
            let gid = key_mode.lookup(rid, &extractor);
            if let Some(b) = deferred_backward.as_mut() {
                b.append(gid as usize, rid as Rid);
            }
            if capture_f {
                forward.set(rid, gid);
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
}
