//! Hash equi-joins with lineage capture (paper §3.2.4).
//!
//! A hash join is split into a build phase (`⋈ht`, hash table on the left
//! relation) and a probe phase (`⋈probe`, scan of the right relation). The
//! backward lineage of every output record is exactly one rid per side (rid
//! arrays); the forward lineage is 1-to-N (rid indexes), because an input
//! record can participate in many join results.
//!
//! * **Inject** augments each hash-table entry with the left rids for that
//!   join key (`i_rids`) and populates all four indexes during the probe.
//!   Forward indexes for the left side can trigger many reallocations when a
//!   key has many matches.
//! * **Defer** additionally stores, per hash entry, the rid of the *first*
//!   output record of every match (`o_rids`); since matched outputs are
//!   emitted contiguously, the left-side indexes can be exactly allocated and
//!   populated in a final hash-table scan after the probe.
//! * **DeferForward** defers only the left forward index.
//! * **pk-fk joins**: when the build side is unique, `i_rids` degenerates to a
//!   single rid, the output cardinality is bounded by the probe side's, and
//!   the right-side forward index is a plain rid array — backward indexes are
//!   pre-allocated and Inject/Defer coincide.

use std::time::Instant;

use smoke_lineage::{
    CaptureStats, CsrBuilder, CsrRidIndex, InputLineage, LineageIndex, OperatorLineage, RidArray,
    RidIndex,
};
use smoke_storage::{Relation, Rid, Schema};

use crate::error::Result;
use crate::instrument::{CaptureMode, CardinalityHints, DirectionFilter};
use crate::key::{KeyTable, KeyView};
use crate::ops::source::ChunkSource;

/// Options controlling join instrumentation.
#[derive(Debug, Clone)]
pub struct JoinOptions {
    /// Instrumentation paradigm.
    pub mode: CaptureMode,
    /// Lineage directions to capture for the left (build) relation.
    pub left_directions: DirectionFilter,
    /// Lineage directions to capture for the right (probe) relation.
    pub right_directions: DirectionFilter,
    /// Optional per-key match-count statistics (`Smoke-I+TC`).
    pub hints: Option<CardinalityHints>,
    /// Whether to materialize the join output relation. The M:N stress
    /// benchmarks disable materialization (the paper does the same) so that
    /// capture overhead is not drowned by result construction.
    pub materialize_output: bool,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            mode: CaptureMode::Inject,
            left_directions: DirectionFilter::Both,
            right_directions: DirectionFilter::Both,
            hints: None,
            materialize_output: true,
        }
    }
}

impl JoinOptions {
    /// Baseline: no capture.
    pub fn baseline() -> Self {
        JoinOptions {
            mode: CaptureMode::Baseline,
            ..Default::default()
        }
    }

    /// `Smoke-I`.
    pub fn inject() -> Self {
        JoinOptions::default()
    }

    /// `Smoke-D`.
    pub fn defer() -> Self {
        JoinOptions {
            mode: CaptureMode::Defer,
            ..Default::default()
        }
    }

    /// `Smoke-D-DeferForw`: defer only the left forward index.
    pub fn defer_forward() -> Self {
        JoinOptions {
            mode: CaptureMode::DeferForward,
            ..Default::default()
        }
    }

    /// Disables output materialization (used by the M:N stress benchmarks).
    pub fn without_output(mut self) -> Self {
        self.materialize_output = false;
        self
    }

    /// Attaches per-key match-count hints (`Smoke-I+TC`).
    pub fn with_hints(mut self, hints: CardinalityHints) -> Self {
        self.hints = Some(hints);
        self
    }
}

/// The result of an instrumented hash join.
#[derive(Debug, Clone)]
pub struct JoinResult {
    /// Join output (empty relation with the joined schema when output
    /// materialization is disabled).
    pub output: Relation,
    /// Lineage: input 0 is the left (build) relation, input 1 the right
    /// (probe) relation.
    pub lineage: OperatorLineage,
    /// Number of join result rows (even when not materialized).
    pub output_rows: usize,
    /// Whether the build side turned out to be unique (pk-fk join).
    pub pk_fk: bool,
    /// How many grace-hash partitions the join spilled into; `1` means the
    /// build side fit the budget and the join ran fully resident.
    pub grace_partitions: usize,
    /// Capture statistics.
    pub stats: CaptureStats,
}

/// Executes `left ⋈ right ON left_keys = right_keys` with the configured
/// instrumentation.
///
/// The build and probe phases are keyed by typed key views when the join
/// columns allow it — plain `i64` keys, borrowed `&str` keys (no per-probe
/// `String` clone), or `(i64, i64)` pairs — and fall back to generic
/// [`HashKey`](crate::key::HashKey)s otherwise. Lineage capture is emitted
/// inside the probe loop in every variant, so Inject stays fused with the
/// base join.
pub fn hash_join(
    left: &Relation,
    right: &Relation,
    left_keys: &[String],
    right_keys: &[String],
    opts: &JoinOptions,
) -> Result<JoinResult> {
    hash_join_over(left, right, left_keys, right_keys, opts)
}

/// The hash-join body over any pair of [`ChunkSource`]s. The build table
/// (owned keys mapped to per-key build rids) and the lineage indexes
/// persist across chunks, so the result is the same rid for rid whether
/// either input is one resident chunk or a stream of paged ones.
pub(crate) fn hash_join_over(
    left: &impl ChunkSource,
    right: &impl ChunkSource,
    left_keys: &[String],
    right_keys: &[String],
    opts: &JoinOptions,
) -> Result<JoinResult> {
    let start = Instant::now();
    // Resolving both key views against zero-row probes checks the key
    // columns before the scan, and shapes the build table.
    let mut table = KeyTable::new(&KeyView::new(&left.probe(), left_keys)?, false);
    KeyView::new(&right.probe(), right_keys)?;

    let capture = opts.mode.captures();
    let cap_a_b = capture && opts.left_directions.backward();
    let cap_a_f = capture && opts.left_directions.forward();
    let cap_b_b = capture && opts.right_directions.backward();
    let cap_b_f = capture && opts.right_directions.forward();
    let defer_left = capture && opts.mode == CaptureMode::Defer;
    let defer_forward = capture && opts.mode == CaptureMode::DeferForward;
    let defer = defer_left || defer_forward;
    let hints = opts.hints.as_ref().filter(|_| cap_a_f && !defer);

    // ⋈ht: build phase over the left input. The table maps every distinct
    // key to an id; `build[id]` holds the key's left rids. Keeping the
    // per-key state this small keeps the probe's working set in cache.
    let mut build: Vec<Vec<Rid>> = Vec::new();
    let mut hinted: Vec<(usize, usize)> = Vec::new();
    let mut pk_fk = true;
    for item in left.chunks() {
        let (first, chunk) = item?;
        let chunk: &Relation = &chunk;
        let keys = KeyView::new(chunk, left_keys)?;
        for local in 0..chunk.len() {
            let rid = (first + local) as Rid;
            if let Some(id) = table.get(&keys, local) {
                build[id as usize].push(rid);
                pk_fk = false;
                continue;
            }
            if let Some(cap) = hints.and_then(|h| h.cardinality(&keys.key(local))) {
                hinted.push((build.len(), cap));
            }
            table.insert(&keys, local, build.len() as u32);
            build.push(vec![rid]);
        }
    }
    // Defer modes record, per build key, the first output rid of every
    // probe match.
    let mut o_rids: Vec<Vec<Rid>> = vec![Vec::new(); if defer { build.len() } else { 0 }];

    // When the build side is a primary key the output cardinality is bounded
    // by the probe side cardinality, so backward arrays can be pre-allocated.
    let prealloc = if pk_fk { right.len() } else { 0 };
    let mut out_left: Vec<Rid> = Vec::with_capacity(prealloc);
    let mut out_right: Vec<Rid> = Vec::with_capacity(prealloc);

    // Left forward index assembled as per-left-rid arrays so that hint-based
    // pre-allocation preserves its resize accounting. Defer modes skip this
    // entirely: they build the index in CSR form after the probe, when every
    // per-entry cardinality is known exactly.
    let mut a_fw: Vec<RidArray> = if cap_a_f && !defer {
        let mut arrays: Vec<RidArray> = vec![RidArray::new(); left.len()];
        for &(id, cap) in &hinted {
            for &l in &build[id] {
                arrays[l as usize] = RidArray::with_capacity(cap);
            }
        }
        arrays
    } else {
        Vec::new()
    };
    let mut b_fw_index = RidIndex::with_len(if cap_b_f && !pk_fk { right.len() } else { 0 });
    let mut b_fw_array = if cap_b_f && pk_fk {
        RidArray::filled(right.len())
    } else {
        RidArray::new()
    };

    // ⋈probe: probe phase over the right input.
    let mut out_counter: usize = 0;
    for item in right.chunks() {
        let (first, chunk) = item?;
        let chunk: &Relation = &chunk;
        let keys = KeyView::new(chunk, right_keys)?;
        for local in 0..chunk.len() {
            let Some(id) = table.get(&keys, local) else {
                continue;
            };
            let rid = first + local;
            if defer {
                o_rids[id as usize].push(out_counter as Rid);
            }
            let rids = &build[id as usize];
            for (j, &l) in rids.iter().enumerate() {
                let o = (out_counter + j) as Rid;
                if opts.materialize_output || (cap_a_b && !defer_left) {
                    out_left.push(l);
                }
                if opts.materialize_output || cap_b_b {
                    out_right.push(rid as Rid);
                }
                if cap_a_f && !defer {
                    a_fw[l as usize].push(o);
                }
                if cap_b_f {
                    if pk_fk {
                        b_fw_array.set(rid, o);
                    } else {
                        b_fw_index.append(rid, o);
                    }
                }
            }
            out_counter += rids.len();
        }
    }
    let base_query = start.elapsed();

    // Deferred construction of the left-side indexes. It touches only the
    // in-RAM build state, never the inputs. The forward index is built
    // directly in CSR form: per-left-rid cardinalities are exact after the
    // probe, so both flat buffers are allocated once and never resized.
    let defer_start = Instant::now();
    let mut a_bw_deferred: Option<RidArray> = None;
    let mut a_fw_deferred: Option<CsrRidIndex> = None;
    if defer {
        if defer_left && cap_a_b {
            a_bw_deferred = Some(RidArray::filled(out_counter));
        }
        if cap_a_f {
            let mut counts = vec![0usize; left.len()];
            for (rids, starts) in build.iter().zip(&o_rids) {
                for &l in rids {
                    counts[l as usize] = starts.len();
                }
            }
            let mut builder = CsrBuilder::with_counts(counts);
            for (rids, starts) in build.iter().zip(&o_rids) {
                for (j, &l) in rids.iter().enumerate() {
                    for &start_o in starts {
                        let o = start_o + j as Rid;
                        builder.append(l as usize, o);
                        if let Some(bw) = a_bw_deferred.as_mut() {
                            bw.set(o as usize, l);
                        }
                    }
                }
            }
            a_fw_deferred = Some(builder.finish());
        } else if let Some(bw) = a_bw_deferred.as_mut() {
            for (rids, starts) in build.iter().zip(&o_rids) {
                for (j, &l) in rids.iter().enumerate() {
                    for &start_o in starts {
                        bw.set((start_o + j as Rid) as usize, l);
                    }
                }
            }
        }
    }
    let deferred = if defer {
        defer_start.elapsed()
    } else {
        std::time::Duration::ZERO
    };

    // Output materialization.
    let joined_schema: Schema = left.schema().concat(right.schema(), right.name());
    let output_name = format!("join({},{})", left.name(), right.name());
    let output = if opts.materialize_output {
        let mut columns = left.gather(&out_left, "l".into())?.into_columns();
        columns.append(&mut right.gather(&out_right, "r".into())?.into_columns());
        Relation::from_columns(output_name, joined_schema, columns)?
    } else {
        Relation::empty(output_name, joined_schema)
    };

    if !capture {
        return Ok(JoinResult {
            output,
            lineage: OperatorLineage::none(),
            output_rows: out_counter,
            pk_fk,
            grace_partitions: 1,
            stats: CaptureStats {
                base_query,
                ..Default::default()
            },
        });
    }

    // Assemble lineage indexes.
    let a_backward = if cap_a_b {
        Some(LineageIndex::Array(match a_bw_deferred {
            Some(bw) => bw,
            None => RidArray::from_vec(out_left.clone()),
        }))
    } else {
        None
    };
    let a_forward = if cap_a_f {
        Some(match a_fw_deferred {
            Some(csr) => LineageIndex::Csr(csr),
            None => LineageIndex::Index(RidIndex::from_arrays(a_fw)),
        })
    } else {
        None
    };
    let b_backward = cap_b_b.then(|| LineageIndex::Array(RidArray::from_vec(out_right.clone())));
    let b_forward = if cap_b_f {
        Some(if pk_fk {
            LineageIndex::Array(b_fw_array)
        } else {
            LineageIndex::Index(b_fw_index)
        })
    } else {
        None
    };

    let mut stats = CaptureStats {
        base_query,
        deferred,
        ..Default::default()
    };
    for idx in [&a_backward, &a_forward, &b_backward, &b_forward]
        .into_iter()
        .flatten()
    {
        stats.edges += idx.edge_count() as u64;
        stats.rid_resizes += idx.resizes();
        stats.lineage_bytes += idx.heap_bytes() as u64;
    }

    Ok(JoinResult {
        output,
        lineage: OperatorLineage::binary(
            InputLineage {
                backward: a_backward,
                forward: a_forward,
            },
            InputLineage {
                backward: b_backward,
                forward: b_forward,
            },
        ),
        output_rows: out_counter,
        pk_fk,
        grace_partitions: 1,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_storage::{DataType, Value};

    fn gids() -> Relation {
        let mut b = Relation::builder("gids")
            .column("id", DataType::Int)
            .column("label", DataType::Str);
        for i in 0..3 {
            b = b.row(vec![Value::Int(i), Value::Str(format!("g{i}"))]);
        }
        b.build().unwrap()
    }

    fn zipf() -> Relation {
        // z: 0,1,0,2,1,0  => fk references gids.id
        let mut b = Relation::builder("zipf")
            .column("z", DataType::Int)
            .column("v", DataType::Float);
        for (i, z) in [0, 1, 0, 2, 1, 0].iter().enumerate() {
            b = b.row(vec![Value::Int(*z), Value::Float(i as f64)]);
        }
        b.build().unwrap()
    }

    fn mn_left() -> Relation {
        let mut b = Relation::builder("A").column("z", DataType::Int);
        for z in [1, 1, 2] {
            b = b.row(vec![Value::Int(z)]);
        }
        b.build().unwrap()
    }

    fn mn_right() -> Relation {
        let mut b = Relation::builder("B").column("z", DataType::Int);
        for z in [1, 2, 1, 3] {
            b = b.row(vec![Value::Int(z)]);
        }
        b.build().unwrap()
    }

    fn run(opts: &JoinOptions) -> JoinResult {
        hash_join(
            &gids(),
            &zipf(),
            &["id".to_string()],
            &["z".to_string()],
            opts,
        )
        .unwrap()
    }

    #[test]
    fn pkfk_join_output_and_detection() {
        let result = run(&JoinOptions::baseline());
        assert!(result.pk_fk);
        assert_eq!(result.output_rows, 6);
        assert_eq!(result.output.len(), 6);
        assert_eq!(
            result.output.schema().names(),
            vec!["id", "label", "z", "v"]
        );
        assert!(result.lineage.is_none());
    }

    #[test]
    fn pkfk_inject_lineage_round_trips() {
        let result = run(&JoinOptions::inject());
        let left_lin = result.lineage.input(0);
        let right_lin = result.lineage.input(1);
        // Output row 0 comes from right rid 0 (z=0) and left rid 0.
        assert_eq!(left_lin.backward().lookup(0), vec![0]);
        assert_eq!(right_lin.backward().lookup(0), vec![0]);
        // Left rid 0 (id=0) matched right rids 0, 2, 5 -> three outputs.
        assert_eq!(left_lin.forward().lookup(0).len(), 3);
        // Right rid 3 (z=2) produced exactly one output; backward of that
        // output is left rid 2.
        let outs = right_lin.forward().lookup(3);
        assert_eq!(outs.len(), 1);
        assert_eq!(left_lin.backward().lookup(outs[0]), vec![2]);
        // Every output's backward pair is consistent with the joined values.
        for o in 0..result.output_rows as Rid {
            let l = left_lin.backward().single(o).unwrap();
            let r = right_lin.backward().single(o).unwrap();
            assert_eq!(
                gids().value(l as usize, 0),
                zipf().value(r as usize, 0),
                "join key mismatch for output {o}"
            );
        }
    }

    #[test]
    fn defer_matches_inject_for_pkfk_and_mn() {
        // pk-fk join.
        let inject = run(&JoinOptions::inject());
        let defer = run(&JoinOptions::defer());
        assert_eq!(inject.output, defer.output);
        for o in 0..inject.output_rows as Rid {
            assert_eq!(
                inject.lineage.input(0).backward().lookup(o),
                defer.lineage.input(0).backward().lookup(o)
            );
        }
        for l in 0..3 as Rid {
            let mut a = inject.lineage.input(0).forward().lookup(l);
            let mut b = defer.lineage.input(0).forward().lookup(l);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }

        // M:N join.
        let opts_i = JoinOptions::inject();
        let opts_d = JoinOptions::defer();
        let opts_df = JoinOptions::defer_forward();
        let i = hash_join(
            &mn_left(),
            &mn_right(),
            &["z".into()],
            &["z".into()],
            &opts_i,
        )
        .unwrap();
        let d = hash_join(
            &mn_left(),
            &mn_right(),
            &["z".into()],
            &["z".into()],
            &opts_d,
        )
        .unwrap();
        let df = hash_join(
            &mn_left(),
            &mn_right(),
            &["z".into()],
            &["z".into()],
            &opts_df,
        )
        .unwrap();
        assert!(!i.pk_fk);
        assert_eq!(i.output_rows, 5); // z=1: 2x2 matches, z=2: 1x1
                                      // Defer modes build the left forward index directly in CSR form.
        for result in [&d, &df] {
            assert!(matches!(
                result.lineage.input(0).forward,
                Some(LineageIndex::Csr(_))
            ));
        }
        for result in [&d, &df] {
            assert_eq!(result.output, i.output);
            for o in 0..i.output_rows as Rid {
                assert_eq!(
                    result.lineage.input(0).backward().lookup(o),
                    i.lineage.input(0).backward().lookup(o)
                );
                assert_eq!(
                    result.lineage.input(1).backward().lookup(o),
                    i.lineage.input(1).backward().lookup(o)
                );
            }
            for l in 0..3 as Rid {
                let mut a = result.lineage.input(0).forward().lookup(l);
                let mut b = i.lineage.input(0).forward().lookup(l);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn forward_backward_inverse_property() {
        let opts = JoinOptions::inject();
        let r = hash_join(&mn_left(), &mn_right(), &["z".into()], &["z".into()], &opts).unwrap();
        for o in 0..r.output_rows as Rid {
            let l = r.lineage.input(0).backward().single(o).unwrap();
            assert!(r.lineage.input(0).forward().lookup(l).contains(&o));
            let rr = r.lineage.input(1).backward().single(o).unwrap();
            assert!(r.lineage.input(1).forward().lookup(rr).contains(&o));
        }
    }

    #[test]
    fn unmaterialized_join_still_counts_and_captures() {
        let opts = JoinOptions::inject().without_output();
        let r = hash_join(&mn_left(), &mn_right(), &["z".into()], &["z".into()], &opts).unwrap();
        assert_eq!(r.output.len(), 0);
        assert_eq!(r.output_rows, 5);
        assert_eq!(r.lineage.input(0).backward().len(), 5);
    }

    #[test]
    fn hints_preallocate_left_forward_index() {
        // Match counts per key: id=0 -> 3, id=1 -> 2, id=2 -> 1.
        let mut per_key = std::collections::HashMap::new();
        per_key.insert(crate::key::HashKey::Int(0), 3usize);
        per_key.insert(crate::key::HashKey::Int(1), 2usize);
        per_key.insert(crate::key::HashKey::Int(2), 1usize);
        let opts = JoinOptions::inject().with_hints(CardinalityHints::with_per_key(per_key));
        let hinted = run(&opts);
        let plain = run(&JoinOptions::inject());
        assert_eq!(hinted.output, plain.output);
        if let Some(LineageIndex::Index(idx)) = &hinted.lineage.input(0).forward {
            assert_eq!(idx.resizes(), 0);
        } else {
            panic!("expected rid-index forward lineage");
        }
    }

    #[test]
    fn pruning_directions_per_side() {
        let opts = JoinOptions {
            left_directions: DirectionFilter::BackwardOnly,
            right_directions: DirectionFilter::None,
            ..JoinOptions::inject()
        };
        let r = run(&opts);
        assert!(r.lineage.input(0).backward.is_some());
        assert!(r.lineage.input(0).forward.is_none());
        assert!(r.lineage.input(1).backward.is_none());
        assert!(r.lineage.input(1).forward.is_none());
    }

    #[test]
    fn join_with_no_matches() {
        let mut b = Relation::builder("empty_keys").column("z", DataType::Int);
        b = b.row(vec![Value::Int(99)]);
        let right = b.build().unwrap();
        let r = hash_join(
            &gids(),
            &right,
            &["id".to_string()],
            &["z".to_string()],
            &JoinOptions::inject(),
        )
        .unwrap();
        assert_eq!(r.output_rows, 0);
        assert_eq!(r.output.len(), 0);
        assert_eq!(r.lineage.input(0).forward().lookup(0), Vec::<Rid>::new());
    }
}
