//! Grace-hash spilling join over [`PagedRelation`]s.
//!
//! [`super::paged_hash_join`] keeps its build hash table in RAM; when the
//! build side is far larger than the buffer-pool budget that table *is* the
//! memory blow-up the budget was meant to prevent. The grace path bounds it:
//! both inputs are hash-partitioned by join key into spilled page runs, and
//! partition pairs are then joined one at a time, so the resident hash table
//! never holds more than roughly `build_rows / partitions` entries.
//!
//! The price of partitioning is that probe outputs are produced per
//! partition, not in global probe order. The merge phase restores the
//! resident operator's exact output order: within a partition, probe pairs
//! are emitted in ascending original right rid (partitions are written in
//! scan order), and every right rid hashes to exactly one partition, so a
//! P-way merge by right rid reconstructs the global probe sequence —
//! rid-for-rid, including the per-key build order of M:N duplicates.
//! Deferred forward lineage is captured into per-partition CSR indexes and
//! stitched with [`CsrRidIndex::merge_remapped`].
//!
//! Eligibility (checked by [`grace_plan`]): every key column on both sides
//! must be numeric — partitions spill through fixed-width
//! [`FixedRunWriter`] runs — and key names must be unique and must not
//! collide with the reserved `__grace_rid` carry column. Ineligible joins
//! fall back to the resident-build path, which remains correct for any
//! input (only its hash table outgrows the budget).

use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use smoke_lineage::{
    CaptureStats, CsrBuilder, CsrRidIndex, InputLineage, LineageIndex, OperatorLineage, RidArray,
    RidIndex,
};
use smoke_storage::{
    Column, DataType, Field, FixedRunWriter, PageId, PagedRelation, Relation, Rid, Schema,
    StorageError, PAGE_SIZE,
};

use crate::error::Result;
use crate::instrument::CaptureMode;
use crate::key::{HashKey, KeyExtractor};
use crate::ops::join::{JoinOptions, JoinResult};
use crate::ops::source::ChunkSource;

/// Rough per-row footprint of the resident build hash table (key, rid vec,
/// bucket overhead). Deliberately coarse: it only decides *when* to switch
/// to grace partitioning, never correctness.
pub const BUILD_BYTES_PER_ROW: usize = 48;

/// Upper bound on partition fan-out. Each partition costs two spilled runs
/// per key column plus a rid run; past this point partitions are small
/// enough that more fan-out only adds seeks.
pub const MAX_GRACE_PARTITIONS: usize = 64;

/// Reserved column carrying original rids through spilled partitions.
const GRACE_RID_COL: &str = "__grace_rid";

/// Decides whether [`super::paged_hash_join`] should take the grace-hash
/// path, and with how many partitions. `None` means stay resident: the
/// estimated build table fits the build side's pool budget, or the join is
/// ineligible (a `Str` key column, duplicate key names, or a key named
/// `__grace_rid` — the partition runs could not be formed).
pub(super) fn grace_plan(
    left: &PagedRelation,
    right: &PagedRelation,
    left_keys: &[String],
    right_keys: &[String],
) -> Option<usize> {
    let budget_bytes = left.pool().capacity() * PAGE_SIZE;
    let build_bytes = left.len().saturating_mul(BUILD_BYTES_PER_ROW);
    if build_bytes <= budget_bytes {
        return None;
    }
    if !keys_spillable(left.schema(), left_keys) || !keys_spillable(right.schema(), right_keys) {
        return None;
    }
    Some(
        build_bytes
            .div_ceil(budget_bytes)
            .clamp(2, MAX_GRACE_PARTITIONS),
    )
}

/// Whether `keys` name distinct numeric columns that can be spilled as
/// fixed-width partition runs alongside the reserved rid column.
fn keys_spillable(schema: &Schema, keys: &[String]) -> bool {
    if keys.is_empty() {
        return false;
    }
    keys.iter().enumerate().all(|(i, k)| {
        k != GRACE_RID_COL
            && !keys[..i].contains(k)
            && schema
                .index_of(k)
                .is_some_and(|idx| schema.field(idx).data_type != DataType::Str)
    })
}

/// The partition a key hashes to. `HashKey`'s hash is deterministic within
/// a process, so both sides agree on every key's partition.
fn partition_of(key: &HashKey, partitions: usize) -> usize {
    (key.hash64() % partitions as u64) as usize
}

/// The raw 8-byte page encoding of a numeric column value — the same
/// encoding [`PagedRelation::spill`] uses, so partition runs decode through
/// the ordinary fixed-width path.
fn raw8(col: &Column, local: usize) -> [u8; 8] {
    match col {
        Column::Int(v) => v[local].to_le_bytes(),
        Column::Float(v) => v[local].to_bits().to_le_bytes(),
        // Unreachable: `keys_spillable` rejected Str keys at plan time.
        Column::Str(_) => [0u8; 8],
    }
}

/// One side of the join, hash-partitioned into spilled page runs.
struct PartitionedSide {
    /// One relation per partition: the key columns plus `__grace_rid`.
    parts: Vec<PagedRelation>,
    /// Per-partition original rids in partition-local order (ascending).
    /// Kept only for the build side, where it doubles as the
    /// [`CsrRidIndex::merge_remapped`] rebase map.
    rid_maps: Vec<Vec<u32>>,
}

/// Streams `rel`'s key columns twice: a histogram pass sizes every
/// partition exactly, then a write pass appends each row's key values and
/// original rid to its partition's runs. Writes go directly to the segment
/// store ([`FixedRunWriter`]), so partitioning never evicts the pool's
/// working set.
fn partition_side(
    rel: &PagedRelation,
    keys: &[String],
    partitions: usize,
    chunk_rows: usize,
    side: &str,
    keep_maps: bool,
) -> Result<PartitionedSide> {
    // Both passes scan the key columns only.
    let key_cols = rel.project(keys)?;
    let source = (&key_cols, chunk_rows);

    // Pass 1: per-partition row counts.
    let mut hist = vec![0usize; partitions];
    for item in source.chunks() {
        let (_, chunk) = item?;
        let chunk: &Relation = &chunk;
        let extractor = KeyExtractor::new(chunk, keys)?;
        for local in 0..chunk.len() {
            hist[partition_of(&extractor.key(local), partitions)] += 1;
        }
    }

    // Pass 2: exact-capacity runs (one per key column plus the rid carry),
    // filled in scan order so partition-local order is ascending rid.
    let pool = rel.pool();
    let mut writers: Vec<Vec<FixedRunWriter>> = hist
        .iter()
        .map(|&rows| {
            (0..=keys.len())
                .map(|_| FixedRunWriter::new(pool, rows))
                .collect()
        })
        .collect();
    let mut rid_maps: Vec<Vec<u32>> = if keep_maps {
        hist.iter().map(|&rows| Vec::with_capacity(rows)).collect()
    } else {
        Vec::new()
    };
    for item in source.chunks() {
        let (first, chunk) = item?;
        let chunk: &Relation = &chunk;
        let extractor = KeyExtractor::new(chunk, keys)?;
        for local in 0..chunk.len() {
            let p = partition_of(&extractor.key(local), partitions);
            let runs = &mut writers[p];
            for (ci, col) in chunk.columns().iter().enumerate() {
                runs[ci].push(raw8(col, local))?;
            }
            let rid = (first + local) as u64;
            runs[keys.len()].push(rid.to_le_bytes())?;
            if keep_maps {
                rid_maps[p].push((first + local) as u32);
            }
        }
    }

    let mut fields = key_cols.schema().fields().to_vec();
    fields.push(Field::new(GRACE_RID_COL, DataType::Int));
    let mut parts = Vec::with_capacity(partitions);
    for (p, runs) in writers.into_iter().enumerate() {
        let mut firsts: Vec<PageId> = Vec::with_capacity(runs.len());
        for w in runs {
            let (first, rows) = w.finish()?;
            if rows != hist[p] {
                return Err(StorageError::Pager(format!(
                    "grace partition {p} wrote {rows} rows, histogram said {}",
                    hist[p]
                ))
                .into());
            }
            firsts.push(first);
        }
        parts.push(PagedRelation::from_fixed_runs(
            format!("grace[{side}{p}]({})", rel.name()),
            Schema::new(fields.clone())?,
            &firsts,
            hist[p],
            pool,
        )?);
    }
    Ok(PartitionedSide { parts, rid_maps })
}

/// Grace-hash join over paged relations: partition both sides by join key,
/// join partition pairs resident-at-a-time, and merge the per-partition
/// outputs back into the resident operator's probe order. Rid-for-rid
/// equivalent to [`super::paged_hash_join`]'s resident path (and so to
/// [`crate::ops::join::hash_join`]) for every capture mode, down to a
/// one-frame pool.
pub fn paged_grace_hash_join(
    left: &PagedRelation,
    right: &PagedRelation,
    left_keys: &[String],
    right_keys: &[String],
    opts: &JoinOptions,
    chunk_rows: usize,
    partitions: usize,
) -> Result<JoinResult> {
    let start = Instant::now();
    let partitions = partitions.max(2);

    let capture = opts.mode.captures();
    let cap_a_b = capture && opts.left_directions.backward();
    let cap_a_f = capture && opts.left_directions.forward();
    let cap_b_b = capture && opts.right_directions.backward();
    let cap_b_f = capture && opts.right_directions.forward();
    let defer = capture && matches!(opts.mode, CaptureMode::Defer | CaptureMode::DeferForward);

    // Surface schema errors before any partition I/O, like the resident path.
    KeyExtractor::new(&left.chunk(0, 0)?, left_keys)?;
    KeyExtractor::new(&right.chunk(0, 0)?, right_keys)?;

    // Partition both inputs into spilled runs.
    let build = partition_side(left, left_keys, partitions, chunk_rows, "l", true)?;
    let probe = partition_side(right, right_keys, partitions, chunk_rows, "r", false)?;

    // Join partition pairs, one resident hash table at a time. Partition
    // rows arrive in ascending original rid, so per-key build order and
    // per-partition probe order both match the resident operator's.
    let mut pk_fk = true;
    let mut pairs: Vec<Vec<(Rid, Rid)>> = Vec::with_capacity(partitions);
    for p in 0..partitions {
        let part = &build.parts[p];
        let mut ht: HashMap<HashKey, Vec<Rid>> = HashMap::new();
        for item in (part, chunk_rows).chunks() {
            let (_, chunk) = item?;
            let chunk: &Relation = &chunk;
            let extractor = KeyExtractor::new(chunk, left_keys)?;
            let rids = chunk.columns().last().map(|c| c.as_int()).unwrap_or(&[]);
            for (local, &rid) in rids.iter().enumerate().take(chunk.len()) {
                let entry = ht.entry(extractor.key(local)).or_default();
                entry.push(rid as Rid);
                if entry.len() > 1 {
                    pk_fk = false;
                }
            }
        }
        let mut part_pairs: Vec<(Rid, Rid)> = Vec::new();
        for item in (&probe.parts[p], chunk_rows).chunks() {
            let (_, chunk) = item?;
            let chunk: &Relation = &chunk;
            let extractor = KeyExtractor::new(chunk, right_keys)?;
            let rids = chunk.columns().last().map(|c| c.as_int()).unwrap_or(&[]);
            for (local, &rid) in rids.iter().enumerate().take(chunk.len()) {
                if let Some(matched) = ht.get(&extractor.key(local)) {
                    let r = rid as Rid;
                    part_pairs.extend(matched.iter().map(|&l| (l, r)));
                }
            }
        }
        pairs.push(part_pairs);
    }

    // Merge phase: every right rid lives in exactly one partition and each
    // partition's pairs are grouped by ascending right rid, so a P-way merge
    // by right rid replays the resident probe sequence exactly.
    let out_counter: usize = pairs.iter().map(Vec::len).sum();
    let mut out_left: Vec<Rid> = Vec::with_capacity(out_counter);
    let mut out_right: Vec<Rid> = Vec::with_capacity(out_counter);
    let mut cursors = vec![0usize; partitions];
    let mut heap: BinaryHeap<std::cmp::Reverse<(Rid, usize)>> = BinaryHeap::new();
    for (p, part_pairs) in pairs.iter().enumerate() {
        if let Some(&(_, r)) = part_pairs.first() {
            heap.push(std::cmp::Reverse((r, p)));
        }
    }
    while let Some(std::cmp::Reverse((r, p))) = heap.pop() {
        let part_pairs = &pairs[p];
        let mut c = cursors[p];
        while c < part_pairs.len() && part_pairs[c].1 == r {
            out_left.push(part_pairs[c].0);
            out_right.push(part_pairs[c].1);
            c += 1;
        }
        cursors[p] = c;
        if c < part_pairs.len() {
            heap.push(std::cmp::Reverse((part_pairs[c].1, p)));
        }
    }
    drop(pairs);
    let base_query = start.elapsed();

    // Deferred forward lineage: per-partition CSRs over partition-local
    // build rows, stitched into the global id space with `merge_remapped`.
    let defer_start = Instant::now();
    let mut a_fw_deferred: Option<CsrRidIndex> = None;
    if defer && cap_a_f {
        let mut local_of = vec![0u32; left.len()];
        let mut part_of = vec![0u8; left.len()];
        for (p, map) in build.rid_maps.iter().enumerate() {
            for (local, &global) in map.iter().enumerate() {
                local_of[global as usize] = local as u32;
                part_of[global as usize] = p as u8;
            }
        }
        let mut counts: Vec<Vec<usize>> = build
            .rid_maps
            .iter()
            .map(|m| vec![0usize; m.len()])
            .collect();
        for &l in &out_left {
            counts[part_of[l as usize] as usize][local_of[l as usize] as usize] += 1;
        }
        let mut builders: Vec<CsrBuilder> =
            counts.into_iter().map(CsrBuilder::with_counts).collect();
        for (o, &l) in out_left.iter().enumerate() {
            builders[part_of[l as usize] as usize].append(local_of[l as usize] as usize, o as Rid);
        }
        let parts_csr: Vec<CsrRidIndex> = builders.into_iter().map(CsrBuilder::finish).collect();
        a_fw_deferred = Some(CsrRidIndex::merge_remapped(
            &parts_csr,
            &build.rid_maps,
            left.len(),
        ));
    }
    let deferred = if defer {
        defer_start.elapsed()
    } else {
        std::time::Duration::ZERO
    };

    // Output materialization gathers from the ORIGINAL paged inputs — the
    // partitions carry only keys and rids.
    let joined_schema: Schema = left.schema().concat(right.schema(), right.name());
    let output_name = format!("join({},{})", left.name(), right.name());
    let output = if opts.materialize_output {
        let mut columns = left.gather(&out_left, "l")?.into_columns();
        columns.append(&mut right.gather(&out_right, "r")?.into_columns());
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
            grace_partitions: partitions,
            stats: CaptureStats {
                base_query,
                ..Default::default()
            },
        });
    }

    // Assemble lineage indexes with the same representations the resident
    // path picks per capture mode, rebuilt from the merged output run.
    let a_backward = cap_a_b.then(|| LineageIndex::Array(RidArray::from_vec(out_left.clone())));
    let a_forward = if cap_a_f {
        Some(match a_fw_deferred {
            Some(csr) => LineageIndex::Csr(csr),
            None => {
                let mut arrays: Vec<RidArray> = vec![RidArray::new(); left.len()];
                for (o, &l) in out_left.iter().enumerate() {
                    arrays[l as usize].push(o as Rid);
                }
                LineageIndex::Index(RidIndex::from_arrays(arrays))
            }
        })
    } else {
        None
    };
    let b_backward = cap_b_b.then(|| LineageIndex::Array(RidArray::from_vec(out_right.clone())));
    let b_forward = if cap_b_f {
        Some(if pk_fk {
            let mut arr = RidArray::filled(right.len());
            for (o, &r) in out_right.iter().enumerate() {
                arr.set(r as usize, o as Rid);
            }
            LineageIndex::Array(arr)
        } else {
            let mut index = RidIndex::with_len(right.len());
            for (o, &r) in out_right.iter().enumerate() {
                index.append(r as usize, o as Rid);
            }
            LineageIndex::Index(index)
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
        grace_partitions: partitions,
        stats,
    })
}
