//! Criterion bench: multi-operator composition throughput from a
//! Vec-of-RidArrays parent versus a CSR parent (both through the
//! count-then-fill kernel) on the zipfian microbench shape (10k rows, 100
//! groups).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smoke_lineage::{compose_backward, LineageIndex, RidArray, RidIndex};
use smoke_storage::Rid;

/// Group-by-shaped parent: 100 groups over 10k intermediate rids, zipf-ish
/// sizes (group g holds every rid with `rid % 100 == g`).
fn parent_index() -> LineageIndex {
    let mut idx = RidIndex::with_len(100);
    for rid in 0..10_000u32 {
        idx.append((rid % 100) as usize, rid);
    }
    LineageIndex::Index(idx)
}

/// Selection-shaped child: intermediate rid -> base rid over a 20k-row base.
fn child_array() -> LineageIndex {
    LineageIndex::Array(RidArray::from_vec((0..10_000u32).map(|r| r * 2).collect()))
}

/// Join-forward-shaped child: intermediate rid -> two base rids each.
fn child_index() -> LineageIndex {
    let mut idx = RidIndex::with_len(10_000);
    for rid in 0..10_000u32 {
        idx.append(rid as usize, rid * 2);
        idx.append(rid as usize, rid * 2 + 1);
    }
    LineageIndex::Index(idx)
}

fn bench(c: &mut Criterion) {
    let parent = parent_index();
    let parent_csr = parent.clone().finalize();
    let arr = child_array();
    let idx_child = child_index();
    let csr_child = idx_child.clone().finalize();

    // Both parent layouts must compose to the same rids.
    for pos in [0u32, 57, 99] {
        assert_eq!(
            compose_backward(&parent, &arr).lookup(pos),
            compose_backward(&parent_csr, &arr).lookup(pos)
        );
        assert_eq!(
            compose_backward(&parent, &idx_child).lookup(pos),
            compose_backward(&parent_csr, &csr_child).lookup(pos)
        );
    }

    let mut group = c.benchmark_group("csr_compose");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("vec_of_vecs", "x_array"), &(), |b, ()| {
        b.iter(|| compose_backward(&parent, &arr))
    });
    group.bench_with_input(BenchmarkId::new("csr", "x_array"), &(), |b, ()| {
        b.iter(|| compose_backward(&parent_csr, &arr))
    });
    group.bench_with_input(BenchmarkId::new("vec_of_vecs", "x_index"), &(), |b, ()| {
        b.iter(|| compose_backward(&parent, &idx_child))
    });
    group.bench_with_input(BenchmarkId::new("csr", "x_csr"), &(), |b, ()| {
        b.iter(|| compose_backward(&parent_csr, &csr_child))
    });
    group.finish();

    // Keep the composed result shape honest.
    let composed = compose_backward(&parent_csr, &csr_child);
    assert!(matches!(composed, LineageIndex::Csr(_)));
    assert_eq!(composed.len(), 100);
    assert_eq!(composed.edge_count(), 20_000);
    let _ = composed.lookup(0 as Rid);
}

criterion_group!(benches, bench);
criterion_main!(benches);
