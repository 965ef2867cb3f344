//! Composition of lineage indexes across operators (multi-operator
//! propagation, paper §3.3).
//!
//! For a two-operator plan `op_p(op_c(R))`, the parent's lineage maps parent
//! output rids to the *intermediate* relation `op_c(R)`. Composing the
//! parent's backward index through the child's backward index produces an
//! index that maps parent output rids directly to rids of the base relation
//! `R`; the child's indexes can then be garbage collected.
//!
//! Two kernels cover every pairing of representations:
//! * a 1-to-1 chain (`Array`/`Identity` on both sides) stays a rid array,
//!   built in one loop over the parent's slice, with [`NO_RID`] wherever a
//!   link is missing;
//! * every other pairing counts each output entry's cardinality, then fills
//!   two exactly-sized CSR buffers: no per-entry allocation, no resize.

use crate::csr::{checked_offset, CsrRidIndex};
use crate::index::LineageIndex;
use crate::rid_array::{RidArray, NO_RID};
use crate::rid_index::RidIndex;
use smoke_storage::Rid;

/// Composes a parent backward index (parent-output → intermediate) with a
/// child backward index (intermediate → base) into a backward index from
/// parent output rids to base rids.
///
/// The composed index always covers exactly `parent.len()` positions, and its
/// targets are always rids the child actually maps — identity indexes are
/// truncated/filtered to their declared length rather than blindly passed
/// through. The result is an `Array` (or `Identity`) when both sides are
/// 1-to-1, and `Csr` otherwise.
pub fn compose_backward(parent: &LineageIndex, child: &LineageIndex) -> LineageIndex {
    use LineageIndex::{Array, Csr, Identity};
    match (parent, child) {
        // An identity over exactly the child's positions leaves it unchanged
        // (an `Index` is always rebuilt as CSR).
        (Identity(n), Array(_) | Csr(_) | Identity(_)) if *n == child.len() => child.clone(),
        // So does an identity covering every target of the parent.
        (p, Identity(n)) if targets_below(p, *n) => parent.clone(),
        (Array(_) | Identity(_), Array(_) | Identity(_)) => {
            LineageIndex::Array(one_to_one(parent, child))
        }
        (p, c) => LineageIndex::Csr(count_then_fill(p, c)),
    }
}

/// Composes a child forward index (base → intermediate) with a parent forward
/// index (intermediate → parent output) into a forward index from base rids to
/// parent output rids.
///
/// This is the same composition as [`compose_backward`] with the roles of the
/// arguments swapped: the traversal starts from base rids.
pub fn compose_forward(child: &LineageIndex, parent: &LineageIndex) -> LineageIndex {
    compose_backward(child, parent)
}

/// Whether every target of `index` lies in the identity domain `0..n`, so
/// that the identity leaves it unchanged. Always false for an `Index`, which
/// is rebuilt as CSR.
fn targets_below(index: &LineageIndex, n: usize) -> bool {
    match index {
        LineageIndex::Array(a) => a.iter().all(|r| r == NO_RID || (r as usize) < n),
        LineageIndex::Csr(c) => c.rids().iter().all(|&r| (r as usize) < n),
        LineageIndex::Identity(m) => *m <= n,
        LineageIndex::Index(_) => false,
    }
}

/// 1-to-1 ∘ 1-to-1: one pass over the parent's mids. A [`NO_RID`] mid, a mid
/// past the child's end and a child gap all map to [`NO_RID`].
fn one_to_one(parent: &LineageIndex, child: &LineageIndex) -> RidArray {
    fn through(mids: impl Iterator<Item = Rid>, child: &LineageIndex) -> RidArray {
        match child {
            LineageIndex::Array(c) => {
                let c = c.as_slice();
                mids.map(|mid| c.get(mid as usize).copied().unwrap_or(NO_RID))
                    .collect()
            }
            LineageIndex::Identity(n) => mids
                .map(|mid| if (mid as usize) < *n { mid } else { NO_RID })
                .collect(),
            _ => unreachable!("1-to-1 children only"),
        }
    }
    match parent {
        LineageIndex::Array(p) => through(p.as_slice().iter().copied(), child),
        LineageIndex::Identity(n) => through(0..*n as Rid, child),
        _ => unreachable!("1-to-1 parents only"),
    }
}

/// Per-position access shared by every representation, so that each pairing
/// gets its own monomorphized count and fill loops.
trait Entries {
    /// Calls `f` with the rids at `pos` (empty when out of range).
    fn with_slice<R>(&self, pos: Rid, f: impl FnOnce(&[Rid]) -> R) -> R;
}

impl Entries for RidArray {
    #[inline]
    fn with_slice<R>(&self, pos: Rid, f: impl FnOnce(&[Rid]) -> R) -> R {
        f(self.slice_checked(pos as usize))
    }
}

impl Entries for RidIndex {
    #[inline]
    fn with_slice<R>(&self, pos: Rid, f: impl FnOnce(&[Rid]) -> R) -> R {
        f(self.get_checked(pos as usize))
    }
}

impl Entries for CsrRidIndex {
    #[inline]
    fn with_slice<R>(&self, pos: Rid, f: impl FnOnce(&[Rid]) -> R) -> R {
        f(self.get_checked(pos as usize))
    }
}

/// The identity over `0..n`.
struct Domain(usize);

impl Entries for Domain {
    #[inline]
    fn with_slice<R>(&self, pos: Rid, f: impl FnOnce(&[Rid]) -> R) -> R {
        if (pos as usize) < self.0 {
            f(std::slice::from_ref(&pos))
        } else {
            f(&[])
        }
    }
}

/// Composition into CSR: a first pass sums each output entry's cardinality
/// into the offsets, a second copies the rids into a buffer of exactly that
/// size. Both passes walk parent entries and child entries in order, so the
/// rids come out in the order a nested loop would produce them.
fn count_then_fill(parent: &LineageIndex, child: &LineageIndex) -> CsrRidIndex {
    fn fill(len: usize, parent: &impl Entries, child: &impl Entries) -> CsrRidIndex {
        let mut offsets = Vec::with_capacity(len + 1);
        offsets.push(0u32);
        let mut total = 0u64;
        for pos in 0..len as Rid {
            parent.with_slice(pos, |mids| {
                for &mid in mids {
                    total += child.with_slice(mid, |rids| rids.len()) as u64;
                }
            });
            offsets.push(checked_offset(total));
        }
        let mut rids: Vec<Rid> = Vec::with_capacity(total as usize);
        for pos in 0..len as Rid {
            parent.with_slice(pos, |mids| {
                for &mid in mids {
                    child.with_slice(mid, |entry| match entry {
                        [] => {}
                        [rid] => rids.push(*rid),
                        _ => rids.extend_from_slice(entry),
                    });
                }
            });
        }
        CsrRidIndex::from_parts(offsets, rids)
    }
    fn with_parent(len: usize, parent: &impl Entries, child: &LineageIndex) -> CsrRidIndex {
        match child {
            LineageIndex::Array(c) => fill(len, parent, c),
            LineageIndex::Index(c) => fill(len, parent, c),
            LineageIndex::Csr(c) => fill(len, parent, c),
            LineageIndex::Identity(n) => fill(len, parent, &Domain(*n)),
        }
    }
    let len = parent.len();
    match parent {
        LineageIndex::Array(p) => with_parent(len, p, child),
        LineageIndex::Index(p) => with_parent(len, p, child),
        LineageIndex::Csr(p) => with_parent(len, p, child),
        LineageIndex::Identity(n) => with_parent(len, &Domain(*n), child),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_storage::Rid;

    #[test]
    fn backward_through_selection_then_groupby() {
        // Child: selection over 6 base rows keeping rids [1,3,5]
        // (intermediate rid i -> base rid).
        let child = LineageIndex::Array(RidArray::from_vec(vec![1, 3, 5]));
        // Parent: group-by over the 3 intermediate rows producing 2 groups.
        let parent = LineageIndex::Index(RidIndex::from_entries(vec![vec![0, 2], vec![1]]));

        let composed = compose_backward(&parent, &child);
        assert_eq!(composed.lookup(0), vec![1, 5]);
        assert_eq!(composed.lookup(1), vec![3]);
    }

    #[test]
    fn forward_through_selection_then_groupby() {
        // Child forward: base rid -> intermediate rid (NO_RID for filtered).
        let mut fwd = RidArray::filled(6);
        fwd.set(1, 0);
        fwd.set(3, 1);
        fwd.set(5, 2);
        let child = LineageIndex::Array(fwd);
        // Parent forward: intermediate rid -> output group.
        let parent = LineageIndex::Array(RidArray::from_vec(vec![0, 1, 0]));

        let composed = compose_forward(&child, &parent);
        assert_eq!(composed.lookup(1), vec![0]);
        assert_eq!(composed.lookup(3), vec![1]);
        assert_eq!(composed.lookup(5), vec![0]);
        assert_eq!(composed.lookup(0), Vec::<Rid>::new());
    }

    #[test]
    fn identity_is_neutral() {
        let idx = LineageIndex::Index(RidIndex::from_entries(vec![vec![2, 3], vec![4]]));
        let through_identity = compose_backward(&idx, &LineageIndex::Identity(10));
        assert_eq!(through_identity.lookup(0), vec![2, 3]);
        let identity_first = compose_backward(&LineageIndex::Identity(2), &idx);
        assert_eq!(identity_first.lookup(1), vec![4]);
    }

    #[test]
    fn identity_parent_truncates_longer_child() {
        // Identity(2) parent over a child covering 4 positions: the composed
        // index must cover exactly 2 positions.
        let child = LineageIndex::Array(RidArray::from_vec(vec![7, 8, 9, 10]));
        let composed = compose_backward(&LineageIndex::Identity(2), &child);
        assert_eq!(composed.len(), 2);
        assert_eq!(composed.lookup(0), vec![7]);
        assert_eq!(composed.lookup(1), vec![8]);
        assert_eq!(composed.lookup(2), Vec::<Rid>::new());

        let child_idx = LineageIndex::Index(RidIndex::from_entries(vec![
            vec![1, 2],
            vec![3],
            vec![4, 5],
        ]));
        let composed = compose_backward(&LineageIndex::Identity(1), &child_idx);
        assert_eq!(composed.len(), 1);
        assert_eq!(composed.lookup(0), vec![1, 2]);
        assert_eq!(composed.edge_count(), 2);

        let child_csr = child_idx.finalize();
        let composed_csr = compose_backward(&LineageIndex::Identity(1), &child_csr);
        assert_eq!(composed_csr.len(), 1);
        assert_eq!(composed_csr.lookup(0), vec![1, 2]);
    }

    #[test]
    fn identity_parent_extends_shorter_child_with_empty_lineage() {
        let child = LineageIndex::Array(RidArray::from_vec(vec![7, 8]));
        let composed = compose_backward(&LineageIndex::Identity(4), &child);
        assert_eq!(composed.len(), 4);
        assert_eq!(composed.lookup(1), vec![8]);
        assert_eq!(composed.lookup(2), Vec::<Rid>::new());
        assert_eq!(composed.lookup(3), Vec::<Rid>::new());
    }

    #[test]
    fn identity_child_drops_out_of_domain_targets() {
        // Parent maps to intermediate rids {0,1,2,5}; Identity(3) child only
        // covers intermediate rids 0..3, so target 5 must be dropped.
        let parent = LineageIndex::Index(RidIndex::from_entries(vec![vec![0, 5], vec![1, 2]]));
        let composed = compose_backward(&parent, &LineageIndex::Identity(3));
        assert_eq!(composed.len(), 2);
        assert_eq!(composed.lookup(0), vec![0]);
        assert_eq!(composed.lookup(1), vec![1, 2]);
        assert_eq!(composed.edge_count(), 3);

        // Same through an array parent: out-of-domain becomes NO_RID.
        let parent = LineageIndex::Array(RidArray::from_vec(vec![2, 9, 0]));
        let composed = compose_backward(&parent, &LineageIndex::Identity(3));
        assert_eq!(composed.len(), 3);
        assert_eq!(composed.lookup(0), vec![2]);
        assert_eq!(composed.lookup(1), Vec::<Rid>::new());
        assert_eq!(composed.lookup(2), vec![0]);

        // And through a CSR parent.
        let parent =
            LineageIndex::Index(RidIndex::from_entries(vec![vec![0, 5], vec![1, 2]])).finalize();
        let composed = compose_backward(&parent, &LineageIndex::Identity(3));
        assert!(matches!(composed, LineageIndex::Csr(_)));
        assert_eq!(composed.lookup(0), vec![0]);
        assert_eq!(composed.lookup(1), vec![1, 2]);
    }

    #[test]
    fn csr_parent_matches_index_parent() {
        let parent_entries = vec![vec![0, 2], vec![1], vec![], vec![2, 0, 1]];
        let parent_idx = LineageIndex::Index(RidIndex::from_entries(parent_entries));
        let parent_csr = parent_idx.clone().finalize();

        // Array child.
        let mut child_arr = RidArray::filled(3);
        child_arr.set(0, 10);
        child_arr.set(2, 12);
        let child = LineageIndex::Array(child_arr);
        let from_index = compose_backward(&parent_idx, &child);
        let from_csr = compose_backward(&parent_csr, &child);
        assert!(matches!(from_csr, LineageIndex::Csr(_)));
        assert_eq!(from_csr.len(), from_index.len());
        for pos in 0..from_index.len() as Rid {
            assert_eq!(from_csr.lookup(pos), from_index.lookup(pos));
        }

        // CSR child.
        let child_n =
            LineageIndex::Index(RidIndex::from_entries(vec![vec![5, 6], vec![], vec![7]]));
        let child_csr = child_n.clone().finalize();
        let from_index = compose_backward(&parent_idx, &child_n);
        let from_csr = compose_backward(&parent_csr, &child_csr);
        assert!(matches!(from_csr, LineageIndex::Csr(_)));
        for pos in 0..from_index.len() as Rid {
            assert_eq!(from_csr.lookup(pos), from_index.lookup(pos));
        }
        assert_eq!(from_csr.edge_count(), from_index.edge_count());
    }

    #[test]
    fn one_to_one_chain_stays_array() {
        let child = LineageIndex::Array(RidArray::from_vec(vec![5, 6, 7]));
        let parent = LineageIndex::Array(RidArray::from_vec(vec![2, 0]));
        let composed = compose_backward(&parent, &child);
        assert!(matches!(composed, LineageIndex::Array(_)));
        assert_eq!(composed.lookup(0), vec![7]);
        assert_eq!(composed.lookup(1), vec![5]);
    }

    #[test]
    fn missing_links_propagate_as_empty() {
        let mut child = RidArray::filled(3);
        child.set(0, 9);
        let child = LineageIndex::Array(child);
        let parent = LineageIndex::Array(RidArray::from_vec(vec![0, 1]));
        let composed = compose_backward(&parent, &child);
        assert_eq!(composed.lookup(0), vec![9]);
        assert_eq!(composed.lookup(1), Vec::<Rid>::new());
    }
}
