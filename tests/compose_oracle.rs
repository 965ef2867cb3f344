//! Lineage composition against a nested-loop reference.
//!
//! Each case draws a random parent and child index in any of the four
//! representations (`Array` with `NO_RID` gaps, `Index`, `Csr`, `Identity`),
//! with empty entries, parent targets past the child's end, and identity
//! lengths both shorter and longer than the other side. The composed index
//! must list, for every position, exactly the rids a nested loop over the
//! two plain mappings lists, in the same order.

use proptest::prelude::*;
use proptest::TestRng;
use smoke::lineage::{
    compose_backward, compose_forward, LineageIndex, Rid, RidArray, RidIndex, NO_RID,
};

/// A plain mapping: the rids of each position, in order.
type Model = Vec<Vec<Rid>>;

/// Draws an index over `len` positions whose targets lie in `0..targets`,
/// together with its plain mapping.
fn random_index(rng: &mut TestRng, len: usize, targets: u64) -> (LineageIndex, Model) {
    let below = |rng: &mut TestRng, n: u64| rng.next_u64() % n.max(1);
    match below(rng, 4) {
        0 => {
            let rids: Vec<Rid> = (0..len)
                .map(|_| match below(rng, 4) {
                    0 => NO_RID,
                    _ => below(rng, targets) as Rid,
                })
                .collect();
            let model = rids
                .iter()
                .map(|&r| if r == NO_RID { vec![] } else { vec![r] })
                .collect();
            (LineageIndex::Array(RidArray::from_vec(rids)), model)
        }
        variant => {
            if variant == 3 {
                // An identity's length is drawn on its own, so it may be
                // shorter or longer than the other side needs.
                let n = below(rng, len as u64 + 4) as usize;
                let model = (0..n as Rid).map(|r| vec![r]).collect();
                return (LineageIndex::Identity(n), model);
            }
            let model: Model = (0..len)
                .map(|_| {
                    let fanout = below(rng, 4);
                    (0..fanout).map(|_| below(rng, targets) as Rid).collect()
                })
                .collect();
            let index = LineageIndex::Index(RidIndex::from_entries(model.clone()));
            if variant == 1 {
                (index, model)
            } else {
                (index.finalize(), model)
            }
        }
    }
}

/// A composable pair: the child covers `child_len` intermediate rids, and
/// the parent's targets run up to three past the child's end.
struct Pair;

impl Strategy for Pair {
    type Value = ((LineageIndex, Model), (LineageIndex, Model));

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let child_len = (rng.next_u64() % 12) as usize;
        let parent_len = (rng.next_u64() % 12) as usize;
        let child = random_index(rng, child_len, 20);
        let targets = child.1.len() as u64 + 3;
        let parent = random_index(rng, parent_len, targets);
        (parent, child)
    }
}

fn reference(parent: &Model, child: &Model) -> Model {
    parent
        .iter()
        .map(|mids| {
            mids.iter()
                .flat_map(|&mid| child.get(mid as usize).cloned().unwrap_or_default())
                .collect()
        })
        .collect()
}

fn one_to_one(index: &LineageIndex) -> bool {
    matches!(index, LineageIndex::Array(_) | LineageIndex::Identity(_))
}

fn assert_matches(composed: &LineageIndex, expected: &Model) {
    assert_eq!(composed.len(), expected.len());
    for (pos, rids) in expected.iter().enumerate() {
        assert_eq!(&composed.lookup(pos as Rid), rids, "position {pos}");
    }
    assert!(composed.lookup(expected.len() as Rid).is_empty());
    let edges: usize = expected.iter().map(Vec::len).sum();
    assert_eq!(composed.edge_count(), edges);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn composition_matches_nested_loop_reference(pair in Pair) {
        let ((parent, parent_model), (child, child_model)) = pair;
        let expected = reference(&parent_model, &child_model);

        let backward = compose_backward(&parent, &child);
        assert_matches(&backward, &expected);
        let forward = compose_forward(&parent, &child);
        prop_assert_eq!(&forward, &backward);

        if one_to_one(&parent) && one_to_one(&child) {
            prop_assert!(one_to_one(&backward), "1-to-1 chain gave {backward:?}");
        } else {
            prop_assert!(
                matches!(backward, LineageIndex::Csr(_)),
                "1-to-N composition gave {backward:?}"
            );
            prop_assert_eq!(backward.resizes(), 0);
        }
    }
}
