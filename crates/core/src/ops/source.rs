//! Chunk sources: where an operator body reads its input from.
//!
//! Selection, group-by and hash join are each written once, over a
//! [`ChunkSource`]: an in-order walk of `(first_rid, chunk)` pairs plus a
//! gather of rids. Residency is the choice of source, not a second
//! operator:
//!
//! * a resident [`Relation`] is exactly one borrowed chunk — no copy, and the
//!   operator sees the whole input at once;
//! * a `(&PagedRelation, chunk_rows)` pair streams page-aligned chunks out of
//!   the buffer pool, hinting the next chunk's pages to the prefetcher while
//!   the current one is processed.
//!
//! Both impls are monomorphized into the operator bodies, so the row loops
//! carry no dynamic dispatch. The walk is an iterator rather than a
//! callback so that each row loop stays in its operator's own body, where
//! the operator state it updates can live in registers.

use std::borrow::Cow;

use smoke_storage::{PagedRelation, Relation, Rid, Schema, ROWS_PER_PAGE};

use crate::error::Result;

/// An operator input that can be scanned chunk by chunk and gathered by rid.
pub(crate) trait ChunkSource {
    /// Total rows.
    fn len(&self) -> usize;

    /// The input's schema.
    fn schema(&self) -> &Schema;

    /// The input's name (used to name operator outputs).
    fn name(&self) -> &str;

    /// Consecutive `(first_rid, chunk)` pairs covering rows `0..len()` in
    /// order; row `i` of `chunk` is input rid `first_rid + i`.
    fn chunks(&self) -> impl Iterator<Item = Result<(usize, Cow<'_, Relation>)>>;

    /// Materializes the rows named by `rids`, in order.
    fn gather(&self, rids: &[Rid], name: String) -> Result<Relation>;

    /// A zero-row relation with the input's schema, for validating column
    /// references before the scan reads anything.
    fn probe(&self) -> Relation {
        Relation::empty(self.name(), self.schema().clone())
    }
}

impl ChunkSource for Relation {
    fn len(&self) -> usize {
        Relation::len(self)
    }

    fn schema(&self) -> &Schema {
        Relation::schema(self)
    }

    fn name(&self) -> &str {
        Relation::name(self)
    }

    fn chunks(&self) -> impl Iterator<Item = Result<(usize, Cow<'_, Relation>)>> {
        std::iter::once(Ok((0, Cow::Borrowed(self))))
    }

    fn gather(&self, rids: &[Rid], name: String) -> Result<Relation> {
        Ok(Relation::gather(self, rids, name))
    }
}

/// A paged relation scanned `chunk_rows` rows at a time. Chunk sizes are
/// rounded up to a whole number of pages (at least one), so a scan pins
/// every covering page exactly once.
impl ChunkSource for (&PagedRelation, usize) {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn chunks(&self) -> impl Iterator<Item = Result<(usize, Cow<'_, Relation>)>> {
        let (rel, chunk_rows) = *self;
        let step = chunk_rows.max(1).div_ceil(ROWS_PER_PAGE) * ROWS_PER_PAGE;
        (0..rel.len()).step_by(step).map(move |start| {
            let end = (start + step).min(rel.len());
            rel.prefetch_rows(end, end + step);
            Ok((start, Cow::Owned(rel.chunk(start, end)?)))
        })
    }

    fn gather(&self, rids: &[Rid], name: String) -> Result<Relation> {
        Ok(self.0.gather(rids, name)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_pager::{BufferPool, ReplacementPolicy, SegmentStore};
    use smoke_storage::{DataType, Value};
    use std::sync::Arc;

    fn ints(rows: usize) -> Relation {
        let mut b = Relation::builder("t").column("a", DataType::Int);
        for i in 0..rows {
            b = b.row(vec![Value::Int(i as i64)]);
        }
        b.build().unwrap()
    }

    fn bounds(src: &impl ChunkSource) -> Vec<(usize, usize)> {
        src.chunks()
            .map(|c| c.map(|(first, chunk)| (first, chunk.len())).unwrap())
            .collect()
    }

    #[test]
    fn resident_relation_is_one_chunk() {
        assert_eq!(bounds(&ints(5)), vec![(0, 5)]);
        assert_eq!(bounds(&ints(0)), vec![(0, 0)]);
    }

    #[test]
    fn paged_chunks_are_page_aligned_and_cover_the_input() {
        let rel = ints(2 * ROWS_PER_PAGE + 7);
        let pool = Arc::new(BufferPool::new(
            SegmentStore::in_memory(),
            1,
            ReplacementPolicy::Sieve,
        ));
        let paged = PagedRelation::spill(&rel, &pool).unwrap();
        // A request below one page rounds up to one page.
        assert_eq!(
            bounds(&(&paged, 3)),
            vec![
                (0, ROWS_PER_PAGE),
                (ROWS_PER_PAGE, ROWS_PER_PAGE),
                (2 * ROWS_PER_PAGE, 7)
            ]
        );
        assert_eq!(
            bounds(&(&paged, ROWS_PER_PAGE + 1)),
            vec![(0, 2 * ROWS_PER_PAGE), (2 * ROWS_PER_PAGE, 7)]
        );
        let gathered = (&paged, 1).gather(&[5, 2], "g".into()).unwrap();
        assert_eq!(gathered.column(0).as_int(), &[5, 2]);
    }
}
