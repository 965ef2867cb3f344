//! Lineage-instrumented physical operators (paper §3.2, §3.3, Appendix F).
//!
//! Every operator comes in an uninstrumented form (Baseline) plus the Inject
//! and — where the paper defines one — Defer instrumentation paradigms. The
//! operators return both their output relation and the captured
//! [`OperatorLineage`].

pub mod groupby;
pub mod join;
pub mod nljoin;
pub mod project;
pub mod select;
pub mod setops;
pub(crate) mod source;

use smoke_lineage::{CaptureStats, OperatorLineage};
use smoke_storage::Relation;

/// The result of executing a single instrumented physical operator.
#[derive(Debug, Clone)]
pub struct OpOutput {
    /// The operator's output relation.
    pub output: Relation,
    /// Captured lineage w.r.t. the operator's input(s); empty for Baseline.
    pub lineage: OperatorLineage,
    /// Capture statistics for this operator.
    pub stats: CaptureStats,
}

impl OpOutput {
    /// Creates an output with no lineage (Baseline mode).
    pub fn baseline(output: Relation, stats: CaptureStats) -> Self {
        OpOutput {
            output,
            lineage: OperatorLineage::none(),
            stats,
        }
    }
}
