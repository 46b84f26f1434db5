//! Physical operator implementations (the paper's Section 2.1 operator
//! set). Each operator implements [`crate::context::Operator`]; children
//! are [`crate::context::Counted`] wrappers so that every produced row is
//! counted as one getnext call at the producing node.

mod aggregate;
mod exchange;
mod filter;
mod join_hash;
mod join_merge;
mod join_nl;
mod scan;
mod sort;

pub use aggregate::{HashAggregateOp, StreamAggregateOp};
pub use exchange::ExchangeOp;
pub(crate) use exchange::{ExchangeWorker, NO_MORSEL};
pub use filter::{FilterOp, LimitOp, ProjectOp};
pub use join_hash::HashJoinOp;
pub use join_merge::MergeJoinOp;
pub use join_nl::{IndexNestedLoopsOp, NestedLoopsOp};
pub(crate) use scan::MorselFeed;
pub use scan::{IndexRangeScanOp, SeqScanOp};
pub use sort::SortOp;
