//! # qp-exec — instrumented iterator-model query executor
//!
//! A Volcano-style executor over [`qp_storage`] with the physical operator
//! set of Section 2.1 of the paper: `scan`, `index-seek` (range scan), `σ`
//! (filter), `π` (project), `⋈NL`, `⋈INL`, `⋈hash`, `⋈merge`, `sort`, and
//! `γ` (group-by aggregation), plus `limit`. Plans run serially unless
//! [`parallelize`] puts scan chains behind an `Exchange`, whose workers run
//! the *same* operators over morsels of the leaf's input; either way the
//! getnext accounting below is byte-identical.
//!
//! ## The GetNext model of work
//!
//! The paper (Section 2.2, following Chaudhuri–Narasayya–Ramamurthy 2004)
//! models the execution of a query `Q` as the serial sequence of *getnext*
//! calls across all operators of the plan: `total(Q)` is the number of
//! getnext calls, and progress after a prefix is `|prefix| / total(Q)`.
//! Concretely — and this matters for reproducing the paper's arithmetic —
//! **each plan operator contributes one getnext call per row it produces**:
//!
//! * a scan of `R` contributes `|R|` calls;
//! * a filter contributes its output cardinality;
//! * an index-nested-loops join contributes its output cardinality, with
//!   the inner index seek *fused into the join* rather than counted as a
//!   separate node. This reproduces Example 2's
//!   `total(Q) = 100,000 + 1 + 10,000` (scan + σ + join output) and the
//!   `μ = 2` of the Section 5.2 experiment.
//!
//! Every operator is wrapped in a [`context::Counted`] adapter that bumps a
//! per-node counter in the shared [`context::ExecContext`] and emits
//! [`context::ExecEvent`]s to a registered [`context::Observer`] — this is
//! the "execution feedback" arrow of the paper's Figure 1, and it is the
//! *only* channel through which the progress estimators in `qp-progress`
//! see the running query.
//!
//! [`plan`] defines the physical plan IR (with a builder), [`pipeline`]
//! decomposes plans into pipelines and identifies driver nodes (Section
//! 4.1), and [`estimate`] annotates plans with optimizer-style cardinality
//! estimates used by the `dne` pipeline weighting.

pub mod context;
pub mod error;
pub mod estimate;
pub mod executor;
pub mod expr;
pub mod ops;
pub mod parallel;
pub mod pipeline;
pub mod plan;

pub use context::{
    fault_kind_code, fault_kind_name, CancelToken, Counters, ExecContext, ExecEvent, ExecTuning,
    NodeId, Observer, RunControls, SpanAttach,
};
pub use error::{ExecError, ExecResult};
// Fault-injection vocabulary, re-exported so downstream crates can drive
// chaos runs without depending on qp-testkit directly.
pub use executor::{run_query, QueryOutput};
pub use expr::{AggExpr, AggFunc, CmpOp, Expr};
pub use parallel::parallelize;
pub use plan::{JoinType, Plan, PlanBuilder, PlanNode};
pub use qp_testkit::fault::{FaultConfig, FaultKind, FaultPlan, FaultPoint};
