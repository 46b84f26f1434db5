//! # qp-storage — relational storage substrate
//!
//! This crate provides the storage layer underneath the instrumented query
//! executor used by the `queryprogress` reproduction of *"When Can We Trust
//! Progress Estimators for SQL Queries?"* (Chaudhuri, Kaushik, Ramamurthy;
//! SIGMOD 2005).
//!
//! It deliberately models the parts of a database storage engine that the
//! paper's framework depends on:
//!
//! * typed [`Value`]s with a total order (needed by sort / merge-join /
//!   B+Tree keys),
//! * [`Schema`]s and cheaply-cloneable [`Row`]s,
//! * heap [`Table`]s whose *exact* cardinality is available from the catalog
//!   (Section 5.1 of the paper: "a table scan has lower and upper bounds
//!   equal to the cardinality of the base relation, which is accurately
//!   available from the database catalogs"),
//! * a hand-written [`btree::BTreeIndex`] supporting point and range lookups
//!   (the substrate for `index-seek` and index-nested-loops join, the
//!   operator at the heart of the paper's lower-bound argument), and
//! * a [`Database`] catalog tying tables, indexes and their metadata
//!   together, and
//! * a [`sharedscan::ScanShare`] registry letting concurrent full-table
//!   scans attach to one in-flight producer (N overlapping scans read
//!   the overlap once) while each attacher still observes the exact solo
//!   row sequence — the paper's per-session getnext accounting intact.
//!
//! Tables come in two backends behind one interface: in-memory heaps
//! (the default) and **paged** tables whose rows live in slotted page
//! files read through a shared `qp-pager` buffer pool (see [`paged`]).
//! [`Table::read_chunk`] reads a run of rows at once — on a paged table
//! by pinning each covering page once — which is how shared scans read.
//! Query results are byte-identical across backends; only the *cost* of
//! a row read differs — which is the paper's Section 7 "uniformity of
//! work per GetNext" caveat, finally measurable.

pub mod btree;
pub mod catalog;
pub mod codec;
pub mod error;
pub mod morsel;
pub mod paged;
pub mod row;
pub mod schema;
pub mod sharedscan;
pub mod table;
pub mod value;

pub use btree::BTreeIndex;
pub use catalog::{Database, IndexMeta};
pub use error::{StorageError, StorageResult};
pub use morsel::{Morsel, MorselDispenser};
pub use qp_pager::{BufferPool, CrashPoint, PoolStats};
pub use row::Row;
pub use schema::{Column, ColumnType, Schema};
pub use sharedscan::{ScanShare, ScanShareStats, SharedCursor};
pub use table::{Chunk, RowId, Table};
pub use value::Value;
