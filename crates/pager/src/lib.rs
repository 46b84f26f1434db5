//! # qp-pager — paged persistent storage
//!
//! The disk layer the ROADMAP's "paged persistent storage" item asks
//! for, and the substrate of the first *honest* disk-bound estimator
//! regime: a slotted-page file format behind a page-level [`Pager`]
//! (read/write/allocate/free + freelist), a fixed-capacity LRU
//! [`BufferPool`] (pin/unpin, dirty tracking, hit/miss/eviction
//! counters), and a redo [`Wal`] with full-page images, commit records,
//! fsync-on-commit, and idempotent recovery.
//!
//! Everything is std-only per the workspace's hermetic-deps policy, and
//! every failure mode is *injectable and replayable*: short reads and
//! torn writes are driven by a seeded [`qp_testkit::FaultPlan`] keyed by
//! I/O-operation index, and commits accept an explicit [`CrashPoint`]
//! that stops the protocol mid-flight exactly where a power cut would —
//! the crash-recovery matrix in `tests/` replays every point by seed and
//! proves recovery restores the pre- or post-commit image bit-for-bit.
//!
//! Why this matters for progress estimation: the source paper's Section
//! 7 caveat is that estimators assume **uniform work per GetNext**. A
//! buffer pool is precisely what breaks that — a GetNext that hits the
//! pool costs nanoseconds, one that misses pays a page read (plus a
//! configurable miss penalty standing in for rotating-disk latency).
//! `repro -- pagecache` sweeps the pool's frame count to walk the same
//! query from fully-cached to thrashing and watches dne/pmax/safe
//! degrade.

mod checksum;
mod page;
mod pager;
mod pool;
mod wal;

pub use checksum::{page_checksum, stamp_page, verify_page};
pub use page::{read_cell, SlottedPage, PAGE_CHECKSUM_LEN, PAGE_PAYLOAD_END, PAGE_SIZE};
pub use pager::{IoFaults, PageId, Pager, PagerError};
pub use pool::{BufferPool, PageRef, PoolStats};
pub use wal::{CrashPoint, Wal, WalTxn};
