//! Morsel-at-a-time work distribution: the one way a scan is handed its
//! input positions, serial or parallel.
//!
//! Giving each worker a fixed slice of the input up front collapses under
//! skewed per-row cost: with Zipf-distributed work the worker that drew
//! the hot ranks becomes the critical path while its siblings idle (the
//! paper's Section 7 "uniformity of work" caveat, made concrete in
//! `BENCH_parallel.json`'s cpu-bound rows). So, after the HyPer
//! morsel-driven scheduler (Leis et al., SIGMOD 2014), work is handed out
//! in small fixed-size *morsels* from a shared dispenser: a worker that
//! finishes early simply claims the next morsel — work stealing without
//! queues, just one atomic cursor. A serial scan is the one-worker case:
//! its own dispenser over a single whole-input morsel (`size = 0`). Two
//! properties of this dispenser carry the whole serial-equivalence
//! argument upstream in `qp-exec`:
//!
//! 1. **Exactly-once, covering claims.** Every row position in `[0, len)`
//!    belongs to exactly one morsel, and each morsel is claimed by exactly
//!    one worker (the atomic cursor advance is the claim).
//! 2. **Globally ordered claims.** Morsels are claimed in strictly
//!    increasing index order across *all* workers, regardless of thread
//!    scheduling. Any per-morsel decision keyed on "the smallest morsel
//!    index that X" is therefore deterministic, which is what keeps seeded
//!    fault schedules replayable under stealing.
//!
//! The dispenser is pure coordination — it never touches rows. Scan
//! operators in `qp-exec` turn a claimed [`Morsel`] into reads against a
//! [`Table`] heap slice or a slice of an index's row-id list.
//!
//! [`Table`]: crate::table::Table

use std::sync::atomic::{AtomicUsize, Ordering};

/// Sentinel for a dispenser whose input length is not yet known.
const UNBOUND: usize = usize::MAX;

/// One claimed unit of scan work: the half-open position range
/// `[start, end)` of the shared input, plus its ordinal among all morsels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Ordinal of this morsel (0-based, in input order). Morsel `i` covers
    /// positions `[i · size, min((i+1) · size, len))`.
    pub index: usize,
    /// First input position covered (inclusive).
    pub start: usize,
    /// One past the last input position covered (exclusive).
    pub end: usize,
}

impl Morsel {
    /// Number of input positions in the morsel.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the morsel covers no positions (never produced by
    /// [`MorselDispenser::claim`], which returns `None` instead).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// A shared work dispenser: one atomic cursor over `[0, len)`, handing out
/// fixed-size [`Morsel`]s to however many workers pull from it.
///
/// Workers share the dispenser behind an `Arc` and call [`claim`] in a
/// loop; `None` means the input is exhausted. The claim itself is the only
/// synchronization — there is no queue, no per-worker state, and no
/// assignment step, so the degree of "stealing" adapts to however unevenly
/// the per-morsel work is distributed.
///
/// For inputs whose length is only known at open time (an index range scan
/// learns its row-id count after walking the B+Tree), construct with
/// [`unbound`] and have each worker [`bind`] the length before claiming;
/// the first bind wins and the rest are validated no-ops, which is safe
/// exactly because every worker derives the identical length from shared
/// immutable state.
///
/// [`claim`]: MorselDispenser::claim
/// [`unbound`]: MorselDispenser::unbound
/// [`bind`]: MorselDispenser::bind
#[derive(Debug)]
pub struct MorselDispenser {
    /// Morsel size in input positions, normalized ≥ 1. A requested size of
    /// 0 (or anything ≥ the input length) degrades to one whole-input
    /// morsel — what a serial scan claims.
    size: usize,
    /// Total input positions; [`UNBOUND`] until known.
    len: AtomicUsize,
    /// Next unclaimed input position.
    cursor: AtomicUsize,
}

impl MorselDispenser {
    /// A dispenser over a known input length. `size = 0` means one
    /// whole-input morsel.
    pub fn new(len: usize, size: usize) -> MorselDispenser {
        assert!(len < UNBOUND, "input length collides with UNBOUND sentinel");
        MorselDispenser {
            size: Self::normalize(size),
            len: AtomicUsize::new(len),
            cursor: AtomicUsize::new(0),
        }
    }

    /// A dispenser whose input length will be supplied later via
    /// [`MorselDispenser::bind`]. Claiming before binding panics.
    pub fn unbound(size: usize) -> MorselDispenser {
        MorselDispenser {
            size: Self::normalize(size),
            len: AtomicUsize::new(UNBOUND),
            cursor: AtomicUsize::new(0),
        }
    }

    fn normalize(size: usize) -> usize {
        if size == 0 {
            UNBOUND // saturates to "whole input" in claim()
        } else {
            size
        }
    }

    /// Supplies the input length. Idempotent: the first bind wins; any
    /// later bind must agree (all workers compute the length from the same
    /// immutable input, so disagreement is a logic error).
    pub fn bind(&self, len: usize) {
        assert!(len < UNBOUND, "input length collides with UNBOUND sentinel");
        if let Err(bound) =
            self.len
                .compare_exchange(UNBOUND, len, Ordering::AcqRel, Ordering::Acquire)
        {
            assert_eq!(bound, len, "workers bound conflicting input lengths");
        }
    }

    /// True once the input length is known (constructed sized, or bound).
    pub fn is_bound(&self) -> bool {
        self.len.load(Ordering::Acquire) != UNBOUND
    }

    /// Claims the next unclaimed morsel, or `None` when the input is
    /// exhausted. Thread-safe; each morsel is handed to exactly one caller,
    /// and successive successful claims (across all callers) carry strictly
    /// increasing `index`.
    ///
    /// # Panics
    /// Panics if the dispenser is still unbound.
    pub fn claim(&self) -> Option<Morsel> {
        let len = self.len.load(Ordering::Acquire);
        assert_ne!(len, UNBOUND, "claim() before bind(): length unknown");
        let start = self
            .cursor
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                if c >= len {
                    None
                } else {
                    Some(c.saturating_add(self.size))
                }
            })
            .ok()?;
        Some(Morsel {
            index: start / self.size,
            start,
            end: start.saturating_add(self.size).min(len),
        })
    }

    /// Total number of morsels the bound input divides into (the `n` for
    /// per-morsel fault-schedule derivation). Zero for an empty input.
    ///
    /// # Panics
    /// Panics if the dispenser is still unbound.
    pub fn morsel_count(&self) -> usize {
        let len = self.len.load(Ordering::Acquire);
        assert_ne!(len, UNBOUND, "morsel_count() before bind()");
        len.div_ceil(self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn claims_are_disjoint_covering_and_in_order() {
        for (len, size) in [(10, 3), (10, 1), (10, 10), (10, 64), (7, 2), (1, 1)] {
            let d = MorselDispenser::new(len, size);
            let mut claimed = Vec::new();
            while let Some(m) = d.claim() {
                claimed.push(m);
            }
            assert!(d.claim().is_none(), "exhausted dispenser stays exhausted");
            assert_eq!(claimed.len(), d.morsel_count());
            let mut next_start = 0;
            for (i, m) in claimed.iter().enumerate() {
                assert_eq!(m.index, i, "indices count up from 0");
                assert_eq!(m.start, next_start, "morsels are contiguous");
                assert!(m.end > m.start, "no empty morsels");
                assert!(!m.is_empty());
                assert!(m.len() <= size.max(1) || size == 0);
                next_start = m.end;
            }
            assert_eq!(next_start, len, "morsels cover the input");
        }
    }

    #[test]
    fn zero_size_means_one_whole_input_morsel() {
        let d = MorselDispenser::new(42, 0);
        assert_eq!(d.morsel_count(), 1);
        let m = d.claim().unwrap();
        assert_eq!((m.index, m.start, m.end), (0, 0, 42));
        assert!(d.claim().is_none());
    }

    #[test]
    fn oversized_morsel_degrades_to_whole_input() {
        let d = MorselDispenser::new(5, usize::MAX);
        assert_eq!(d.morsel_count(), 1);
        assert_eq!(d.claim().unwrap().len(), 5);
        assert!(d.claim().is_none());
    }

    #[test]
    fn empty_input_yields_no_morsels() {
        let d = MorselDispenser::new(0, 8);
        assert_eq!(d.morsel_count(), 0);
        assert!(d.claim().is_none());
    }

    #[test]
    fn unbound_binds_once_then_claims() {
        let d = MorselDispenser::unbound(4);
        assert!(!d.is_bound());
        d.bind(9);
        assert!(d.is_bound());
        d.bind(9); // idempotent re-bind from a sibling worker
        assert_eq!(d.morsel_count(), 3);
        let sizes: Vec<usize> = std::iter::from_fn(|| d.claim()).map(|m| m.len()).collect();
        assert_eq!(sizes, vec![4, 4, 1]);
    }

    #[test]
    #[should_panic(expected = "conflicting input lengths")]
    fn conflicting_bind_is_a_logic_error() {
        let d = MorselDispenser::unbound(4);
        d.bind(9);
        d.bind(10);
    }

    #[test]
    #[should_panic(expected = "before bind()")]
    fn claim_before_bind_is_a_logic_error() {
        MorselDispenser::unbound(4).claim();
    }

    #[test]
    fn concurrent_claims_partition_the_input_exactly_once() {
        let d = Arc::new(MorselDispenser::new(10_000, 7));
        let workers = 4;
        let per_worker: Vec<Vec<Morsel>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let d = Arc::clone(&d);
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(m) = d.claim() {
                            mine.push(m);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Each worker's claims are strictly increasing in index…
        for mine in &per_worker {
            for w in mine.windows(2) {
                assert!(w[0].index < w[1].index);
            }
        }
        // …and together they cover every morsel exactly once.
        let mut all: Vec<Morsel> = per_worker.into_iter().flatten().collect();
        all.sort_by_key(|m| m.index);
        assert_eq!(all.len(), d.morsel_count());
        let mut next_start = 0;
        for (i, m) in all.iter().enumerate() {
            assert_eq!(m.index, i);
            assert_eq!(m.start, next_start);
            next_start = m.end;
        }
        assert_eq!(next_start, 10_000);
    }
}
