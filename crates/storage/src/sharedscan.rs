//! Shared-scan reuse: concurrent full-table scans attach to one
//! in-flight chunk producer instead of each paying their own pass over
//! the base data.
//!
//! The circulating-scan idea (one disk arm, many consumers) is standard
//! in shared-work systems; here it matters because the service front
//! end multiplexes thousands of sessions, and a popular table would
//! otherwise be re-read once per session — on the paged backend, once
//! *per disk pass*. The contract that makes sharing admissible in this
//! codebase is stricter than mere result equality, though: the paper's
//! accounting model (Section 2.2) defines progress in per-session
//! getnext counts, so every attached session must observe *exactly* the
//! row sequence a solo scan would — same rows, same order, same length
//! — or its counters, estimator readings, and `total(Q)` drift.
//!
//! The design is therefore **attach-and-replay**, not row routing:
//!
//! * A [`ScanShare`] registry maps a live table (by `Arc` identity) to
//!   its current [`ScanGroup`] — one *epoch* of sharing. Attaching
//!   yields a [`SharedCursor`]; dropping the cursor detaches, and the
//!   epoch ends (its entry is removed) when the last attacher leaves.
//!   The next scan of that table starts a fresh epoch.
//! * The group reads the table chunk by chunk, on demand: whichever
//!   cursor first needs chunk `i` reads it with [`Table::read_chunk`]
//!   under the group's production lock and publishes it for every
//!   attacher to replay. A paged chunk is the images of the pages it
//!   covers, each pinned once; rows are decoded as they are served.
//!   Every cursor logically sees the full insertion-order sequence from
//!   row 0, regardless of when it attached.
//! * The group keeps **a window between the slowest and fastest
//!   cursor**, not the epoch: it records which chunk each attached
//!   cursor is reading (chunk 0 until its first read), and drops a chunk
//!   once every attached cursor is past it — on each read and on each
//!   detach. N overlapping scans read the overlap once. A cursor that
//!   needs a chunk already dropped — a late attacher replaying the
//!   prefix, or a re-opened scan — reads it again, and
//!   [`ScanShareStats::rows_produced`] counts the re-read.
//! * A cursor dropped mid-scan — a cancelled session — just detaches;
//!   production continues only as long as someone still needs rows.
//!
//! Memory is bounded by the spread of the attached cursors: a solo scan
//! holds one chunk at a time.

use crate::row::Row;
use crate::table::{Chunk, RowId, Table};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Rows per produced chunk (rounded up to whole pages on a paged
/// table, so no page is pinned by two chunks). Purely a producer
/// granularity / lock-hold knob: replay order is row-by-row, so the
/// chunk size is invisible to attachers (and to counters).
const CHUNK_ROWS: usize = 1024;

/// Monotone counters describing sharing effectiveness, exposed over the
/// service `METRICS` endpoint. All relaxed: totals, not invariants.
#[derive(Debug, Default)]
pub struct ScanShareStats {
    /// Cursors handed out (one per attaching scan).
    pub attaches: AtomicU64,
    /// Attaches that joined an epoch already in flight.
    pub shared_attaches: AtomicU64,
    /// Epochs started (groups created).
    pub groups: AtomicU64,
    /// Rows read from tables by producers, re-reads of dropped chunks
    /// included.
    pub rows_produced: AtomicU64,
    /// Rows replayed to cursors (≥ `rows_produced` whenever sharing
    /// actually deduplicated work).
    pub rows_served: AtomicU64,
}

/// The chunks an epoch still holds, and where its cursors are.
#[derive(Debug, Default)]
struct Window {
    /// Produced chunks that some attached cursor has not yet passed.
    chunks: BTreeMap<usize, Arc<Chunk>>,
    /// The chunk each attached cursor is reading, by cursor id.
    readers: HashMap<u64, usize>,
    next_reader: u64,
}

impl Window {
    /// Drops every chunk all attached cursors are past.
    fn trim(&mut self) {
        match self.readers.values().min() {
            Some(&slowest) => self.chunks.retain(|&index, _| index >= slowest),
            None => self.chunks.clear(),
        }
    }
}

/// One epoch of shared scanning over one table: the chunk window, whose
/// readers scope the epoch's lifetime, and the production lock.
#[derive(Debug)]
pub struct ScanGroup {
    table: Arc<Table>,
    /// Total rows this epoch serves (latched at creation; tables are
    /// frozen, so this equals `table.len()` for the epoch's lifetime).
    len: usize,
    chunk_rows: usize,
    /// The `Mutex` is also the production lock: whoever holds it and
    /// finds the needed chunk missing reads it from the table, so
    /// exactly one attacher performs each physical read burst.
    window: Mutex<Window>,
}

impl ScanGroup {
    fn new(table: Arc<Table>) -> ScanGroup {
        let chunk_rows = match table.page_rows() {
            Some(per_page) => (CHUNK_ROWS as u64).div_ceil(per_page) as usize * per_page as usize,
            None => CHUNK_ROWS,
        };
        ScanGroup {
            len: table.len(),
            table,
            chunk_rows,
            window: Mutex::new(Window::default()),
        }
    }

    fn window(&self) -> MutexGuard<'_, Window> {
        // A panic while holding the lock (a failed page read) leaves the
        // window coherent: chunks are inserted only once fully read.
        self.window
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Registers a new cursor at chunk 0 and returns its id.
    fn join(&self) -> u64 {
        let mut window = self.window();
        let id = window.next_reader;
        window.next_reader += 1;
        window.readers.insert(id, 0);
        id
    }

    /// Unregisters cursor `reader`, dropping chunks only it still held.
    /// Returns whether it was the last cursor.
    fn leave(&self, reader: u64) -> bool {
        let mut window = self.window();
        window.readers.remove(&reader);
        window.trim();
        window.readers.is_empty()
    }

    /// Chunk `index` for cursor `reader`, reading it from the table if
    /// it is not in the window; moves the cursor to it.
    fn chunk(&self, reader: u64, index: usize, stats: &ScanShareStats) -> Arc<Chunk> {
        let mut window = self.window();
        window.readers.insert(reader, index);
        let chunk = match window.chunks.get(&index) {
            Some(chunk) => Arc::clone(chunk),
            None => {
                let start = index * self.chunk_rows;
                let end = (start + self.chunk_rows).min(self.len);
                let chunk = Arc::new(self.table.read_chunk(start as RowId..end as RowId));
                stats
                    .rows_produced
                    .fetch_add((end - start) as u64, Ordering::Relaxed);
                window.chunks.insert(index, Arc::clone(&chunk));
                chunk
            }
        };
        window.trim();
        chunk
    }
}

/// The process-wide sharing registry: at most one live [`ScanGroup`]
/// per table. Held by the service and threaded into executors through
/// `RunControls`; sessions that must not share (fault-injected runs,
/// whose schedules are keyed to physical read order) simply run without
/// one.
#[derive(Debug, Default)]
pub struct ScanShare {
    /// Live epochs, keyed by table identity (`Arc` pointer — tables are
    /// interned in the `Database` catalog, so identity is stable).
    groups: Mutex<HashMap<usize, Arc<ScanGroup>>>,
    stats: ScanShareStats,
}

impl ScanShare {
    /// An empty registry.
    pub fn new() -> ScanShare {
        ScanShare::default()
    }

    /// Sharing-effectiveness counters.
    pub fn stats(&self) -> &ScanShareStats {
        &self.stats
    }

    /// Attaches a scan of `table`: joins the table's in-flight epoch if
    /// one exists, otherwise starts a new one. The returned cursor
    /// replays the full insertion-order row sequence from row 0.
    pub fn attach(self: &Arc<ScanShare>, table: &Arc<Table>) -> SharedCursor {
        let key = Arc::as_ptr(table) as usize;
        let mut groups = match self.groups.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        self.stats.attaches.fetch_add(1, Ordering::Relaxed);
        let group = match groups.get(&key) {
            Some(group) => {
                self.stats.shared_attaches.fetch_add(1, Ordering::Relaxed);
                Arc::clone(group)
            }
            None => {
                self.stats.groups.fetch_add(1, Ordering::Relaxed);
                let group = Arc::new(ScanGroup::new(Arc::clone(table)));
                groups.insert(key, Arc::clone(&group));
                group
            }
        };
        // Joined under the registry lock, where `retire` re-checks for
        // readers: a concurrent last detach cannot retire this epoch.
        let reader = group.join();
        drop(groups);
        SharedCursor {
            share: Arc::clone(self),
            group,
            key,
            reader,
            pos: 0,
            chunk: None,
            chunk_index: 0,
        }
    }

    /// Ends `group`'s epoch if it is still the registered one (a fresh
    /// epoch for the same table must not be evicted by a stale detach)
    /// and no cursor has joined it since its last reader left.
    fn retire(&self, key: usize, group: &Arc<ScanGroup>) {
        let mut groups = match self.groups.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(current) = groups.get(&key) {
            if Arc::ptr_eq(current, group) && group.window().readers.is_empty() {
                groups.remove(&key);
            }
        }
    }
}

/// One attached scan: an independent replay position over its group's
/// chunk sequence. Detaches (and possibly retires the epoch) on drop.
#[derive(Debug)]
pub struct SharedCursor {
    share: Arc<ScanShare>,
    group: Arc<ScanGroup>,
    key: usize,
    /// This cursor's id in the group's window.
    reader: u64,
    /// Next row index to serve, in `[0, group.len]`.
    pos: usize,
    /// Current chunk (avoids the production lock per row).
    chunk: Option<Arc<Chunk>>,
    chunk_index: usize,
}

impl SharedCursor {
    /// Rewinds to row 0 (operator `open` semantics — re-opened scans
    /// replay from the start, exactly like a solo scan would).
    pub fn reset(&mut self) {
        self.pos = 0;
        self.chunk = None;
    }

    /// Total rows this scan will produce.
    pub fn len(&self) -> usize {
        self.group.len
    }

    /// Whether the underlying table is empty.
    pub fn is_empty(&self) -> bool {
        self.group.len == 0
    }

    /// Chunks the group's window holds right now.
    #[cfg(test)]
    fn resident_chunks(&self) -> usize {
        self.group.window().chunks.len()
    }
}

impl Iterator for SharedCursor {
    type Item = Row;

    /// The next row in insertion order, or `None` at the end.
    fn next(&mut self) -> Option<Row> {
        if self.pos >= self.group.len {
            return None;
        }
        let rows = self.group.chunk_rows;
        let index = self.pos / rows;
        if self.chunk.is_none() || self.chunk_index != index {
            self.chunk = Some(self.group.chunk(self.reader, index, &self.share.stats));
            self.chunk_index = index;
        }
        let row = self
            .chunk
            .as_ref()
            .expect("chunk just installed")
            .row(self.pos % rows);
        self.pos += 1;
        self.share.stats.rows_served.fetch_add(1, Ordering::Relaxed);
        Some(row)
    }
}

impl Drop for SharedCursor {
    fn drop(&mut self) {
        if self.group.leave(self.reader) {
            self.share.retire(self.key, &self.group);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::value::Value;

    fn table(rows: usize) -> Arc<Table> {
        let mut t = Table::new("t", Schema::of(&[("x", ColumnType::Int)]));
        for i in 0..rows {
            t.insert_unchecked(Row::new(vec![Value::Int(i as i64)]));
        }
        Arc::new(t)
    }

    fn drain(mut cursor: SharedCursor) -> Vec<Row> {
        std::iter::from_fn(|| cursor.next()).collect()
    }

    #[test]
    fn replay_matches_a_direct_scan() {
        let t = table(2500);
        let share = Arc::new(ScanShare::new());
        let direct: Vec<Row> = (0..t.len()).map(|rid| t.row(rid as RowId)).collect();
        assert_eq!(drain(share.attach(&t)), direct);
    }

    #[test]
    fn concurrent_attachers_each_see_the_full_sequence_for_one_pass() {
        let t = table(5000);
        let share = Arc::new(ScanShare::new());
        let direct: Vec<Row> = (0..t.len()).map(|rid| t.row(rid as RowId)).collect();
        // Attach everyone before anyone runs: a drained cursor retires
        // the epoch, so attach-after-finish would start a second pass.
        let cursors: Vec<_> = (0..4).map(|_| share.attach(&t)).collect();
        let handles: Vec<_> = cursors
            .into_iter()
            .map(|cursor| std::thread::spawn(move || drain(cursor)))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), direct);
        }
        let stats = share.stats();
        assert_eq!(stats.attaches.load(Ordering::Relaxed), 4);
        assert_eq!(stats.groups.load(Ordering::Relaxed), 1);
        // One physical pass served four logical ones.
        assert_eq!(stats.rows_produced.load(Ordering::Relaxed), 5000);
        assert_eq!(stats.rows_served.load(Ordering::Relaxed), 4 * 5000);
    }

    #[test]
    fn epochs_retire_when_the_last_attacher_leaves() {
        let t = table(100);
        let share = Arc::new(ScanShare::new());
        let a = share.attach(&t);
        let b = share.attach(&t);
        assert_eq!(share.stats().shared_attaches.load(Ordering::Relaxed), 1);
        drop(a);
        drop(b);
        // The epoch is gone: a new attach starts (and pays for) a fresh
        // pass instead of replaying a stale cache.
        drop(share.attach(&t));
        assert_eq!(share.stats().groups.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn dropping_mid_scan_detaches_without_disturbing_others() {
        let t = table(3000);
        let share = Arc::new(ScanShare::new());
        let mut quitter = share.attach(&t);
        let survivor = share.attach(&t);
        for _ in 0..10 {
            quitter.next();
        }
        drop(quitter);
        let direct: Vec<Row> = (0..t.len()).map(|rid| t.row(rid as RowId)).collect();
        assert_eq!(drain(survivor), direct);
    }

    #[test]
    fn reset_replays_from_row_zero() {
        let t = table(50);
        let share = Arc::new(ScanShare::new());
        let mut cursor = share.attach(&t);
        for _ in 0..30 {
            cursor.next();
        }
        cursor.reset();
        let direct: Vec<Row> = (0..t.len()).map(|rid| t.row(rid as RowId)).collect();
        assert_eq!(drain(cursor), direct);
        // The replay cost no second physical pass.
        assert_eq!(share.stats().rows_produced.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn a_solo_cursor_holds_a_window_not_the_table() {
        let t = table(5 * CHUNK_ROWS + 100);
        let share = Arc::new(ScanShare::new());
        let mut cursor = share.attach(&t);
        let mut rows = Vec::new();
        while let Some(row) = cursor.next() {
            rows.push(row);
            assert!(cursor.resident_chunks() <= 2, "row {}", rows.len());
        }
        let direct: Vec<Row> = (0..t.len()).map(|rid| t.row(rid as RowId)).collect();
        assert_eq!(rows, direct);
        assert_eq!(
            share.stats().rows_produced.load(Ordering::Relaxed),
            t.len() as u64
        );
    }

    #[test]
    fn a_late_attacher_rereads_the_dropped_prefix() {
        let t = table(5000);
        let share = Arc::new(ScanShare::new());
        let direct: Vec<Row> = (0..t.len()).map(|rid| t.row(rid as RowId)).collect();
        let mut leader = share.attach(&t);
        let lead = 3 * CHUNK_ROWS + 10;
        let mut leader_rows: Vec<Row> = leader.by_ref().take(lead).collect();
        // The leader is in chunk 3; chunks 0..3 are gone.
        assert_eq!(leader.resident_chunks(), 1);
        let late = share.attach(&t);
        assert_eq!(share.stats().shared_attaches.load(Ordering::Relaxed), 1);
        assert_eq!(drain(late), direct);
        leader_rows.extend(leader.by_ref());
        assert_eq!(leader_rows, direct);
        let prefix = 3 * CHUNK_ROWS as u64;
        assert_eq!(
            share.stats().rows_produced.load(Ordering::Relaxed),
            t.len() as u64 + prefix
        );
    }

    #[test]
    fn empty_table_attaches_and_ends_immediately() {
        let t = table(0);
        let share = Arc::new(ScanShare::new());
        let mut cursor = share.attach(&t);
        assert!(cursor.is_empty());
        assert_eq!(cursor.next(), None);
    }
}
