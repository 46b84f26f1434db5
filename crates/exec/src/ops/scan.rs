//! Leaf operators: sequential scan and B+Tree range scan.
//!
//! Both pull input *positions* from a [`MorselDispenser`] through a
//! [`MorselCursor`]. A serial scan is the one-worker case: it owns a
//! whole-input dispenser and rebuilds it at every `open`. A parallel scan
//! is the same operator handed an exchange's [`MorselFeed`], stealing
//! morsels from the dispenser its sibling workers share.

use crate::context::{ExecContext, Operator};
use crate::error::ExecResult;
use qp_storage::{
    IndexMeta, MorselDispenser, Row, RowId, ScanShare, Schema, SharedCursor, Table, Value,
};
use std::ops::{Bound, Range};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One exchange worker's handle on its exchange: the dispenser all sibling
/// workers steal from, and the cell through which this worker's leaf
/// publishes the index of each morsel it claims (the exchange reads it to
/// attribute produced batches for the order-restoring merge).
#[derive(Clone)]
pub(crate) struct MorselFeed {
    pub dispenser: Arc<MorselDispenser>,
    pub tag: Arc<AtomicUsize>,
}

/// A scan's window onto its input positions: the current claim, and who
/// hands out the next one.
struct MorselCursor {
    dispenser: Arc<MorselDispenser>,
    /// Exchange workers only: the tag cell and the forked context whose
    /// fault schedule is re-derived per claimed morsel. A serial scan has
    /// neither — it owns `dispenser` outright.
    worker: Option<(Arc<AtomicUsize>, Arc<ExecContext>)>,
    /// Next / one-past-last input position of the current morsel
    /// (`pos == end` ⇒ claim before producing).
    pos: usize,
    end: usize,
}

impl MorselCursor {
    fn new(ctx: &Arc<ExecContext>, feed: Option<MorselFeed>) -> MorselCursor {
        let (dispenser, worker) = match feed {
            Some(feed) => (feed.dispenser, Some((feed.tag, Arc::clone(ctx)))),
            None => (Arc::new(MorselDispenser::new(0, 0)), None),
        };
        MorselCursor {
            dispenser,
            worker,
            pos: 0,
            end: 0,
        }
    }

    /// `open` over `len` input positions. A serial scan starts over on a
    /// fresh whole-input dispenser, which is what makes it re-openable; a
    /// worker binds the shared dispenser (first bind wins, the rest
    /// validate) and never rewinds it — an exchange opens exactly once.
    fn rewind(&mut self, len: usize) {
        match self.worker {
            None => self.dispenser = Arc::new(MorselDispenser::new(len, 0)),
            Some(_) => self.dispenser.bind(len),
        }
        self.pos = 0;
        self.end = 0;
    }

    /// Claims the next morsel; a worker also publishes its index as the
    /// tag and installs its derived fault schedule into the fork. Returns
    /// `false` when the input is exhausted.
    fn claim(&mut self) -> bool {
        let Some(m) = self.dispenser.claim() else {
            return false;
        };
        if let Some((tag, ctx)) = &self.worker {
            // The tag is read by this worker's own drive loop between
            // batches (same thread), so Relaxed suffices.
            tag.store(m.index, Ordering::Relaxed);
            ctx.install_morsel_faults(m.index, self.dispenser.morsel_count());
        }
        self.pos = m.start;
        self.end = m.end;
        true
    }

    /// The next input position, claiming as needed; `None` at the end.
    #[inline]
    fn next_pos(&mut self) -> Option<usize> {
        while self.pos >= self.end {
            if !self.claim() {
                return None;
            }
        }
        self.pos += 1;
        Some(self.pos - 1)
    }

    /// Up to `max` consecutive positions, `None` at the end. At most one
    /// claim per call and a run never crosses a morsel boundary, so the
    /// exchange re-reads the tag between any two morsels' rows.
    fn next_run(&mut self, max: usize) -> Option<Range<usize>> {
        if self.pos >= self.end && !self.claim() {
            return None;
        }
        let run = self.pos..self.pos + max.min(self.end - self.pos);
        self.pos = run.end;
        Some(run)
    }
}

/// Where a sequential scan fetches the row at a position from.
enum RowSource {
    /// [`Table::row`]: a heap index or a buffer-pool read.
    Table,
    /// The table's in-flight [`ScanShare`] epoch (started if none is):
    /// the same rows in the same order with the same getnext counts, but
    /// N concurrent scans of one table cost ~1 physical pass. The cursor
    /// replays from row 0 in order — exactly the positions a serial scan's
    /// single whole-input morsel walks, so the two advance in lockstep.
    Shared {
        share: Arc<ScanShare>,
        /// Attached at `open`, not at build — a plan node that never opens
        /// must not hold an epoch alive — and detached at `close`.
        cursor: Option<SharedCursor>,
    },
}

/// Scan of a table in insertion order — the order the paper's input-order
/// analysis (Section 4.2) is about. Under an exchange, rows come out in
/// input order *within* each claimed morsel and the exchange restores the
/// global order by merging in morsel-index order, so the parallel result
/// stays byte-identical to the serial one.
pub struct SeqScanOp {
    table: Arc<Table>,
    source: RowSource,
    cursor: MorselCursor,
}

impl SeqScanOp {
    pub(crate) fn new(
        table: Arc<Table>,
        ctx: &Arc<ExecContext>,
        feed: Option<MorselFeed>,
    ) -> SeqScanOp {
        // Only a serial scan replays a shared epoch: workers steal
        // morsels out of order, and work stealing already amortizes the
        // pass across that query's own workers.
        let source = match (ctx.scan_share(), &feed) {
            (Some(share), None) => RowSource::Shared {
                share: Arc::clone(share),
                cursor: None,
            },
            _ => RowSource::Table,
        };
        SeqScanOp {
            table,
            source,
            cursor: MorselCursor::new(ctx, feed),
        }
    }
}

impl Operator for SeqScanOp {
    fn open(&mut self) -> ExecResult<()> {
        if let RowSource::Shared { share, cursor } = &mut self.source {
            cursor
                .get_or_insert_with(|| share.attach(&self.table))
                .reset();
        }
        self.cursor.rewind(self.table.len());
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        let Some(pos) = self.cursor.next_pos() else {
            return Ok(None);
        };
        Ok(match &mut self.source {
            RowSource::Table => Some(self.table.row(pos as RowId)),
            RowSource::Shared { cursor, .. } => cursor.as_mut().and_then(Iterator::next),
        })
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> ExecResult<bool> {
        let Some(run) = self.cursor.next_run(max) else {
            return Ok(false);
        };
        out.reserve(run.len());
        match &mut self.source {
            RowSource::Table => out.extend(run.map(|pos| self.table.row(pos as RowId))),
            RowSource::Shared { cursor, .. } => {
                if let Some(cursor) = cursor {
                    out.extend(cursor.by_ref().take(run.len()));
                }
            }
        }
        Ok(true)
    }

    fn close(&mut self) {
        // Detach promptly: a finished scan must not pin the epoch (and
        // its row cache) until the operator tree drops.
        if let RowSource::Shared { cursor, .. } = &mut self.source {
            *cursor = None;
        }
    }

    fn schema(&self) -> &Schema {
        self.table.schema()
    }
}

/// Range scan over a B+Tree index (`index-seek`). Matching row ids are
/// collected at `open` (the tree iterator borrows the index, and operators
/// are long-lived), then rows are fetched lazily by position in that list.
/// Under an exchange every worker walks the same immutable range, so all
/// bind the shared dispenser to the same length.
pub struct IndexRangeScanOp {
    table: Arc<Table>,
    index: Arc<IndexMeta>,
    lo: Bound<Vec<Value>>,
    hi: Bound<Vec<Value>>,
    rids: Vec<RowId>,
    cursor: MorselCursor,
}

impl IndexRangeScanOp {
    pub(crate) fn new(
        table: Arc<Table>,
        index: Arc<IndexMeta>,
        lo: Bound<Vec<Value>>,
        hi: Bound<Vec<Value>>,
        ctx: &Arc<ExecContext>,
        feed: Option<MorselFeed>,
    ) -> IndexRangeScanOp {
        IndexRangeScanOp {
            table,
            index,
            lo,
            hi,
            rids: Vec::new(),
            cursor: MorselCursor::new(ctx, feed),
        }
    }
}

impl Operator for IndexRangeScanOp {
    fn open(&mut self) -> ExecResult<()> {
        let lo = match &self.lo {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => Bound::Included(k.as_slice()),
            Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
        };
        self.rids = self
            .index
            .tree
            .range(lo, self.hi.clone())
            .map(|(_, rid)| rid)
            .collect();
        self.cursor.rewind(self.rids.len());
        Ok(())
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        Ok(self
            .cursor
            .next_pos()
            .map(|pos| self.table.row(self.rids[pos])))
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> ExecResult<bool> {
        let Some(run) = self.cursor.next_run(max) else {
            return Ok(false);
        };
        out.reserve(run.len());
        out.extend(self.rids[run].iter().map(|&rid| self.table.row(rid)));
        Ok(true)
    }

    fn close(&mut self) {
        self.rids = Vec::new();
    }

    fn schema(&self) -> &Schema {
        self.table.schema()
    }
}
