//! Tables: in-memory heaps and paged (disk-backed) row stores behind
//! one scan/lookup interface.

use crate::codec::decode_row;
use crate::error::{StorageError, StorageResult};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use qp_pager::{read_cell, BufferPool, PageId, PageRef, Pager, PAGE_SIZE};
use std::ops::Range;
use std::sync::Arc;

/// Position of a row within its table's heap. Stable: this engine is
/// insert-only (the paper's experiments never update or delete during
/// a measured query).
pub type RowId = u64;

/// How a table's rows are stored.
///
/// The executor never sees this: both backends sit behind the same
/// `row`/`scan`/`len` interface and return identical rows, so query
/// results, per-node counters, and `total(Q)` are byte-identical across
/// backends (the parallel equivalence matrix asserts exactly that).
/// What differs is the *cost* of a row read — a heap read is a `Vec`
/// index, a paged read is a buffer-pool lookup that may miss to disk —
/// which is the paper's Section 7 "uniformity of work per GetNext"
/// caveat made concrete.
enum Backend {
    /// Rows in a `Vec`, insertion order.
    Heap(Vec<Row>),
    /// Rows in fixed-stride slotted pages behind a shared buffer pool.
    Paged(PagedRows),
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Heap(rows) => write!(f, "Heap({} rows)", rows.len()),
            Backend::Paged(p) => write!(
                f,
                "Paged({} rows, {} per page, file {:?})",
                p.len,
                p.rows_per_page,
                p.pager.path()
            ),
        }
    }
}

/// The paged backend: row `rid` lives in slot `rid % rows_per_page` of
/// page `first_data_page + rid / rows_per_page`. The fixed stride makes
/// the rid → page mapping pure arithmetic (no page directory), which is
/// what lets morsels align to page boundaries for free.
pub(crate) struct PagedRows {
    pub(crate) pager: Arc<Pager>,
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) first_data_page: PageId,
    pub(crate) rows_per_page: u64,
    pub(crate) len: u64,
}

impl PagedRows {
    /// The page and slot holding row `rid`.
    fn locate(&self, rid: RowId) -> (PageId, usize) {
        (
            self.first_data_page + rid / self.rows_per_page,
            (rid % self.rows_per_page) as usize,
        )
    }

    fn pin(&self, page: PageId) -> PageRef<'_> {
        self.pool
            .get(&self.pager, page)
            .unwrap_or_else(|e| panic!("paged read of page {page}: {e}"))
    }

    fn row(&self, rid: RowId) -> Row {
        let (page, slot) = self.locate(rid);
        decode_slot(&self.pin(page), page, slot)
    }

    /// Pins each page covering `rids` once and keeps its image.
    fn read_chunk(&self, rids: Range<RowId>) -> Chunk {
        let (first_page, first_slot) = self.locate(rids.start);
        let len = rids.end.saturating_sub(rids.start);
        let page_count = match len {
            0 => 0,
            _ => (first_slot as u64 + len).div_ceil(self.rows_per_page),
        };
        Chunk(ChunkRows::Paged {
            pages: (first_page..first_page + page_count)
                .map(|page| self.pin(page).image())
                .collect(),
            first_page,
            first_slot,
            rows_per_page: self.rows_per_page as usize,
            len: len as usize,
        })
    }
}

/// Decodes the row in `slot` of a page image (`page` names it in the
/// panic message). Paged tables are bulk-loaded and read-only, so an
/// image stays valid however long it is held.
fn decode_slot(image: &[u8; PAGE_SIZE], page: PageId, slot: usize) -> Row {
    let cell =
        read_cell(image, slot).unwrap_or_else(|| panic!("page {page}: no cell in slot {slot}"));
    decode_row(cell).unwrap_or_else(|e| panic!("page {page} slot {slot}: {e}"))
}

/// A run of consecutive rows read by [`Table::read_chunk`]. A heap
/// chunk holds the rows; a paged chunk holds the images of the pages
/// that cover the run, each pinned once, and decodes a row only when
/// [`Chunk::row`] asks for it.
#[derive(Debug)]
pub struct Chunk(ChunkRows);

enum ChunkRows {
    Heap(Arc<[Row]>),
    Paged {
        pages: Vec<Arc<[u8; PAGE_SIZE]>>,
        first_page: PageId,
        /// Slot of the chunk's first row in `pages[0]`.
        first_slot: usize,
        rows_per_page: usize,
        len: usize,
    },
}

impl std::fmt::Debug for ChunkRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkRows::Heap(rows) => write!(f, "Heap({} rows)", rows.len()),
            ChunkRows::Paged { pages, len, .. } => {
                write!(f, "Paged({len} rows on {} pages)", pages.len())
            }
        }
    }
}

impl Chunk {
    /// Rows in the chunk.
    pub fn len(&self) -> usize {
        match &self.0 {
            ChunkRows::Heap(rows) => rows.len(),
            ChunkRows::Paged { len, .. } => *len,
        }
    }

    /// Whether the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The chunk's `i`-th row. Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> Row {
        match &self.0 {
            ChunkRows::Heap(rows) => rows[i].clone(),
            ChunkRows::Paged {
                pages,
                first_page,
                first_slot,
                rows_per_page,
                len,
            } => {
                assert!(i < *len, "chunk row {i} of {len}");
                let at = first_slot + i;
                let page = at / rows_per_page;
                decode_slot(
                    &pages[page],
                    first_page + page as PageId,
                    at % rows_per_page,
                )
            }
        }
    }
}

/// A table: a schema plus rows in insertion order, stored in either the
/// in-memory heap backend or the paged backend (see [`crate::paged`]).
///
/// Insertion order matters: the paper studies how the **order in which
/// tuples are retrieved from the driver node** affects estimator accuracy
/// (Section 4.2, "predictive orders"), and a table scan returns rows in
/// exactly this order — both backends preserve it. The data generators in
/// `qp-datagen` produce tables in controlled orders (random / sorted /
/// skew-first / skew-last).
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    backend: Backend,
}

impl Table {
    /// Creates an empty heap table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table {
            name: name.into(),
            schema,
            backend: Backend::Heap(Vec::new()),
        }
    }

    /// Creates a paged table over an already-loaded page file. Only the
    /// `paged` module constructs these (via `open_database`/`open_table`).
    pub(crate) fn paged(name: impl Into<String>, schema: Schema, rows: PagedRows) -> Table {
        Table {
            name: name.into(),
            schema,
            backend: Backend::Paged(rows),
        }
    }

    /// Whether this table reads through the buffer pool.
    pub fn is_paged(&self) -> bool {
        matches!(self.backend, Backend::Paged(_))
    }

    /// Rows per page for a paged table (`None` on heaps). Scan morsels
    /// sized in multiples of this never split a page across workers.
    pub fn page_rows(&self) -> Option<u64> {
        match &self.backend {
            Backend::Heap(_) => None,
            Backend::Paged(p) => Some(p.rows_per_page),
        }
    }

    fn heap_rows(&self) -> &Vec<Row> {
        match &self.backend {
            Backend::Heap(rows) => rows,
            Backend::Paged(_) => panic!(
                "table {}: operation requires the heap backend (paged tables are bulk-loaded and read-only)",
                self.name
            ),
        }
    }

    fn heap_rows_mut(&mut self) -> &mut Vec<Row> {
        match &mut self.backend {
            Backend::Heap(rows) => rows,
            Backend::Paged(_) => panic!(
                "table {}: operation requires the heap backend (paged tables are bulk-loaded and read-only)",
                self.name
            ),
        }
    }

    /// Table name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Exact cardinality. Progress estimators may use this (Section 5.1:
    /// base-relation cardinality "is accurately available from the database
    /// catalogs").
    #[inline]
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(rows) => rows.len(),
            Backend::Paged(p) => p.len as usize,
        }
    }

    /// True if the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a row after validating it against the schema.
    pub fn insert(&mut self, row: Row) -> StorageResult<RowId> {
        if row.arity() != self.schema.arity() {
            return Err(StorageError::SchemaMismatch(format!(
                "table {}: expected {} columns, got {}",
                self.name,
                self.schema.arity(),
                row.arity()
            )));
        }
        for (i, v) in row.values().iter().enumerate() {
            let col = self.schema.column(i);
            if !col.ty.admits(v) {
                return Err(StorageError::SchemaMismatch(format!(
                    "table {}: column {} ({}) cannot hold {v:?}",
                    self.name, col.name, col.ty
                )));
            }
        }
        let rows = self.heap_rows_mut();
        let rid = rows.len() as RowId;
        rows.push(row);
        Ok(rid)
    }

    /// Appends a row without schema validation. Used by bulk loaders that
    /// construct rows straight from a typed generator.
    #[inline]
    pub fn insert_unchecked(&mut self, row: Row) -> RowId {
        let rows = self.heap_rows_mut();
        let rid = rows.len() as RowId;
        rows.push(row);
        rid
    }

    /// Bulk-inserts rows built from value vectors, validating each.
    pub fn load(&mut self, rows: impl IntoIterator<Item = Vec<Value>>) -> StorageResult<usize> {
        let mut n = 0;
        for vals in rows {
            self.insert(Row::new(vals))?;
            n += 1;
        }
        Ok(n)
    }

    /// Row by id, owned. A heap read is an `Arc` refcount bump; a paged
    /// read pins the page in the buffer pool (possibly missing to disk)
    /// and decodes the cell. Panics if out of range or if the page file
    /// is corrupt (row ids come from this table's own indexes, so a miss
    /// is a logic error, not a user error — and corruption is caught by
    /// WAL recovery at open, not at read time).
    #[inline]
    pub fn row(&self, rid: RowId) -> Row {
        match &self.backend {
            Backend::Heap(rows) => rows[rid as usize].clone(),
            Backend::Paged(p) => p.row(rid),
        }
    }

    /// Rows `rids` as one [`Chunk`]. A heap chunk copies the rows (an
    /// `Arc` bump each); a paged chunk pins each covering page once —
    /// possibly missing to disk — and defers decoding to [`Chunk::row`].
    /// Panics if the range runs past the table.
    pub fn read_chunk(&self, rids: Range<RowId>) -> Chunk {
        assert!(
            rids.end as usize <= self.len(),
            "table {}: chunk {rids:?} past {} rows",
            self.name,
            self.len()
        );
        match &self.backend {
            Backend::Heap(rows) => Chunk(ChunkRows::Heap(
                rows[rids.start as usize..rids.end as usize].into(),
            )),
            Backend::Paged(p) => p.read_chunk(rids),
        }
    }

    /// All rows as a slice, heap backend only (paged rows do not live
    /// contiguously in memory — iterate [`Table::scan`] instead).
    #[inline]
    pub fn rows(&self) -> &[Row] {
        self.heap_rows()
    }

    /// Iterator over `(rid, row)` in insertion order, on any backend.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, Row)> + '_ {
        (0..self.len() as RowId).map(move |rid| (rid, self.row(rid)))
    }

    /// Reorders the rows of the table in place according to `perm`, where
    /// the new row `i` is the old row `perm[i]`. Invalidates indexes; the
    /// catalog rebuilds them. Used by the data generators to realize the
    /// paper's adversarial input orders.
    pub fn reorder(&mut self, perm: &[usize]) {
        let rows = self.heap_rows_mut();
        assert_eq!(perm.len(), rows.len(), "permutation length mismatch");
        let mut new_rows = Vec::with_capacity(rows.len());
        for &p in perm {
            new_rows.push(rows[p].clone());
        }
        *rows = new_rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn t() -> Table {
        Table::new(
            "t",
            Schema::of(&[("a", ColumnType::Int), ("b", ColumnType::Str)]),
        )
    }

    #[test]
    fn insert_validates_arity() {
        let mut tab = t();
        let err = tab.insert(Row::new(vec![Value::Int(1)])).unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch(_)));
    }

    #[test]
    fn insert_validates_types() {
        let mut tab = t();
        let err = tab
            .insert(Row::new(vec![Value::str("x"), Value::str("y")]))
            .unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch(_)));
        // NULL is admissible anywhere.
        tab.insert(Row::new(vec![Value::Null, Value::Null]))
            .unwrap();
    }

    #[test]
    fn scan_preserves_insertion_order() {
        let mut tab = t();
        for i in 0..10 {
            tab.insert(Row::new(vec![Value::Int(i), Value::str("x")]))
                .unwrap();
        }
        let got: Vec<i64> = tab
            .scan()
            .map(|(_, r)| r.get(0).as_i64().unwrap())
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reorder_applies_permutation() {
        let mut tab = t();
        for i in 0..4 {
            tab.insert(Row::new(vec![Value::Int(i), Value::str("x")]))
                .unwrap();
        }
        tab.reorder(&[3, 1, 0, 2]);
        let got: Vec<i64> = tab
            .rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        assert_eq!(got, vec![3, 1, 0, 2]);
    }

    #[test]
    fn row_ids_are_positions() {
        let mut tab = t();
        let r0 = tab
            .insert(Row::new(vec![Value::Int(7), Value::str("a")]))
            .unwrap();
        let r1 = tab
            .insert(Row::new(vec![Value::Int(8), Value::str("b")]))
            .unwrap();
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(tab.row(r1).get(0), &Value::Int(8));
    }
}
