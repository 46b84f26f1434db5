//! Persistence: saving databases to page files and opening them back
//! through the buffer pool.
//!
//! One page file + one WAL per table, plus a `MANIFEST` naming the
//! tables and index definitions, all inside a database directory:
//!
//! ```text
//! <dir>/MANIFEST          table lineitem / index li_ok lineitem 0 0 ...
//! <dir>/lineitem.qpt      page 0 pager header · page 1 table meta ·
//! <dir>/lineitem.wal      pages 2.. data (fixed rows-per-page stride)
//! ```
//!
//! Every mutation of a page file — the initial bulk load and any later
//! [`append_rows`] — is **one WAL transaction**: page images (header
//! and meta pages included) are staged in the log, the commit record is
//! fsynced, and only then does the data file change. A crash anywhere
//! leaves the file either exactly pre- or exactly post-transaction;
//! [`open_table`] replays the WAL before first read. The data file is
//! *never* written outside a committed transaction, which is what makes
//! the crash-recovery matrix's byte-identical comparison possible.
//!
//! The row layout is a fixed stride: `rows_per_page` is computed from
//! the widest encoded row at save time, so `rid → (page, slot)` is pure
//! arithmetic and scans need no page directory. Appended rows must fit
//! the established stride (they come from the same generators, so they
//! do; a wider row is a loud error, not silent corruption).

use crate::catalog::Database;
use crate::codec::{encode_row, encoded_len};
use crate::error::{StorageError, StorageResult};
use crate::row::Row;
use crate::schema::{Column, ColumnType, Schema};
use crate::table::{PagedRows, Table};
use qp_pager::{
    read_cell, BufferPool, CrashPoint, PageId, Pager, PagerError, SlottedPage, Wal, PAGE_SIZE,
};
use std::path::Path;
use std::sync::Arc;

/// Page 1 of every table file: name, schema, row count, stride.
const META_PAGE: PageId = 1;
const FIRST_DATA_PAGE: PageId = 2;

fn io_err(e: PagerError) -> StorageError {
    StorageError::ReadFailed(e.to_string())
}

fn ty_code(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Bool => 0,
        ColumnType::Int => 1,
        ColumnType::Float => 2,
        ColumnType::Str => 3,
        ColumnType::Date => 4,
    }
}

fn ty_from_code(code: u8) -> StorageResult<ColumnType> {
    Ok(match code {
        0 => ColumnType::Bool,
        1 => ColumnType::Int,
        2 => ColumnType::Float,
        3 => ColumnType::Str,
        4 => ColumnType::Date,
        other => {
            return Err(StorageError::ReadFailed(format!(
                "meta page: unknown column type code {other}"
            )))
        }
    })
}

struct TableMeta {
    name: String,
    schema: Schema,
    row_count: u64,
    rows_per_page: u64,
}

fn encode_meta(meta: &TableMeta) -> [u8; PAGE_SIZE] {
    let mut blob = Vec::new();
    blob.extend_from_slice(&(meta.name.len() as u16).to_le_bytes());
    blob.extend_from_slice(meta.name.as_bytes());
    blob.extend_from_slice(&meta.row_count.to_le_bytes());
    blob.extend_from_slice(&meta.rows_per_page.to_le_bytes());
    blob.extend_from_slice(&(meta.schema.arity() as u16).to_le_bytes());
    for col in meta.schema.columns() {
        blob.push(ty_code(col.ty));
        blob.extend_from_slice(&(col.name.len() as u16).to_le_bytes());
        blob.extend_from_slice(col.name.as_bytes());
    }
    let mut page = SlottedPage::new();
    page.push(&blob).expect("table meta exceeds one page");
    *page.bytes()
}

fn decode_meta(image: &[u8; PAGE_SIZE]) -> StorageResult<TableMeta> {
    let corrupt = |what: &str| StorageError::ReadFailed(format!("meta page corrupt: {what}"));
    let blob = read_cell(image, 0).ok_or_else(|| corrupt("no meta cell"))?;
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> StorageResult<&[u8]> {
        let end = *pos + n;
        let s = blob.get(*pos..end).ok_or_else(|| corrupt("truncated"))?;
        *pos = end;
        Ok(s)
    };
    let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
    let name = std::str::from_utf8(take(&mut pos, name_len)?)
        .map_err(|_| corrupt("non-utf8 name"))?
        .to_string();
    let row_count = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
    let rows_per_page = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
    if rows_per_page == 0 {
        return Err(corrupt("zero rows per page"));
    }
    let arity = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
    let mut cols = Vec::with_capacity(arity);
    for _ in 0..arity {
        let ty = ty_from_code(take(&mut pos, 1)?[0])?;
        let len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
        let cname = std::str::from_utf8(take(&mut pos, len)?)
            .map_err(|_| corrupt("non-utf8 column name"))?
            .to_string();
        cols.push(Column::new(cname, ty));
    }
    Ok(TableMeta {
        name,
        schema: Schema::new(cols),
        row_count,
        rows_per_page,
    })
}

fn data_path(dir: &Path, table: &str) -> std::path::PathBuf {
    dir.join(format!("{table}.qpt"))
}

fn wal_path(dir: &Path, table: &str) -> std::path::PathBuf {
    dir.join(format!("{table}.wal"))
}

/// Rows-per-page stride for rows whose widest encoding is `max_len`.
fn stride_for(max_len: usize) -> StorageResult<u64> {
    // SlottedPage: 4-byte header + 4 bytes of slot directory per cell;
    // cells stop at PAGE_PAYLOAD_END (the checksum trailer is reserved).
    let usable = qp_pager::PAGE_PAYLOAD_END - 4;
    if max_len + 4 > usable {
        return Err(StorageError::SchemaMismatch(format!(
            "row encodes to {max_len} bytes; the page format fits at most {} ",
            usable - 4
        )));
    }
    Ok((usable / (max_len + 4)).max(1) as u64)
}

/// Packs `rows[start..]` into data-page images at the fixed stride,
/// appending `(page_id, image)` pairs to `out`.
fn pack_pages(
    rows: &[Row],
    rows_per_page: u64,
    first_free_slot_page: Option<(PageId, SlottedPage)>,
    next_new_page: PageId,
    out: &mut Vec<(PageId, [u8; PAGE_SIZE])>,
) -> StorageResult<()> {
    let mut current: (PageId, SlottedPage) = match first_free_slot_page {
        Some((id, page)) => (id, page),
        None => (next_new_page, SlottedPage::new()),
    };
    let mut next_page = next_new_page.max(current.0 + 1);
    let mut buf = Vec::new();
    for row in rows {
        if current.1.slot_count() as u64 == rows_per_page {
            out.push((current.0, *current.1.bytes()));
            current = (next_page, SlottedPage::new());
            next_page += 1;
        }
        buf.clear();
        encode_row(row, &mut buf);
        if current.1.push(&buf).is_none() {
            return Err(StorageError::SchemaMismatch(format!(
                "row of {} bytes does not fit the table's page stride ({rows_per_page}/page)",
                buf.len()
            )));
        }
    }
    out.push((current.0, *current.1.bytes()));
    Ok(())
}

/// Writes `table` into `dir` as one committed WAL transaction,
/// replacing any previous file. `crash` injects a simulated power cut
/// for the recovery tests.
pub fn save_table(table: &Table, dir: &Path, crash: Option<CrashPoint>) -> StorageResult<()> {
    std::fs::create_dir_all(dir).map_err(|e| StorageError::ReadFailed(e.to_string()))?;
    let rows: Vec<Row> = table.scan().map(|(_, r)| r).collect();
    let max_len = rows.iter().map(encoded_len).max().unwrap_or(1);
    let rows_per_page = stride_for(max_len)?;
    let data_pages = rows.len().div_ceil(rows_per_page as usize).max(1) as u64;
    let page_count = FIRST_DATA_PAGE + data_pages;

    let mut pages: Vec<(PageId, [u8; PAGE_SIZE])> = Vec::with_capacity(page_count as usize);
    pages.push((0, Pager::header_image(page_count, 0)));
    pages.push((
        META_PAGE,
        encode_meta(&TableMeta {
            name: table.name().to_string(),
            schema: table.schema().clone(),
            row_count: rows.len() as u64,
            rows_per_page,
        }),
    ));
    pack_pages(&rows, rows_per_page, None, FIRST_DATA_PAGE, &mut pages)?;

    let data = data_path(dir, table.name());
    // A fresh save replaces the file wholesale; a stale longer file
    // would otherwise keep tail pages the new image does not cover.
    let _ = std::fs::remove_file(&data);
    let wal = Wal::new(&wal_path(dir, table.name()));
    let mut txn = wal.begin();
    for (id, image) in &pages {
        txn.log_page(*id, image);
    }
    txn.commit(&data, crash).map_err(io_err)
}

/// Appends rows to an existing table file as one committed WAL
/// transaction (the update path the crash matrix exercises). The rows
/// must fit the stride established at save time.
pub fn append_rows(
    dir: &Path,
    table: &str,
    rows: &[Row],
    crash: Option<CrashPoint>,
) -> StorageResult<()> {
    if rows.is_empty() {
        return Ok(());
    }
    let data = data_path(dir, table);
    let wal = Wal::new(&wal_path(dir, table));
    wal.recover(&data).map_err(io_err)?;
    let pager = Pager::open(&data).map_err(io_err)?;
    let mut meta_img = [0u8; PAGE_SIZE];
    pager.read_page(META_PAGE, &mut meta_img).map_err(io_err)?;
    let mut meta = decode_meta(&meta_img)?;

    // Resume packing at the last (possibly partial) data page.
    let last = if meta.row_count == 0 {
        None
    } else {
        let id = FIRST_DATA_PAGE + (meta.row_count - 1) / meta.rows_per_page;
        let mut img = [0u8; PAGE_SIZE];
        pager.read_page(id, &mut img).map_err(io_err)?;
        Some((id, SlottedPage::from_bytes(img)))
    };
    let old_page_count = pager.page_count();
    drop(pager);

    let mut pages: Vec<(PageId, [u8; PAGE_SIZE])> = Vec::new();
    pack_pages(rows, meta.rows_per_page, last, old_page_count, &mut pages)?;
    let new_page_count = pages
        .iter()
        .map(|(id, _)| id + 1)
        .max()
        .unwrap_or(old_page_count)
        .max(old_page_count);
    meta.row_count += rows.len() as u64;
    pages.push((META_PAGE, encode_meta(&meta)));
    pages.push((0, Pager::header_image(new_page_count, 0)));

    let mut txn = wal.begin();
    for (id, image) in &pages {
        txn.log_page(*id, image);
    }
    txn.commit(&data, crash).map_err(io_err)
}

/// Opens one table from `dir`, replaying its WAL first, reading rows
/// through `pool`.
pub fn open_table(dir: &Path, table: &str, pool: &Arc<BufferPool>) -> StorageResult<Table> {
    let data = data_path(dir, table);
    let wal = Wal::new(&wal_path(dir, table));
    let replayed = wal.recover(&data).map_err(io_err)?;
    let pager = Arc::new(Pager::open(&data).map_err(io_err)?);
    if replayed {
        // The file changed underneath any frames a previous open cached.
        pool.invalidate(pager.tag()).map_err(io_err)?;
    }
    let mut meta_img = [0u8; PAGE_SIZE];
    pager.read_page(META_PAGE, &mut meta_img).map_err(io_err)?;
    let meta = decode_meta(&meta_img)?;
    if meta.name != table {
        return Err(StorageError::ReadFailed(format!(
            "{}: file says table {:?}, expected {:?}",
            data.display(),
            meta.name,
            table
        )));
    }
    Ok(Table::paged(
        meta.name,
        meta.schema,
        PagedRows {
            pager,
            pool: Arc::clone(pool),
            first_data_page: FIRST_DATA_PAGE,
            rows_per_page: meta.rows_per_page,
            len: meta.row_count,
        },
    ))
}

/// Saves every table of `db` into `dir` (each its own WAL transaction)
/// plus a `MANIFEST` recording tables and index definitions.
pub fn save_database(db: &Database, dir: &Path) -> StorageResult<()> {
    std::fs::create_dir_all(dir).map_err(|e| StorageError::ReadFailed(e.to_string()))?;
    let mut manifest = String::new();
    for name in db.table_names() {
        save_table(db.table(name)?.as_ref(), dir, None)?;
        manifest.push_str(&format!("table {name}\n"));
    }
    for ix in db.index_metas() {
        let cols: Vec<String> = ix.key_columns.iter().map(|c| c.to_string()).collect();
        manifest.push_str(&format!(
            "index {} {} {} {}\n",
            ix.name,
            ix.table,
            u8::from(ix.unique),
            cols.join(",")
        ));
    }
    std::fs::write(dir.join("MANIFEST"), manifest)
        .map_err(|e| StorageError::ReadFailed(e.to_string()))
}

/// Opens a database directory: replays every table's WAL, wires all
/// tables to one shared buffer pool of `frames` frames, and rebuilds
/// the indexes named in the `MANIFEST` (index trees live in memory;
/// only rows are paged).
pub fn open_database(dir: &Path, frames: usize) -> StorageResult<Database> {
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).map_err(|e| {
        StorageError::ReadFailed(format!("{}: {e}", dir.join("MANIFEST").display()))
    })?;
    let pool = Arc::new(BufferPool::new(frames));
    let mut db = Database::new();
    db.set_buffer_pool(Arc::clone(&pool));
    for line in manifest.lines() {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("table") => {
                let name = parts
                    .next()
                    .ok_or_else(|| StorageError::ReadFailed("MANIFEST: bare table line".into()))?;
                db.add_table(open_table(dir, name, &pool)?)?;
            }
            Some("index") => {
                let bad = || StorageError::ReadFailed(format!("MANIFEST: bad index line {line:?}"));
                let name = parts.next().ok_or_else(bad)?;
                let table = parts.next().ok_or_else(bad)?;
                let unique = parts.next().ok_or_else(bad)? == "1";
                let schema = db.table(table)?.schema().clone();
                let col_names: Vec<&str> = parts
                    .next()
                    .ok_or_else(bad)?
                    .split(',')
                    .map(|c| {
                        c.parse::<usize>()
                            .map(|i| schema.column(i).name.as_str())
                            .map_err(|_| bad())
                    })
                    .collect::<StorageResult<_>>()?;
                db.create_index(name, table, &col_names, unique)?;
            }
            Some(other) => {
                return Err(StorageError::ReadFailed(format!(
                    "MANIFEST: unknown entry {other:?}"
                )))
            }
            None => {}
        }
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qp-paged-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_db(rows: i64) -> Database {
        let mut db = Database::new();
        db.create_table_with_rows(
            "t",
            Schema::of(&[
                ("k", ColumnType::Int),
                ("s", ColumnType::Str),
                ("f", ColumnType::Float),
            ]),
            (0..rows).map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(format!("row-{i}-{}", "x".repeat((i % 17) as usize))),
                    Value::Float(i as f64 * 0.25),
                ]
            }),
        )
        .unwrap();
        db.create_index("t_k", "t", &["k"], false).unwrap();
        db
    }

    #[test]
    fn save_open_round_trips_rows_and_indexes() {
        let dir = tmp("roundtrip");
        let db = sample_db(1000);
        save_database(&db, &dir).unwrap();
        let paged = open_database(&dir, 8).unwrap();
        let heap = db.table("t").unwrap();
        let disk = paged.table("t").unwrap();
        assert!(disk.is_paged());
        assert!(disk.page_rows().unwrap() > 1);
        assert_eq!(disk.len(), heap.len());
        assert_eq!(disk.schema(), heap.schema());
        for rid in 0..heap.len() as u64 {
            assert_eq!(disk.row(rid), heap.row(rid), "row {rid}");
        }
        // Index was rebuilt and finds the same row ids.
        let ix = paged.index("t_k").unwrap();
        assert_eq!(ix.tree.len(), 1000);
        // Pool really was exercised.
        let stats = paged.buffer_pool().unwrap().stats();
        assert!(stats.misses > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_extends_the_file_and_survives_reopen() {
        let dir = tmp("append");
        let db = sample_db(100);
        save_database(&db, &dir).unwrap();
        let extra: Vec<Row> = (100..140)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::str(format!("row-{i}-")),
                    Value::Float(i as f64 * 0.25),
                ])
            })
            .collect();
        append_rows(&dir, "t", &extra, None).unwrap();
        let pool = Arc::new(BufferPool::new(8));
        let t = open_table(&dir, "t", &pool).unwrap();
        assert_eq!(t.len(), 140);
        assert_eq!(t.row(139).get(0), &Value::Int(139));
        assert_eq!(t.row(99), db.table("t").unwrap().row(99));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_order_matches_heap_order() {
        let dir = tmp("order");
        let db = sample_db(257);
        save_database(&db, &dir).unwrap();
        let paged = open_database(&dir, 4).unwrap();
        let heap: Vec<Row> = db.table("t").unwrap().scan().map(|(_, r)| r).collect();
        let disk: Vec<Row> = paged.table("t").unwrap().scan().map(|(_, r)| r).collect();
        assert_eq!(heap, disk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_chunk_matches_row_on_both_backends() {
        let dir = tmp("chunks");
        let db = sample_db(500);
        save_database(&db, &dir).unwrap();
        let paged = open_database(&dir, 2).unwrap();
        let disk = paged.table("t").unwrap();
        let heap = db.table("t").unwrap();
        let per_page = disk.page_rows().unwrap();
        assert!(per_page > 2 && 500 > 3 * per_page);
        let ranges = [
            0..per_page,                    // exactly one page
            1..per_page - 1,                // inside one page
            per_page / 2..per_page + 1,     // mid-page across a boundary
            per_page - 1..3 * per_page + 1, // spans several pages
            2 * per_page..500,              // page start to the last row
            500 - per_page / 2..500,        // mid-page to the last row
            499..500,                       // the last row alone
            7..7,                           // empty
        ];
        for table in [&disk, &heap] {
            for rids in ranges.clone() {
                let chunk = table.read_chunk(rids.clone());
                assert_eq!(chunk.len(), (rids.end - rids.start) as usize);
                for (i, rid) in rids.clone().enumerate() {
                    assert_eq!(chunk.row(i), table.row(rid), "{rids:?} rid {rid}");
                }
            }
        }
        // A paged chunk pins each covering page once: four pages here.
        let pool = paged.buffer_pool().unwrap();
        pool.reset_stats();
        let chunk = disk.read_chunk(per_page - 1..3 * per_page + 1);
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 4, "{s:?}");
        // Its images outlive the frames: evict them all, then decode.
        pool.set_capacity(1);
        for i in 0..chunk.len() {
            assert_eq!(chunk.row(i), heap.row(per_page - 1 + i as u64));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_pool_thrashes_but_stays_correct() {
        let dir = tmp("thrash");
        let db = sample_db(500);
        save_database(&db, &dir).unwrap();
        let paged = open_database(&dir, 1).unwrap();
        let t = paged.table("t").unwrap();
        // Read backwards then forwards: every page access misses.
        for rid in (0..500u64).rev() {
            assert_eq!(t.row(rid).get(0), &Value::Int(rid as i64));
        }
        let s = paged.buffer_pool().unwrap().stats();
        assert!(s.evictions > 0, "capacity 1 must evict: {s:?}");
        assert!(s.hit_rate() < 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
