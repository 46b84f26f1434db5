//! The pager: whole-page file I/O, allocation, and the freelist.
//!
//! A page file is `PAGE_SIZE`-aligned from byte 0. Page 0 is the file
//! header (magic, format version, page count, freelist head) and is
//! never handed out by `allocate`; pages 1.. are content. Freed pages
//! are chained through their first 8 bytes from `freelist_head`, so
//! allocation reuses space before growing the file — the classic
//! intrusive freelist.
//!
//! The pager is shared (`Arc<Pager>`) across scan workers: reads use
//! positional I/O (`read_exact_at`) so concurrent page reads need no
//! lock at all; only allocate/free/header updates serialize on a small
//! mutex. Durability is explicit — nothing is fsynced until [`Pager::sync`]
//! — because the commit protocol in [`crate::Wal`] owns the ordering of
//! page writes vs. syncs.
//!
//! Fault injection: every read and write consults a seeded
//! [`qp_testkit::FaultPlan`] keyed by the pager's I/O-operation index.
//! A `StorageRead` point makes a read fail (short read) or tears a
//! write — the first half of the page lands, the rest does not, exactly
//! the torn-page failure WAL recovery must survive. A `Delay` point
//! stalls the operation. Same seed, same ops, same failures.

use crate::checksum::{stamp_page, verify_page};
use crate::page::PAGE_SIZE;
use qp_testkit::{FaultKind, FaultPlan};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Page number within one page file. Page 0 is the header.
pub type PageId = u64;

const MAGIC: [u8; 4] = *b"QPPG";
/// On-disk format version. 2: page trailers and WAL records use the
/// word-wise checksum of [`crate::checksum`] (1 used byte-serial FNV-1a).
const VERSION: u32 = 2;

/// Errors out of the page layer.
#[derive(Debug)]
pub enum PagerError {
    /// An OS-level I/O failure (includes injected short reads / torn
    /// writes).
    Io(io::Error),
    /// The file or a page image is not what the format says it must be.
    Corrupt(String),
    /// The file was written in another on-disk format version (for
    /// instance by an older build); its pages are not readable here.
    Version {
        path: PathBuf,
        found: u32,
        expected: u32,
    },
}

impl std::fmt::Display for PagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagerError::Io(e) => write!(f, "pager I/O error: {e}"),
            PagerError::Corrupt(m) => write!(f, "pager corruption: {m}"),
            PagerError::Version {
                path,
                found,
                expected,
            } => write!(
                f,
                "{}: page format version {found}, expected {expected}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for PagerError {}

impl From<io::Error> for PagerError {
    fn from(e: io::Error) -> PagerError {
        PagerError::Io(e)
    }
}

/// Seeded I/O fault schedule for one pager: a [`FaultPlan`] consumed by
/// I/O-operation index (reads and writes share one counter).
#[derive(Default)]
pub struct IoFaults {
    plan: FaultPlan,
    ops: u64,
}

impl IoFaults {
    /// Wraps a plan; `FaultPlan::none()` disables injection.
    pub fn new(plan: FaultPlan) -> IoFaults {
        IoFaults { plan, ops: 0 }
    }

    /// Consults the plan for the next I/O op. Returns the fault kind to
    /// apply, if any.
    fn next_op(&mut self) -> Option<FaultKind> {
        let op = self.ops;
        self.ops += 1;
        self.plan.fire_at(op).map(|p| p.kind)
    }
}

struct Meta {
    page_count: u64,
    freelist_head: PageId,
}

/// A page file: header + freelist + whole-page reads and writes.
pub struct Pager {
    file: File,
    path: PathBuf,
    /// Process-unique identity, the buffer pool's cache key namespace.
    tag: u64,
    meta: Mutex<Meta>,
    faults: Mutex<IoFaults>,
}

static NEXT_TAG: AtomicU64 = AtomicU64::new(1);

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("path", &self.path)
            .field("tag", &self.tag)
            .field("pages", &self.page_count())
            .finish()
    }
}

impl Pager {
    /// Creates a fresh page file (truncating any existing one) with an
    /// empty freelist.
    pub fn create(path: &Path) -> Result<Pager, PagerError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let pager = Pager {
            file,
            path: path.to_path_buf(),
            tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
            meta: Mutex::new(Meta {
                page_count: 1,
                freelist_head: 0,
            }),
            faults: Mutex::new(IoFaults::default()),
        };
        pager.flush_header()?;
        Ok(pager)
    }

    /// Opens an existing page file, validating the header.
    pub fn open(path: &Path) -> Result<Pager, PagerError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut header = [0u8; PAGE_SIZE];
        file.read_exact_at(&mut header, 0)?;
        if header[0..4] != MAGIC {
            return Err(PagerError::Corrupt(format!(
                "{}: bad magic",
                path.display()
            )));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(PagerError::Version {
                path: path.to_path_buf(),
                found: version,
                expected: VERSION,
            });
        }
        let page_count = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let freelist_head = u64::from_le_bytes(header[16..24].try_into().unwrap());
        Ok(Pager {
            file,
            path: path.to_path_buf(),
            tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
            meta: Mutex::new(Meta {
                page_count: page_count.max(1),
                freelist_head,
            }),
            faults: Mutex::new(IoFaults::default()),
        })
    }

    /// The file this pager fronts.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Process-unique identity; the buffer pool keys frames by
    /// `(tag, page_id)`.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Pages in the file, header included.
    pub fn page_count(&self) -> u64 {
        self.meta.lock().unwrap().page_count
    }

    /// Installs a seeded I/O fault schedule (replacing any previous
    /// one). Injection applies to subsequent reads and writes.
    pub fn set_faults(&self, faults: IoFaults) {
        *self.faults.lock().unwrap() = faults;
    }

    fn apply_fault(&self, writing: bool, id: PageId, buf: &[u8]) -> Result<(), PagerError> {
        let kind = self.faults.lock().unwrap().next_op();
        match kind {
            None => Ok(()),
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultKind::StorageRead) if writing => {
                // Torn write: half the page lands, then the "disk" dies.
                self.file.write_all_at(&buf[..PAGE_SIZE / 2], offset(id))?;
                Err(PagerError::Io(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!("injected torn write at page {id}"),
                )))
            }
            Some(FaultKind::StorageRead) => Err(PagerError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("injected short read at page {id}"),
            ))),
            // Operator-level kinds have no meaning at the I/O layer.
            Some(FaultKind::ExecError) | Some(FaultKind::Panic) => Ok(()),
        }
    }

    /// Reads page `id` into `buf`, verifying its checksum trailer.
    /// Reading past the end of the file is corruption (the caller
    /// followed a dangling page reference), and so is a payload that no
    /// longer matches its stamp (a flipped bit, a torn write) — both
    /// surface as [`PagerError::Corrupt`], never a panic.
    pub fn read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), PagerError> {
        self.apply_fault(false, id, &[])?;
        if id >= self.page_count() {
            return Err(PagerError::Corrupt(format!(
                "read of page {id} past end ({} pages)",
                self.page_count()
            )));
        }
        self.file.read_exact_at(buf, offset(id))?;
        if !verify_page(buf) {
            return Err(PagerError::Corrupt(format!(
                "page {id} of {}: checksum mismatch",
                self.path.display()
            )));
        }
        Ok(())
    }

    /// Writes page `id`, stamping its checksum trailer on the way out.
    /// Not durable until [`Pager::sync`].
    pub fn write_page(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<(), PagerError> {
        let mut stamped = *buf;
        stamp_page(&mut stamped);
        self.apply_fault(true, id, &stamped)?;
        self.file.write_all_at(&stamped, offset(id))?;
        Ok(())
    }

    /// Hands out a page: the freelist head if one is chained, else a
    /// fresh page at the end of the file (zeroed).
    pub fn allocate(&self) -> Result<PageId, PagerError> {
        let mut meta = self.meta.lock().unwrap();
        if meta.freelist_head != 0 {
            let id = meta.freelist_head;
            let mut buf = [0u8; PAGE_SIZE];
            self.file.read_exact_at(&mut buf, offset(id))?;
            meta.freelist_head = u64::from_le_bytes(buf[0..8].try_into().unwrap());
            // Hand the page back zeroed, like a fresh one.
            self.file.write_all_at(&[0u8; PAGE_SIZE], offset(id))?;
            return Ok(id);
        }
        let id = meta.page_count;
        meta.page_count += 1;
        self.file.write_all_at(&[0u8; PAGE_SIZE], offset(id))?;
        Ok(id)
    }

    /// Returns a page to the freelist. Page 0 is not freeable.
    pub fn free(&self, id: PageId) -> Result<(), PagerError> {
        if id == 0 {
            return Err(PagerError::Corrupt("cannot free the header page".into()));
        }
        let mut meta = self.meta.lock().unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        buf[0..8].copy_from_slice(&meta.freelist_head.to_le_bytes());
        self.file.write_all_at(&buf, offset(id))?;
        meta.freelist_head = id;
        Ok(())
    }

    /// Composes a page-0 header image for a file of `page_count` pages.
    /// Bulk loaders that build files purely through WAL transactions use
    /// this to log the header alongside the content pages.
    pub fn header_image(page_count: u64, freelist_head: PageId) -> [u8; PAGE_SIZE] {
        let mut buf = [0u8; PAGE_SIZE];
        buf[0..4].copy_from_slice(&MAGIC);
        buf[4..8].copy_from_slice(&VERSION.to_le_bytes());
        buf[8..16].copy_from_slice(&page_count.to_le_bytes());
        buf[16..24].copy_from_slice(&freelist_head.to_le_bytes());
        buf
    }

    /// Persists the header page (page count + freelist head).
    pub fn flush_header(&self) -> Result<(), PagerError> {
        let meta = self.meta.lock().unwrap();
        let buf = Pager::header_image(meta.page_count, meta.freelist_head);
        self.file.write_all_at(&buf, 0)?;
        Ok(())
    }

    /// fsyncs the file: header + every written page become durable.
    pub fn sync(&self) -> Result<(), PagerError> {
        self.flush_header()?;
        self.file.sync_data()?;
        Ok(())
    }
}

fn offset(id: PageId) -> u64 {
    id * PAGE_SIZE as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_PAYLOAD_END;
    use qp_testkit::FaultPoint;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qp-pager-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn pages_round_trip_through_reopen() {
        let path = tmp("roundtrip.qpt");
        let pager = Pager::create(&path).unwrap();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        assert_eq!((a, b), (1, 2));
        let img_a = [0x11u8; PAGE_SIZE];
        let img_b = [0x22u8; PAGE_SIZE];
        pager.write_page(a, &img_a).unwrap();
        pager.write_page(b, &img_b).unwrap();
        pager.sync().unwrap();
        drop(pager);

        let pager = Pager::open(&path).unwrap();
        assert_eq!(pager.page_count(), 3);
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(a, &mut buf).unwrap();
        assert_eq!(buf[..PAGE_PAYLOAD_END], img_a[..PAGE_PAYLOAD_END]);
        // The write path stamped the trailer.
        assert_ne!(buf[PAGE_PAYLOAD_END..], [0u8; 8]);
        pager.read_page(b, &mut buf).unwrap();
        assert_eq!(buf[..PAGE_PAYLOAD_END], img_b[..PAGE_PAYLOAD_END]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn freelist_reuses_freed_pages_lifo() {
        let path = tmp("freelist.qpt");
        let pager = Pager::create(&path).unwrap();
        let pages: Vec<PageId> = (0..4).map(|_| pager.allocate().unwrap()).collect();
        pager.free(pages[1]).unwrap();
        pager.free(pages[3]).unwrap();
        // LIFO: most recently freed first, and no file growth.
        assert_eq!(pager.allocate().unwrap(), pages[3]);
        assert_eq!(pager.allocate().unwrap(), pages[1]);
        assert_eq!(pager.page_count(), 5);
        // Reused pages come back zeroed.
        let id = pager.allocate().unwrap();
        assert_eq!(id, 5);
        pager.write_page(id, &[7u8; PAGE_SIZE]).unwrap();
        pager.free(id).unwrap();
        let again = pager.allocate().unwrap();
        assert_eq!(again, id);
        let mut buf = [1u8; PAGE_SIZE];
        pager.read_page(again, &mut buf).unwrap();
        assert_eq!(buf, [0u8; PAGE_SIZE]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn freelist_survives_reopen() {
        let path = tmp("freelist-reopen.qpt");
        let pager = Pager::create(&path).unwrap();
        let a = pager.allocate().unwrap();
        let _b = pager.allocate().unwrap();
        pager.free(a).unwrap();
        pager.sync().unwrap();
        drop(pager);
        let pager = Pager::open(&path).unwrap();
        assert_eq!(pager.allocate().unwrap(), a, "freelist head persisted");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_faults_fire_by_io_op_index() {
        let path = tmp("faults.qpt");
        let pager = Pager::create(&path).unwrap();
        let id = pager.allocate().unwrap();
        let img = [0x5Au8; PAGE_SIZE];
        pager.write_page(id, &img).unwrap();
        // Ops so far under this plan: none (plan installed now). Fault
        // op 0 (the torn write) and op 1 (the short read).
        pager.set_faults(IoFaults::new(FaultPlan::from_points(vec![
            FaultPoint {
                at_getnext: 0,
                kind: FaultKind::StorageRead,
            },
            FaultPoint {
                at_getnext: 1,
                kind: FaultKind::StorageRead,
            },
        ])));
        let err = pager.write_page(id, &[0xFFu8; PAGE_SIZE]).unwrap_err();
        assert!(matches!(err, PagerError::Io(_)), "torn write errors: {err}");
        let mut buf = [0u8; PAGE_SIZE];
        let err = pager.read_page(id, &mut buf).unwrap_err();
        assert!(matches!(err, PagerError::Io(_)), "short read errors: {err}");
        // The torn write really tore: front half new, back half old on
        // disk — and the checksum trailer (still the old page's stamp)
        // no longer matches, so the read surfaces typed corruption.
        let raw = std::fs::read(&path).unwrap();
        let on_disk = &raw[PAGE_SIZE..2 * PAGE_SIZE];
        assert_eq!(on_disk[..PAGE_SIZE / 2], [0xFFu8; PAGE_SIZE / 2]);
        assert_eq!(
            on_disk[PAGE_SIZE / 2..PAGE_PAYLOAD_END],
            [0x5Au8; PAGE_PAYLOAD_END - PAGE_SIZE / 2]
        );
        let err = pager.read_page(id, &mut buf).unwrap_err();
        assert!(
            matches!(err, PagerError::Corrupt(_)),
            "torn page must read as corruption: {err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_on_disk_reads_as_typed_corruption() {
        let path = tmp("bitflip.qpt");
        let pager = Pager::create(&path).unwrap();
        let id = pager.allocate().unwrap();
        pager.write_page(id, &[0xC3u8; PAGE_SIZE]).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[PAGE_SIZE + 1234] ^= 0x04;
        std::fs::write(&path, &raw).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        let err = pager.read_page(id, &mut buf).unwrap_err();
        match err {
            PagerError::Corrupt(m) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("expected Corrupt, got {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_file_from_an_older_format_is_a_version_error() {
        let path = tmp("oldversion.qpt");
        drop(Pager::create(&path).unwrap());
        let mut raw = std::fs::read(&path).unwrap();
        raw[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        match Pager::open(&path) {
            Err(PagerError::Version {
                found: 1,
                expected: VERSION,
                ..
            }) => {}
            other => panic!("expected Version, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn opening_garbage_is_corruption_not_panic() {
        let path = tmp("garbage.qpt");
        std::fs::write(&path, vec![0xEE; PAGE_SIZE]).unwrap();
        match Pager::open(&path) {
            Err(PagerError::Corrupt(m)) => assert!(m.contains("magic"), "{m}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
