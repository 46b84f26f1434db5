//! The write-ahead log: full-page-image redo with commit records,
//! fsync-on-commit, and idempotent recovery.
//!
//! One WAL file per page file. A transaction stages whole-page images
//! in memory ([`WalTxn::log_page`]); nothing touches the data file
//! until [`WalTxn::commit`], which runs the classic redo protocol:
//!
//! 1. append every page record to the WAL,
//! 2. append the commit record and **fsync the WAL** — this is the
//!    durability point,
//! 3. apply the page images to the data file and fsync it,
//! 4. truncate the WAL (an empty WAL means "nothing to redo").
//!
//! Because the data file is untouched before step 3, a crash anywhere
//! before the commit record is a perfect rollback: recovery finds no
//! committed transaction and the data file is bit-for-bit the
//! pre-transaction image. A crash after step 2 is a perfect commit:
//! recovery replays the page images — full-page redo is idempotent, so
//! crashing *during* recovery and recovering again is also safe.
//!
//! Every record carries a word-wise FNV checksum, so a torn final page (the
//! classic power-cut artifact) reads as "no commit" rather than as
//! garbage applied to the data file.
//!
//! Crash injection is explicit: [`WalTxn::commit`] takes an optional
//! [`CrashPoint`] naming the exact stage at which the simulated power
//! cut happens (including a torn WAL write and a half-applied redo).
//! The crash-recovery matrix in the workspace tests replays every point
//! and compares post-recovery files byte-for-byte against clean runs.

use crate::checksum::{fnv_lanes, stamp_page};
use crate::page::PAGE_SIZE;
use crate::pager::{PageId, PagerError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const REC_PAGE: u8 = 1;
const REC_COMMIT: u8 = 2;

/// Where a simulated power cut strikes inside [`WalTxn::commit`].
///
/// The first three points leave no durable commit record — recovery
/// must roll back (data file untouched). The last three have the commit
/// record on disk — recovery must complete the redo. [`CrashPoint::ALL`]
/// enumerates the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Power cut before anything reaches the WAL.
    BeforeWal,
    /// The final WAL page record is torn in half mid-write.
    TornWal,
    /// All page records written, but the commit record never lands.
    WalNoCommit,
    /// Commit record durable, no page applied to the data file yet.
    AfterCommit,
    /// Redo interrupted halfway through applying pages.
    MidApply,
    /// Everything applied and synced, but the WAL was never truncated —
    /// recovery replays the whole transaction a second time.
    BeforeTruncate,
}

impl CrashPoint {
    /// Every point, in protocol order.
    pub const ALL: [CrashPoint; 6] = [
        CrashPoint::BeforeWal,
        CrashPoint::TornWal,
        CrashPoint::WalNoCommit,
        CrashPoint::AfterCommit,
        CrashPoint::MidApply,
        CrashPoint::BeforeTruncate,
    ];

    /// Whether the commit record is durable at this point — i.e.
    /// whether recovery must surface the *post*-transaction state.
    pub fn is_durable(self) -> bool {
        matches!(
            self,
            CrashPoint::AfterCommit | CrashPoint::MidApply | CrashPoint::BeforeTruncate
        )
    }
}

fn crashed(point: CrashPoint) -> PagerError {
    PagerError::Io(std::io::Error::other(format!(
        "simulated crash at {point:?}"
    )))
}

/// The WAL of one page file, with its own traffic counters.
pub struct Wal {
    path: PathBuf,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
}

impl Wal {
    /// Names the WAL file (it need not exist yet).
    pub fn new(path: &Path) -> Wal {
        Wal {
            path: path.to_path_buf(),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        }
    }

    /// `(bytes_written, fsyncs)` through this `Wal` since [`Wal::new`]:
    /// WAL records appended, and every fsync of the WAL or the data file
    /// that a commit or recovery issued.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.bytes.load(Ordering::Relaxed),
            self.fsyncs.load(Ordering::Relaxed),
        )
    }

    /// Counts one fsync and the `appended` WAL bytes it made durable.
    fn record_sync(&self, appended: u64) {
        self.bytes.fetch_add(appended, Ordering::Relaxed);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Opens a transaction. Call only on a recovered (or fresh) WAL —
    /// beginning a transaction truncates whatever the file held.
    pub fn begin(&self) -> WalTxn<'_> {
        WalTxn {
            wal: self,
            pages: Vec::new(),
        }
    }

    /// Redo recovery: replays every *committed* transaction in the WAL
    /// into `data_path`, discards any torn or uncommitted tail, fsyncs
    /// the data file, and truncates the WAL. Idempotent — recovering an
    /// already-recovered pair is a no-op. Returns whether any
    /// transaction was replayed.
    pub fn recover(&self, data_path: &Path) -> Result<bool, PagerError> {
        let mut raw = Vec::new();
        match File::open(&self.path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e.into()),
        }
        if raw.is_empty() {
            return Ok(false);
        }

        let mut pending: Vec<(PageId, Vec<u8>)> = Vec::new();
        let mut committed: Vec<(PageId, Vec<u8>)> = Vec::new();
        let mut pos = 0usize;
        while pos < raw.len() {
            match raw[pos] {
                REC_PAGE if raw.len() - pos >= 1 + 8 + PAGE_SIZE + 8 => {
                    let body = &raw[pos..pos + 1 + 8 + PAGE_SIZE];
                    let sum = u64::from_le_bytes(
                        raw[pos + 1 + 8 + PAGE_SIZE..pos + 1 + 8 + PAGE_SIZE + 8]
                            .try_into()
                            .unwrap(),
                    );
                    if fnv_lanes(body) != sum {
                        break; // torn page record: discard the tail
                    }
                    let id = u64::from_le_bytes(body[1..9].try_into().unwrap());
                    pending.push((id, body[9..].to_vec()));
                    pos += 1 + 8 + PAGE_SIZE + 8;
                }
                REC_COMMIT if raw.len() - pos >= 1 + 8 + 8 => {
                    let body = &raw[pos..pos + 9];
                    let sum = u64::from_le_bytes(raw[pos + 9..pos + 17].try_into().unwrap());
                    let count = u64::from_le_bytes(body[1..9].try_into().unwrap());
                    if fnv_lanes(body) != sum || count != pending.len() as u64 {
                        break; // torn or inconsistent commit: discard
                    }
                    committed.append(&mut pending);
                    pos += 17;
                }
                _ => break, // unknown tag or truncated record: discard
            }
        }

        let replayed = !committed.is_empty();
        if replayed {
            let data = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(data_path)?;
            for (id, image) in &committed {
                data.write_all_at(image, id * PAGE_SIZE as u64)?;
            }
            data.sync_data()?;
            self.record_sync(0);
        }
        // Empty WAL = nothing to redo. (Removing instead of truncating
        // would also work; truncation keeps the file's identity stable.)
        let wal_file = OpenOptions::new().write(true).open(&self.path)?;
        wal_file.set_len(0)?;
        wal_file.sync_all()?;
        self.record_sync(0);
        Ok(replayed)
    }
}

/// An in-flight transaction: staged page images, applied on commit.
pub struct WalTxn<'a> {
    wal: &'a Wal,
    pages: Vec<(PageId, Box<[u8; PAGE_SIZE]>)>,
}

impl WalTxn<'_> {
    /// Stages a full page image, stamping its checksum trailer so the
    /// commit apply and any later redo replay write identical stamped
    /// bytes. Logging the same page twice keeps the later image
    /// (last-writer-wins, like the redo replay).
    pub fn log_page(&mut self, id: PageId, image: &[u8; PAGE_SIZE]) {
        let mut stamped = Box::new(*image);
        stamp_page(&mut stamped);
        self.pages.push((id, stamped));
    }

    /// Number of staged pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Runs the commit protocol against `data_path`, optionally dying
    /// at `crash` (the simulated power cut returns an error and leaves
    /// the files exactly as a real crash would).
    pub fn commit(self, data_path: &Path, crash: Option<CrashPoint>) -> Result<(), PagerError> {
        if crash == Some(CrashPoint::BeforeWal) {
            return Err(crashed(CrashPoint::BeforeWal));
        }
        let mut wal_file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.wal.path())?;
        let mut written = 0u64;

        // 1. Page records.
        for (i, (id, image)) in self.pages.iter().enumerate() {
            let mut rec = Vec::with_capacity(1 + 8 + PAGE_SIZE + 8);
            rec.push(REC_PAGE);
            rec.extend_from_slice(&id.to_le_bytes());
            rec.extend_from_slice(&image[..]);
            let sum = fnv_lanes(&rec);
            rec.extend_from_slice(&sum.to_le_bytes());
            if crash == Some(CrashPoint::TornWal) && i == self.pages.len() - 1 {
                // The final record tears in half mid-write.
                let half = rec.len() / 2;
                wal_file.write_all(&rec[..half])?;
                wal_file.sync_data()?;
                self.wal.record_sync(written + half as u64);
                return Err(crashed(CrashPoint::TornWal));
            }
            wal_file.write_all(&rec)?;
            written += rec.len() as u64;
        }
        if crash == Some(CrashPoint::WalNoCommit) {
            wal_file.sync_data()?;
            self.wal.record_sync(written);
            return Err(crashed(CrashPoint::WalNoCommit));
        }

        // 2. Commit record + fsync: the durability point.
        let mut rec = Vec::with_capacity(17);
        rec.push(REC_COMMIT);
        rec.extend_from_slice(&(self.pages.len() as u64).to_le_bytes());
        let sum = fnv_lanes(&rec);
        rec.extend_from_slice(&sum.to_le_bytes());
        wal_file.write_all(&rec)?;
        written += rec.len() as u64;
        wal_file.sync_data()?;
        self.wal.record_sync(written);
        if crash == Some(CrashPoint::AfterCommit) {
            return Err(crashed(CrashPoint::AfterCommit));
        }

        // 3. Redo into the data file, then fsync it.
        let data = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(data_path)?;
        for (i, (id, image)) in self.pages.iter().enumerate() {
            if crash == Some(CrashPoint::MidApply) && i >= self.pages.len() / 2 {
                data.sync_data()?;
                self.wal.record_sync(0);
                return Err(crashed(CrashPoint::MidApply));
            }
            data.write_all_at(&image[..], id * PAGE_SIZE as u64)?;
        }
        data.sync_data()?;
        self.wal.record_sync(0);
        if crash == Some(CrashPoint::BeforeTruncate) {
            return Err(crashed(CrashPoint::BeforeTruncate));
        }

        // 4. Empty WAL = transaction retired.
        wal_file.set_len(0)?;
        wal_file.sync_all()?;
        self.wal.record_sync(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qp-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn page(fill: u8) -> [u8; PAGE_SIZE] {
        [fill; PAGE_SIZE]
    }

    /// What `log_page(page(fill))` puts on disk: the image with its
    /// checksum trailer stamped.
    fn stamped(fill: u8) -> [u8; PAGE_SIZE] {
        let mut p = page(fill);
        stamp_page(&mut p);
        p
    }

    fn read_page_at(path: &Path, id: u64) -> [u8; PAGE_SIZE] {
        let f = File::open(path).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        f.read_exact_at(&mut buf, id * PAGE_SIZE as u64).unwrap();
        buf
    }

    #[test]
    fn clean_commit_applies_and_truncates() {
        let data = tmp("clean.qpt");
        let walp = tmp("clean.wal");
        let _ = std::fs::remove_file(&data);
        let wal = Wal::new(&walp);
        let mut txn = wal.begin();
        txn.log_page(0, &page(0x10));
        txn.log_page(1, &page(0x20));
        txn.commit(&data, None).unwrap();
        assert_eq!(read_page_at(&data, 0), stamped(0x10));
        assert_eq!(read_page_at(&data, 1), stamped(0x20));
        assert_eq!(std::fs::metadata(&walp).unwrap().len(), 0);
        // Recovery on a clean pair is a no-op.
        assert!(!wal.recover(&data).unwrap());
    }

    #[test]
    fn pre_commit_crashes_roll_back_exactly() {
        for point in [
            CrashPoint::BeforeWal,
            CrashPoint::TornWal,
            CrashPoint::WalNoCommit,
        ] {
            let data = tmp(&format!("rollback-{point:?}.qpt"));
            let walp = tmp(&format!("rollback-{point:?}.wal"));
            let _ = std::fs::remove_file(&data);
            let wal = Wal::new(&walp);
            // Committed baseline.
            let mut txn = wal.begin();
            txn.log_page(0, &page(0x01));
            txn.commit(&data, None).unwrap();
            let baseline = std::fs::read(&data).unwrap();
            // Crashing update.
            let mut txn = wal.begin();
            txn.log_page(0, &page(0xFF));
            txn.log_page(1, &page(0xEE));
            assert!(txn.commit(&data, Some(point)).is_err());
            // Recover: no committed record, so the data file must be
            // bit-for-bit the baseline.
            assert!(!wal.recover(&data).unwrap(), "{point:?} must not replay");
            assert_eq!(std::fs::read(&data).unwrap(), baseline, "{point:?}");
            assert_eq!(std::fs::metadata(&walp).unwrap().len(), 0);
        }
    }

    #[test]
    fn post_commit_crashes_replay_to_the_committed_image() {
        for point in [
            CrashPoint::AfterCommit,
            CrashPoint::MidApply,
            CrashPoint::BeforeTruncate,
        ] {
            let data = tmp(&format!("redo-{point:?}.qpt"));
            let walp = tmp(&format!("redo-{point:?}.wal"));
            let _ = std::fs::remove_file(&data);
            let wal = Wal::new(&walp);
            let mut txn = wal.begin();
            txn.log_page(0, &page(0x01));
            txn.commit(&data, None).unwrap();
            let mut txn = wal.begin();
            txn.log_page(0, &page(0xAB));
            txn.log_page(1, &page(0xCD));
            assert!(txn.commit(&data, Some(point)).is_err());
            assert!(wal.recover(&data).unwrap(), "{point:?} must replay");
            assert_eq!(read_page_at(&data, 0), stamped(0xAB), "{point:?}");
            assert_eq!(read_page_at(&data, 1), stamped(0xCD), "{point:?}");
            assert_eq!(std::fs::metadata(&walp).unwrap().len(), 0);
        }
    }

    #[test]
    fn recovery_is_idempotent_under_repeated_crashes() {
        let data = tmp("idem.qpt");
        let walp = tmp("idem.wal");
        let _ = std::fs::remove_file(&data);
        let wal = Wal::new(&walp);
        let mut txn = wal.begin();
        txn.log_page(0, &page(0x77));
        assert!(txn.commit(&data, Some(CrashPoint::AfterCommit)).is_err());
        // First recovery "crashes" conceptually right after applying
        // (we simulate by copying the WAL back and recovering again).
        let wal_bytes = {
            // recover() truncates; snapshot the WAL before.
            std::fs::read(&walp).unwrap()
        };
        assert!(wal.recover(&data).unwrap());
        std::fs::write(&walp, &wal_bytes).unwrap();
        assert!(wal.recover(&data).unwrap(), "replaying again is safe");
        assert_eq!(read_page_at(&data, 0), stamped(0x77));
    }

    #[test]
    fn a_flipped_tail_byte_of_a_page_record_is_not_replayed() {
        let data = tmp("tailflip.qpt");
        let walp = tmp("tailflip.wal");
        let _ = std::fs::remove_file(&data);
        let wal = Wal::new(&walp);
        let mut txn = wal.begin();
        txn.log_page(0, &page(0x5A));
        assert!(txn.commit(&data, Some(CrashPoint::AfterCommit)).is_err());
        // The page record's last image byte sits past its last 32-byte
        // block (the record is 4,105 bytes before its checksum).
        let mut bytes = std::fs::read(&walp).unwrap();
        bytes[1 + 8 + PAGE_SIZE - 1] ^= 0x01;
        std::fs::write(&walp, &bytes).unwrap();
        assert!(
            !wal.recover(&data).unwrap(),
            "corrupt record must not replay"
        );
    }

    #[test]
    fn last_writer_wins_within_a_transaction() {
        let data = tmp("lww.qpt");
        let walp = tmp("lww.wal");
        let _ = std::fs::remove_file(&data);
        let wal = Wal::new(&walp);
        let mut txn = wal.begin();
        txn.log_page(0, &page(0x11));
        txn.log_page(0, &page(0x22));
        txn.commit(&data, None).unwrap();
        assert_eq!(read_page_at(&data, 0), stamped(0x22));
    }

    #[test]
    fn wal_stats_count_bytes_and_fsyncs() {
        const PAGE_REC: u64 = 1 + 8 + PAGE_SIZE as u64 + 8;
        const COMMIT_REC: u64 = 17;
        // Two WALs commit at the same moment, one from another thread,
        // with different page counts: each must count its own traffic.
        fn commit(name: &str, pages: u64, start: &std::sync::Barrier) -> (u64, u64) {
            let data = tmp(&format!("{name}.qpt"));
            let _ = std::fs::remove_file(&data);
            let wal = Wal::new(&tmp(&format!("{name}.wal")));
            assert_eq!(wal.stats(), (0, 0));
            let mut txn = wal.begin();
            for id in 0..pages {
                txn.log_page(id, &page(0x01));
            }
            start.wait();
            txn.commit(&data, None).unwrap();
            wal.stats()
        }
        let start = std::sync::Barrier::new(2);
        let ((bytes, fsyncs), other) = std::thread::scope(|s| {
            let other = s.spawn(|| commit("stats-other", 3, &start));
            (commit("stats", 1, &start), other.join().unwrap())
        });
        assert_eq!(bytes, PAGE_REC + COMMIT_REC);
        assert_eq!(fsyncs, 3, "wal fsync, data fsync, truncate fsync");
        assert_eq!(other, (3 * PAGE_REC + COMMIT_REC, 3));
    }
}
