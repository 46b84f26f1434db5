//! The slotted page: the unit of disk I/O and the unit the buffer pool
//! caches.
//!
//! Classic layout (System R / SQLite style): a small header and a slot
//! directory grow from the front of the page, cell payloads grow from
//! the back, and the free space in between shrinks from both ends.
//! Slots are append-only here — tables are bulk-loaded and append-only,
//! so the format needs no intra-page compaction or tombstones, which
//! keeps the recovery invariant trivial (a page image is valid iff its
//! header is).
//!
//! ```text
//! 0        2        4            4+4n              cell_start  4088  4096
//! +--------+--------+-------------+--- free space ---+---------+----+
//! | nslots | cstart | slot dir    |                  | cells   | ck |
//! +--------+--------+-------------+------------------+---------+----+
//! ```
//!
//! Each slot is `(u16 offset, u16 len)`; all integers little-endian.
//! The trailing [`PAGE_CHECKSUM_LEN`] bytes are reserved for the
//! page-level checksum (see [`crate::checksum`]) — cells never reach
//! past [`PAGE_PAYLOAD_END`].

/// Size of every page, header included. 4 KiB matches the OS page size
/// and the classic DBMS default; `Pager` I/O is always whole pages.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of the trailing per-page checksum (word-wise FNV, little-endian).
pub const PAGE_CHECKSUM_LEN: usize = 8;

/// End of the usable payload region: cells live in `[..PAGE_PAYLOAD_END]`,
/// the checksum trailer in `[PAGE_PAYLOAD_END..]`.
pub const PAGE_PAYLOAD_END: usize = PAGE_SIZE - PAGE_CHECKSUM_LEN;

const HEADER: usize = 4;
const SLOT: usize = 4;

/// A page-sized buffer interpreted as a slotted page.
///
/// Owns its 4 KiB; construction from raw bytes never fails (a zeroed
/// buffer is the valid empty page), but cell lookups validate the slot
/// directory so a corrupt page surfaces as `None`, not a panic.
#[derive(Clone)]
pub struct SlottedPage {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl Default for SlottedPage {
    fn default() -> Self {
        SlottedPage::new()
    }
}

impl SlottedPage {
    /// The empty page: zero slots, the whole payload region free.
    pub fn new() -> SlottedPage {
        let mut page = SlottedPage {
            buf: Box::new([0u8; PAGE_SIZE]),
        };
        page.set_cell_start(PAGE_PAYLOAD_END as u16);
        page
    }

    /// Interprets an existing page image.
    pub fn from_bytes(bytes: [u8; PAGE_SIZE]) -> SlottedPage {
        SlottedPage {
            buf: Box::new(bytes),
        }
    }

    /// The raw image, for `Pager::write_page`.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.buf[off], self.buf[off + 1]])
    }

    fn set_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of cells stored.
    pub fn slot_count(&self) -> usize {
        self.u16_at(0) as usize
    }

    fn cell_start(&self) -> usize {
        let c = self.u16_at(2) as usize;
        // A zeroed page (fresh from `allocate`) reads cell_start = 0;
        // treat it as the empty page rather than "payload fills all".
        if c == 0 {
            PAGE_PAYLOAD_END
        } else {
            c
        }
    }

    fn set_cell_start(&mut self, v: u16) {
        self.set_u16(2, v);
    }

    /// Bytes still available for one more cell (slot entry included).
    pub fn free_space(&self) -> usize {
        self.cell_start()
            .saturating_sub(HEADER + SLOT * self.slot_count())
    }

    /// Whether a cell of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        len + SLOT <= self.free_space()
    }

    /// Appends a cell; returns its slot index, or `None` when it does
    /// not fit (cells larger than the payload region can never fit).
    pub fn push(&mut self, cell: &[u8]) -> Option<usize> {
        if !self.fits(cell.len()) || cell.len() > u16::MAX as usize {
            return None;
        }
        let slot = self.slot_count();
        let start = self.cell_start() - cell.len();
        self.buf[start..start + cell.len()].copy_from_slice(cell);
        let dir = HEADER + SLOT * slot;
        self.set_u16(dir, start as u16);
        self.set_u16(dir + 2, cell.len() as u16);
        self.set_cell_start(start as u16);
        self.set_u16(0, (slot + 1) as u16);
        Some(slot)
    }

    /// The cell at `slot`, or `None` if out of range or the directory
    /// entry is inconsistent (corruption surfaces here, loudly but
    /// safely).
    pub fn cell(&self, slot: usize) -> Option<&[u8]> {
        read_cell(&self.buf, slot)
    }
}

/// Reads a cell straight out of a borrowed page image (e.g. a pinned
/// buffer-pool frame) without copying it into a [`SlottedPage`]. Same
/// validation as [`SlottedPage::cell`].
pub fn read_cell(buf: &[u8; PAGE_SIZE], slot: usize) -> Option<&[u8]> {
    let u16_at = |off: usize| u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
    let nslots = u16_at(0);
    if slot >= nslots {
        return None;
    }
    let dir = HEADER + SLOT * slot;
    let off = u16_at(dir);
    let len = u16_at(dir + 2);
    if off < HEADER + SLOT * nslots || off + len > PAGE_PAYLOAD_END {
        return None;
    }
    Some(&buf[off..off + len])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back_round_trips() {
        let mut p = SlottedPage::new();
        assert_eq!(p.slot_count(), 0);
        let cells: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; (i as usize + 1) * 3]).collect();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(p.push(c), Some(i));
        }
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(p.cell(i), Some(c.as_slice()));
        }
        assert_eq!(p.cell(10), None);
        // The image survives a serialize/deserialize cycle bit-for-bit.
        let q = SlottedPage::from_bytes(*p.bytes());
        assert_eq!(q.slot_count(), 10);
        assert_eq!(q.cell(7), Some(cells[7].as_slice()));
    }

    #[test]
    fn page_fills_and_rejects_when_full() {
        let mut p = SlottedPage::new();
        let cell = [0xAB_u8; 100];
        let mut pushed = 0;
        while p.push(&cell).is_some() {
            pushed += 1;
        }
        // 100-byte cells + 4-byte slots into the payload region (the
        // checksum trailer is off limits).
        assert_eq!(pushed, (PAGE_PAYLOAD_END - HEADER) / (100 + SLOT));
        assert!(!p.fits(100));
        // A smaller cell can still squeeze in.
        assert!(p.fits(10));
        assert!(p.push(&[1u8; 10]).is_some());
    }

    #[test]
    fn zeroed_bytes_are_the_valid_empty_page() {
        let p = SlottedPage::from_bytes([0u8; PAGE_SIZE]);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.cell(0), None);
        assert_eq!(p.free_space(), PAGE_PAYLOAD_END - HEADER);
    }

    #[test]
    fn cells_never_reach_into_the_checksum_trailer() {
        let mut p = SlottedPage::new();
        while p.push(&[0xEE_u8; 32]).is_some() {}
        let trailer = &p.bytes()[PAGE_PAYLOAD_END..];
        assert_eq!(trailer, &[0u8; PAGE_CHECKSUM_LEN]);
        // A cell whose directory entry points into the trailer is
        // corruption, surfaced as None.
        let mut bytes = *p.bytes();
        let off = (PAGE_PAYLOAD_END - 16) as u16;
        bytes[4..6].copy_from_slice(&off.to_le_bytes());
        bytes[6..8].copy_from_slice(&32u16.to_le_bytes());
        assert_eq!(SlottedPage::from_bytes(bytes).cell(0), None);
    }

    #[test]
    fn corrupt_slot_directory_reads_as_none() {
        let mut p = SlottedPage::new();
        p.push(b"hello").unwrap();
        let mut bytes = *p.bytes();
        // Point slot 0 past the end of the page.
        bytes[4..6].copy_from_slice(&0xFFF0u16.to_le_bytes());
        bytes[6..8].copy_from_slice(&64u16.to_le_bytes());
        assert_eq!(SlottedPage::from_bytes(bytes).cell(0), None);
    }
}
