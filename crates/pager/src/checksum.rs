//! Checksums: four FNV lanes over 64-bit words, shared by page
//! trailers and WAL records.
//!
//! Every page image that reaches a data file through the write paths
//! that own content — [`crate::WalTxn::log_page`] staging and
//! [`crate::Pager::write_page`] — carries a checksum of its first
//! `PAGE_PAYLOAD_END` bytes in the trailing 8 bytes. [`crate::Pager::read_page`]
//! recomputes it and surfaces a mismatch as a typed
//! [`crate::PagerError::Corrupt`], never a panic — a flipped bit on
//! disk is an error the caller can report, not undefined behaviour.
//!
//! The sum reads the input as little-endian `u64` words, 32 bytes per
//! block: word `i` of every block feeds lane `i` with an FNV-1a step
//! (xor, multiply by the FNV prime) plus a rotate, so high bits feed
//! back into low ones. Four independent lanes keep four multiplies in
//! flight where byte-serial FNV-1a waits on one per byte, which is what
//! makes a buffer-pool miss cost one read rather than one read plus a
//! long checksum. The lanes are folded in order, then the tail bytes
//! past the last whole block and the input length are mixed in. Each
//! step is a bijection of the running state, so any change confined to
//! one word — every single-bit flip — always changes the sum.
//!
//! A trailer of all-zero bytes means *unstamped* and is accepted: fresh
//! pages from `allocate` are zeroed, and freelist chaining writes raw
//! link pages that never carry content. A computed checksum that lands
//! on 0 is remapped to the FNV offset basis so 0 stays unambiguous.
//! Files written with the old byte-serial sum carry an older format
//! version, which [`crate::Pager::open`] rejects as
//! [`crate::PagerError::Version`] before any checksum is compared.

use crate::page::{PAGE_PAYLOAD_END, PAGE_SIZE};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;
const LANES: usize = 4;
const BLOCK: usize = LANES * 8;

#[inline(always)]
fn step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME).rotate_left(29)
}

/// The word-wise FNV sum of `bytes` — shared by WAL records and page
/// trailers.
pub(crate) fn fnv_lanes(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, u64::from_le_bytes(word.try_into().unwrap()));
        }
    }
    let mut h = lanes.into_iter().fold(FNV_OFFSET, step);
    for &b in blocks.remainder() {
        h = step(h, b as u64);
    }
    step(h, bytes.len() as u64)
}

/// The checksum of a page's payload region (`[..PAGE_PAYLOAD_END]`).
/// Never returns 0 — that value is reserved for "unstamped".
pub fn page_checksum(buf: &[u8; PAGE_SIZE]) -> u64 {
    match fnv_lanes(&buf[..PAGE_PAYLOAD_END]) {
        0 => FNV_OFFSET,
        sum => sum,
    }
}

/// Writes the payload checksum into the page's trailing 8 bytes.
pub fn stamp_page(buf: &mut [u8; PAGE_SIZE]) {
    let sum = page_checksum(buf);
    buf[PAGE_PAYLOAD_END..].copy_from_slice(&sum.to_le_bytes());
}

/// Whether a page image's trailer is consistent with its payload.
/// An all-zero trailer (unstamped page) is always accepted.
pub fn verify_page(buf: &[u8; PAGE_SIZE]) -> bool {
    let stored = u64::from_le_bytes(buf[PAGE_PAYLOAD_END..].try_into().unwrap());
    stored == 0 || stored == page_checksum(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_then_verify_round_trips() {
        let mut buf = [0x3Cu8; PAGE_SIZE];
        stamp_page(&mut buf);
        assert!(verify_page(&buf));
        assert_ne!(
            u64::from_le_bytes(buf[PAGE_PAYLOAD_END..].try_into().unwrap()),
            0
        );
    }

    #[test]
    fn zero_trailer_is_unstamped_and_accepted() {
        let buf = [0u8; PAGE_SIZE];
        assert!(verify_page(&buf));
        let mut content = [0u8; PAGE_SIZE];
        content[17] = 0x42; // content without a stamp still reads
        assert!(verify_page(&content));
    }

    #[test]
    fn any_payload_bit_flip_fails_verification() {
        let mut buf = [0u8; PAGE_SIZE];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        stamp_page(&mut buf);
        // Every payload bit (32,704 flips), then every trailer bit.
        for pos in 0..PAGE_SIZE {
            for bit in 0..8 {
                buf[pos] ^= 1 << bit;
                assert!(
                    !verify_page(&buf),
                    "flip of bit {bit} at {pos} went undetected"
                );
                buf[pos] ^= 1 << bit;
            }
        }
        assert!(verify_page(&buf));
    }

    /// WAL records are not block-aligned: a page record is 4,105 bytes,
    /// so its last 9 bytes are tail bytes past the last 32-byte block.
    #[test]
    fn wal_records_differing_only_in_a_tail_byte_differ() {
        let mut rec: Vec<u8> = (0..1 + 8 + PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        assert_ne!(rec.len() % BLOCK, 0);
        let sum = fnv_lanes(&rec);
        for pos in rec.len() - rec.len() % BLOCK..rec.len() {
            rec[pos] ^= 0x01;
            assert_ne!(fnv_lanes(&rec), sum, "tail byte {pos}");
            rec[pos] ^= 0x01;
        }
    }

    #[test]
    fn a_record_and_its_zero_extended_copy_differ() {
        // A commit record (9 bytes, all tail) and a block-aligned one:
        // appending zeros must change the sum, up to and past a block.
        for len in [9usize, BLOCK] {
            let rec: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            for extra in 1..=BLOCK + 1 {
                let mut extended = rec.clone();
                extended.resize(len + extra, 0);
                assert_ne!(
                    fnv_lanes(&rec),
                    fnv_lanes(&extended),
                    "{len} + {extra} zeros"
                );
            }
        }
        // All-zero inputs differ only in length.
        assert_ne!(fnv_lanes(&[0u8; BLOCK]), fnv_lanes(&[0u8; 2 * BLOCK]));
    }

    #[test]
    fn checksum_never_returns_the_unstamped_sentinel() {
        // Not a search for a preimage of 0 — just the remap contract.
        let buf = [0u8; PAGE_SIZE];
        assert_ne!(page_checksum(&buf), 0);
    }
}
