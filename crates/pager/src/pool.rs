//! The buffer pool: a fixed-capacity LRU page cache shared by every
//! table of a database.
//!
//! Frames are keyed by `(pager tag, page id)` so one pool fronts any
//! number of page files. A [`BufferPool::get`] returns a [`PageRef`] —
//! a pin: the frame cannot be evicted while any `PageRef` to it lives,
//! and the pin drops with the guard. [`PageRef::image`] hands out the
//! page image itself, which outlives the pin and the frame: a scan can
//! pin each page once, keep its image, and unpin at once. Reads that
//! hit cost a map lookup; reads that miss pay the page read **plus the
//! configured miss penalty**, slept *outside* the pool lock so
//! concurrent workers' misses overlap — which is exactly what makes the
//! parallel bench's disk-bound regime honest (stalls overlap across
//! workers, as real outstanding disk reads would).
//!
//! Eviction is exact LRU at O(1) amortized cost per touch and per
//! eviction: every touch stamps the frame with a fresh tick and appends
//! `(tick, key)` to a recency queue, so the queue is ordered by tick and
//! a frame's one *live* entry is the one carrying its current tick.
//! Eviction pops from the front, discarding stale entries (the frame was
//! touched again or is gone) and setting pinned ones aside, so the
//! victim is the least recently used unpinned frame — the same frame a
//! scan of every frame would pick. When stale entries pile up (hits
//! with no evictions), the queue is compacted in place.
//!
//! The pool is also the observability surface of the paper's Section 7
//! "uniformity of work per GetNext" caveat: the hit/miss/eviction
//! counters exported through METRICS are what lets an experiment
//! correlate estimator error with hit rate. Dirty frames (from
//! [`BufferPool::write`]) are written back on eviction and on
//! [`BufferPool::flush_all`]; the bulk-load path instead writes through
//! the WAL, which owns durability ordering.

use crate::page::PAGE_SIZE;
use crate::pager::{PageId, Pager, PagerError};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

type Key = (u64, PageId);

/// Frame keys are small integers this process assigns, never chosen by
/// an adversary, so a multiply-rotate hash (FxHash's) serves them in a
/// fraction of SipHash's time — on the path every page access takes,
/// twice (pin and unpin).
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FrameMap = HashMap<Key, Frame, BuildHasherDefault<KeyHasher>>;
type EvictHook = Arc<dyn Fn(u64, PageId) + Send + Sync>;

struct Frame {
    id: PageId,
    data: Arc<[u8; PAGE_SIZE]>,
    /// Kept so dirty evictions can write back without the caller.
    pager: Arc<Pager>,
    dirty: bool,
    pins: usize,
    /// LRU clock: larger = more recently used. The frame's live
    /// recency-queue entry carries this tick.
    tick: u64,
}

impl Frame {
    fn write_back(&mut self) -> Result<(), PagerError> {
        self.pager.write_page(self.id, &self.data)?;
        self.dirty = false;
        Ok(())
    }
}

#[derive(Default)]
struct Inner {
    frames: FrameMap,
    tick: u64,
    /// `(tick, key)` per touch, in tick order; see the module docs.
    recency: VecDeque<(u64, Key)>,
}

impl Inner {
    /// Stamps `key`'s frame as most recently used and returns it.
    fn touch(&mut self, key: Key) -> Option<&mut Frame> {
        if self.recency.len() >= 8 * self.frames.len().max(8) {
            let frames = &self.frames;
            self.recency
                .retain(|(tick, k)| frames.get(k).is_some_and(|f| f.tick == *tick));
        }
        self.tick += 1;
        let frame = self.frames.get_mut(&key)?;
        frame.tick = self.tick;
        self.recency.push_back((self.tick, key));
        Some(frame)
    }

    /// Inserts a new frame as the most recently used one.
    fn insert(&mut self, key: Key, frame: Frame) {
        self.frames.insert(key, frame);
        self.touch(key);
    }

    /// The least recently used unpinned frame's key, with its queue
    /// entry consumed; pinned frames keep their place.
    fn pop_victim(&mut self) -> Option<Key> {
        let mut pinned = Vec::new();
        let mut victim = None;
        while let Some((tick, key)) = self.recency.pop_front() {
            match self.frames.get(&key) {
                Some(f) if f.tick == tick && f.pins > 0 => pinned.push((tick, key)),
                Some(f) if f.tick == tick => {
                    victim = Some(key);
                    break;
                }
                _ => {} // stale: touched again since, or gone
            }
        }
        for entry in pinned.into_iter().rev() {
            self.recency.push_front(entry);
        }
        victim
    }
}

/// Counter snapshot for METRICS and experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Frames currently resident.
    pub resident: usize,
    /// Configured capacity in frames.
    pub capacity: usize,
}

impl PoolStats {
    /// Hit fraction over all accesses so far (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A pinned page: dereferences to the page image, unpins on drop.
pub struct PageRef<'a> {
    pool: &'a BufferPool,
    key: Key,
    data: Arc<[u8; PAGE_SIZE]>,
}

impl PageRef<'_> {
    /// The page image, shared rather than copied. It stays valid after
    /// this pin drops and after the frame is evicted: a frame's image is
    /// replaced, never written in place.
    pub fn image(&self) -> Arc<[u8; PAGE_SIZE]> {
        Arc::clone(&self.data)
    }
}

impl Deref for PageRef<'_> {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }
}

impl Drop for PageRef<'_> {
    fn drop(&mut self) {
        let mut inner = self.pool.inner.lock().unwrap();
        if let Some(frame) = inner.frames.get_mut(&self.key) {
            frame.pins = frame.pins.saturating_sub(1);
        }
    }
}

/// The LRU page cache. See the module docs for the design.
pub struct BufferPool {
    inner: Mutex<Inner>,
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    miss_penalty_ns: AtomicU64,
    on_evict: Mutex<Option<EvictHook>>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferPool {
    /// A pool holding at most `frames` pages (minimum 1).
    pub fn new(frames: usize) -> BufferPool {
        BufferPool {
            inner: Mutex::new(Inner::default()),
            capacity: AtomicUsize::new(frames.max(1)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            miss_penalty_ns: AtomicU64::new(0),
            on_evict: Mutex::new(None),
        }
    }

    /// Current frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Resizes the pool (minimum 1 frame), evicting LRU frames if the
    /// new capacity is smaller than the resident set.
    pub fn set_capacity(&self, frames: usize) {
        self.capacity.store(frames.max(1), Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        let evicted = self.evict_over_capacity(&mut inner);
        drop(inner);
        self.fire_evictions(&evicted);
    }

    /// Sets the artificial per-miss latency (the stand-in for rotating
    /// disk seek time). Zero disables it.
    pub fn set_miss_penalty(&self, penalty: Duration) {
        self.miss_penalty_ns.store(
            penalty.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Installs (or clears) the eviction hook, called with
    /// `(pager tag, page id)` after each eviction — the service wires
    /// this to the flight recorder.
    pub fn set_on_evict(&self, hook: Option<EvictHook>) {
        *self.on_evict.lock().unwrap() = hook;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident: self.inner.lock().unwrap().frames.len(),
            capacity: self.capacity(),
        }
    }

    /// Zeroes the hit/miss/eviction counters (experiments sweep
    /// configurations and want per-run rates).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Pins page `id` of `pager`, reading it from disk on a miss.
    pub fn get<'a>(&'a self, pager: &Arc<Pager>, id: PageId) -> Result<PageRef<'a>, PagerError> {
        let key = (pager.tag(), id);
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(frame) = inner.touch(key) {
                frame.pins += 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(PageRef {
                    pool: self,
                    key,
                    data: Arc::clone(&frame.data),
                });
            }
        }
        // Miss: pay for it with the lock released, so concurrent
        // workers' misses overlap like real outstanding disk reads.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let penalty = self.miss_penalty_ns.load(Ordering::Relaxed);
        if penalty > 0 {
            std::thread::sleep(Duration::from_nanos(penalty));
        }
        // Read straight into the frame's allocation: no 4 KiB copy.
        let mut data = Arc::new([0u8; PAGE_SIZE]);
        pager.read_page(id, Arc::get_mut(&mut data).expect("fresh Arc is unique"))?;

        let mut inner = self.inner.lock().unwrap();
        let data = match inner.touch(key) {
            // Another thread loaded it while we read: share its frame
            // (both paid a miss — both really did the work).
            Some(frame) => {
                frame.pins += 1;
                Arc::clone(&frame.data)
            }
            None => {
                inner.insert(
                    key,
                    Frame {
                        id,
                        data: Arc::clone(&data),
                        pager: Arc::clone(pager),
                        dirty: false,
                        pins: 1,
                        tick: 0,
                    },
                );
                data
            }
        };
        let evicted = self.evict_over_capacity(&mut inner);
        drop(inner);
        self.fire_evictions(&evicted);
        Ok(PageRef {
            pool: self,
            key,
            data,
        })
    }

    /// Installs a new page image in the cache and marks it dirty; it
    /// reaches disk on eviction or [`BufferPool::flush_all`]. (The bulk
    /// loader does *not* use this — it writes through the WAL, which
    /// owns durability ordering.)
    pub fn write(&self, pager: &Arc<Pager>, id: PageId, image: [u8; PAGE_SIZE]) {
        let key = (pager.tag(), id);
        let mut inner = self.inner.lock().unwrap();
        match inner.touch(key) {
            Some(frame) => {
                frame.data = Arc::new(image);
                frame.dirty = true;
            }
            None => {
                inner.insert(
                    key,
                    Frame {
                        id,
                        data: Arc::new(image),
                        pager: Arc::clone(pager),
                        dirty: true,
                        pins: 0,
                        tick: 0,
                    },
                );
            }
        }
        let evicted = self.evict_over_capacity(&mut inner);
        drop(inner);
        self.fire_evictions(&evicted);
    }

    /// Writes every dirty frame back to its pager (no fsync — the
    /// caller decides durability).
    pub fn flush_all(&self) -> Result<(), PagerError> {
        let mut inner = self.inner.lock().unwrap();
        for frame in inner.frames.values_mut() {
            if frame.dirty {
                frame.write_back()?;
            }
        }
        Ok(())
    }

    /// Drops every resident frame of `pager` (dirty frames are written
    /// back first). Used when a file's content is replaced underneath
    /// the pool, e.g. by WAL recovery.
    pub fn invalidate(&self, pager_tag: u64) -> Result<(), PagerError> {
        let mut inner = self.inner.lock().unwrap();
        let keys: Vec<Key> = inner
            .frames
            .keys()
            .filter(|(t, _)| *t == pager_tag)
            .copied()
            .collect();
        for key in keys {
            if let Some(frame) = inner.frames.get_mut(&key) {
                if frame.dirty {
                    frame.write_back()?;
                }
            }
            inner.frames.remove(&key);
        }
        Ok(())
    }

    /// Evicts LRU unpinned frames until at or under capacity. Returns
    /// the evicted keys; the caller fires the hook after unlocking.
    fn evict_over_capacity(&self, inner: &mut Inner) -> Vec<Key> {
        let capacity = self.capacity();
        let mut evicted = Vec::new();
        while inner.frames.len() > capacity {
            let Some(key) = inner.pop_victim() else {
                break; // everything pinned: run over capacity rather than deadlock
            };
            let frame = inner.frames.get_mut(&key).unwrap();
            if frame.dirty {
                // Best-effort write-back; an I/O error here loses the
                // write, which only the WAL-less unit path can hit.
                let _ = frame.write_back();
            }
            inner.frames.remove(&key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evicted.push(key);
        }
        evicted
    }

    fn fire_evictions(&self, evicted: &[Key]) {
        if evicted.is_empty() {
            return;
        }
        let hook = self.on_evict.lock().unwrap().clone();
        if let Some(hook) = hook {
            for &(tag, id) in evicted {
                hook(tag, id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qp-pool-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn pager_with_pages(name: &str, n: u64) -> Arc<Pager> {
        let pager = Arc::new(Pager::create(&tmp(name)).unwrap());
        for i in 0..n {
            let id = pager.allocate().unwrap();
            pager.write_page(id, &[(i + 1) as u8; PAGE_SIZE]).unwrap();
        }
        pager
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let pager = pager_with_pages("counters.qpt", 3);
        let pool = BufferPool::new(8);
        for id in 1..=3u64 {
            let page = pool.get(&pager, id).unwrap();
            assert_eq!(page[0], id as u8);
        }
        let page = pool.get(&pager, 2).unwrap();
        assert_eq!(page[0], 2);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 0));
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let pager = pager_with_pages("lru.qpt", 4);
        let pool = BufferPool::new(2);
        pool.get(&pager, 1).unwrap();
        pool.get(&pager, 2).unwrap();
        pool.get(&pager, 1).unwrap(); // 1 now more recent than 2
        pool.get(&pager, 3).unwrap(); // evicts 2
        let before = pool.stats().misses;
        pool.get(&pager, 1).unwrap(); // still resident
        assert_eq!(pool.stats().misses, before, "page 1 must still be cached");
        pool.get(&pager, 2).unwrap(); // evicted: must miss
        assert_eq!(pool.stats().misses, before + 1);
        assert!(pool.stats().evictions >= 2);

        // A page touched many times leaves stale recency entries (and
        // forces compactions); only its last touch counts.
        let pool = BufferPool::new(2);
        let evicted = record_evictions(&pool);
        pool.get(&pager, 1).unwrap();
        pool.get(&pager, 2).unwrap();
        for _ in 0..200 {
            pool.get(&pager, 1).unwrap();
        }
        pool.get(&pager, 2).unwrap(); // 1 is now the LRU page
        pool.get(&pager, 3).unwrap();
        assert_eq!(*evicted.lock().unwrap(), vec![1]);
        pool.get(&pager, 1).unwrap(); // 2 is LRU now, then 3
        assert_eq!(*evicted.lock().unwrap(), vec![1, 2]);

        // A pinned frame at the LRU end keeps its place: the next
        // unpinned frame goes instead, and the pinned one is the first
        // victim once its pin drops.
        let pool = BufferPool::new(2);
        let evicted = record_evictions(&pool);
        let pinned = pool.get(&pager, 1).unwrap();
        pool.get(&pager, 2).unwrap();
        pool.get(&pager, 3).unwrap(); // 1 is LRU but pinned: 2 goes
        assert_eq!(*evicted.lock().unwrap(), vec![2]);
        pool.get(&pager, 4).unwrap(); // still pinned: 3 goes
        assert_eq!(*evicted.lock().unwrap(), vec![2, 3]);
        drop(pinned);
        pool.get(&pager, 2).unwrap(); // 1 is still the LRU frame
        assert_eq!(*evicted.lock().unwrap(), vec![2, 3, 1]);
    }

    fn record_evictions(pool: &BufferPool) -> Arc<Mutex<Vec<PageId>>> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        pool.set_on_evict(Some(Arc::new(move |_, id| sink.lock().unwrap().push(id))));
        seen
    }

    #[test]
    fn shrinking_capacity_evicts_in_lru_order() {
        let pager = pager_with_pages("shrink-order.qpt", 4);
        let pool = BufferPool::new(4);
        for id in [1u64, 2, 3, 4, 2, 1] {
            pool.get(&pager, id).unwrap();
        }
        let evicted = record_evictions(&pool);
        pool.set_capacity(1);
        assert_eq!(*evicted.lock().unwrap(), vec![3, 4, 2]);
        let before = pool.stats().misses;
        pool.get(&pager, 1).unwrap();
        assert_eq!(pool.stats().misses, before, "the MRU page survives");
    }

    #[test]
    fn pinned_frames_are_not_evicted() {
        let pager = pager_with_pages("pins.qpt", 3);
        let pool = BufferPool::new(1);
        let pinned = pool.get(&pager, 1).unwrap();
        // Capacity 1 with page 1 pinned: loading 2 and 3 must not evict
        // the pinned frame (the pool runs over capacity instead).
        pool.get(&pager, 2).unwrap();
        pool.get(&pager, 3).unwrap();
        let before = pool.stats().misses;
        assert_eq!(pinned[0], 1);
        pool.get(&pager, 1).unwrap();
        assert_eq!(pool.stats().misses, before, "pinned page stayed resident");
        drop(pinned);
        // Unpinned now: the next insert can evict it.
        pool.get(&pager, 2).unwrap();
        pool.get(&pager, 3).unwrap();
        pool.get(&pager, 1).unwrap();
        assert_eq!(pool.stats().misses, before + 3);
    }

    #[test]
    fn shrinking_capacity_evicts_and_fires_hook() {
        let pager = pager_with_pages("shrink.qpt", 4);
        let pool = BufferPool::new(4);
        for id in 1..=4u64 {
            pool.get(&pager, id).unwrap();
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        pool.set_on_evict(Some(Arc::new(move |tag, id| {
            sink.lock().unwrap().push((tag, id));
        })));
        pool.set_capacity(1);
        let s = pool.stats();
        assert_eq!(s.resident, 1);
        assert_eq!(s.evictions, 3);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|&(tag, _)| tag == pager.tag()));
    }

    #[test]
    fn dirty_frames_write_back_on_eviction_and_flush() {
        let pager = pager_with_pages("dirty.qpt", 2);
        let pool = BufferPool::new(1);
        pool.write(&pager, 1, [0xAAu8; PAGE_SIZE]);
        // Evict page 1 by loading page 2.
        pool.get(&pager, 2).unwrap();
        let end = crate::page::PAGE_PAYLOAD_END;
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(1, &mut buf).unwrap();
        assert_eq!(
            buf[..end],
            [0xAAu8; PAGE_SIZE][..end],
            "dirty eviction wrote back"
        );
        // flush_all also reaches disk.
        pool.write(&pager, 2, [0xBBu8; PAGE_SIZE]);
        pool.flush_all().unwrap();
        pager.read_page(2, &mut buf).unwrap();
        assert_eq!(buf[..end], [0xBBu8; PAGE_SIZE][..end]);
    }

    #[test]
    fn concurrent_misses_overlap_their_penalty() {
        let pager = pager_with_pages("overlap.qpt", 4);
        let pool = Arc::new(BufferPool::new(8));
        pool.set_miss_penalty(Duration::from_millis(20));
        let started = std::time::Instant::now();
        std::thread::scope(|scope| {
            for id in 1..=4u64 {
                let pool = Arc::clone(&pool);
                let pager = Arc::clone(&pager);
                scope.spawn(move || {
                    pool.get(&pager, id).unwrap();
                });
            }
        });
        let elapsed = started.elapsed();
        // Four 20 ms penalties serially = 80 ms; overlapped they cost
        // ~20 ms. Allow generous slack for slow CI.
        assert!(
            elapsed < Duration::from_millis(70),
            "misses serialized: {elapsed:?}"
        );
        assert_eq!(pool.stats().misses, 4);
    }
}
