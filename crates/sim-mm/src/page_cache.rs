//! The host OS page cache, shared by all VMs.
//!
//! §3.4: "The OS page cache can play an important role in accelerating VM
//! page faults." The cache is the mechanism behind three paper results:
//!
//! - the `Cached` reference setting pre-populates it, so every fault is a
//!   fast minor fault;
//! - FaaSnap's concurrent-paging loader populates it *during* execution so
//!   guest faults opportunistically become minor faults;
//! - in same-snapshot bursts, VMs "are in effect loading the cache for
//!   each other" (§6.6), while REAP's O_DIRECT reads bypass it.
//!
//! The model is an exact LRU over `(file, page)` keys with a lazily
//! compacted recency queue, plus explicit drop operations mirroring the
//! evaluation's `drop_caches` between runs (§6.1). A per-file residency
//! bitmap mirrors the LRU map's key set and answers every pure residency
//! query, so `mincore` scans and per-file counts cost O(resident pages)
//! plus one word per 64 pages, not a probe per page of the guest.

use std::collections::VecDeque;

use sim_core::detmap::DetMap;
use sim_storage::file::FileId;

/// Key of one cached file page.
type Key = (FileId, u64);

/// The host page cache.
#[derive(Clone, Debug)]
pub struct PageCache {
    /// Maximum resident pages (host memory budget for the cache).
    capacity_pages: u64,
    /// Page -> recency stamp of the most recent touch. Insertion-ordered
    /// deterministic map; the eviction rebuild path sorts by stamp, so it
    /// never depends on iteration order.
    resident: DetMap<Key, u64>,
    /// Residency bitmap per file: bit `p` is set iff `(file, p)` is a key
    /// of `resident`. Updated at every point `resident` gains or loses a
    /// key.
    bitmaps: DetMap<FileId, Bitmap>,
    /// Recency queue: (stamp, key); stale entries skipped on eviction.
    queue: VecDeque<(u64, Key)>,
    next_stamp: u64,
    /// Cumulative counters.
    insertions: u64,
    evictions: u64,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// Creates a cache bounded to `capacity_pages` resident pages.
    pub fn new(capacity_pages: u64) -> Self {
        assert!(capacity_pages > 0, "page cache capacity must be positive");
        PageCache {
            capacity_pages,
            resident: DetMap::new(),
            bitmaps: DetMap::new(),
            queue: VecDeque::new(),
            next_stamp: 0,
            insertions: 0,
            evictions: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> u64 {
        self.resident.len() as u64
    }

    /// True if `page` of `file` is cached. Does not update recency or
    /// hit/miss counters (pure query, e.g. for `mincore`).
    pub fn contains(&self, file: FileId, page: u64) -> bool {
        self.bitmaps.get(&file).is_some_and(|b| b.get(page))
    }

    /// Lookup on the fault path: updates recency and hit/miss counters.
    pub fn touch(&mut self, file: FileId, page: u64) -> bool {
        let stamp = self.bump();
        match self.resident.get_mut(&(file, page)) {
            Some(s) => {
                *s = stamp;
                self.queue.push_back((stamp, (file, page)));
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Inserts one page (idempotent; refreshes recency if present).
    pub fn insert(&mut self, file: FileId, page: u64) {
        let stamp = self.bump();
        let prev = self.resident.insert((file, page), stamp);
        self.queue.push_back((stamp, (file, page)));
        if prev.is_none() {
            self.bitmaps.or_insert_with(file, Bitmap::default).set(page);
            self.insertions += 1;
            self.evict_if_needed();
        }
    }

    /// Inserts `len` consecutive pages starting at `start`.
    pub fn insert_range(&mut self, file: FileId, start: u64, len: u64) {
        for p in start..start + len {
            self.insert(file, p);
        }
    }

    /// Number of pages of `file` currently cached.
    pub fn resident_of(&self, file: FileId) -> u64 {
        self.resident_in(file, 0, u64::MAX)
    }

    /// Number of cached pages of `file` within `[start, start + len)`.
    pub fn resident_in(&self, file: FileId, start: u64, len: u64) -> u64 {
        self.bitmaps
            .get(&file)
            .map_or(0, |b| b.count_in(start, start.saturating_add(len)))
    }

    /// Calls `f` with every cached page of `file` within
    /// `[start, start + len)`, in ascending order.
    pub fn for_each_resident(&self, file: FileId, start: u64, len: u64, f: impl FnMut(u64)) {
        if let Some(b) = self.bitmaps.get(&file) {
            b.for_each_in(start, start.saturating_add(len), f);
        }
    }

    /// Drops every cached page of `file` (per-file cache drop).
    pub fn drop_file(&mut self, file: FileId) {
        self.resident.retain(|(f, _), _| *f != file);
        self.bitmaps.remove(&file);
    }

    /// Drops everything (`echo 3 > /proc/sys/vm/drop_caches`).
    pub fn drop_all(&mut self) {
        self.resident.clear();
        self.bitmaps.clear();
        self.queue.clear();
    }

    /// `(hits, misses)` on the fault path so far.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn bump(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    fn evict_if_needed(&mut self) {
        while self.resident.len() as u64 > self.capacity_pages {
            match self.queue.pop_front() {
                Some((stamp, key)) => {
                    // Skip stale queue entries (the page was touched again
                    // later, or already dropped).
                    if self.resident.get(&key) == Some(&stamp) {
                        self.resident.remove(&key);
                        if let Some(b) = self.bitmaps.get_mut(&key.0) {
                            b.clear(key.1);
                        }
                        self.evictions += 1;
                    }
                }
                None => {
                    // Queue exhausted (can happen after drop_file left the
                    // queue stale); rebuild from the resident map. This is
                    // rare and keeps eviction exact.
                    let mut entries: Vec<(u64, Key)> =
                        self.resident.iter().map(|(k, s)| (*s, *k)).collect();
                    entries.sort_unstable();
                    self.queue = entries.into();
                }
            }
        }
    }
}

/// A growable bitmap over page numbers.
#[derive(Clone, Debug, Default)]
struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    fn get(&self, page: u64) -> bool {
        self.words
            .get((page / 64) as usize)
            .is_some_and(|w| (w >> (page % 64)) & 1 == 1)
    }

    fn set(&mut self, page: u64) {
        let word = (page / 64) as usize;
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        if let Some(w) = self.words.get_mut(word) {
            *w |= 1 << (page % 64);
        }
    }

    fn clear(&mut self, page: u64) {
        if let Some(w) = self.words.get_mut((page / 64) as usize) {
            *w &= !(1 << (page % 64));
        }
    }

    /// The stored words overlapping `[start, end)` as `(first page, bits)`
    /// pairs, with bits outside the window masked off.
    fn window(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let words = self.words.get((start / 64) as usize..).unwrap_or_default();
        (start / 64 * 64..end)
            .step_by(64)
            .zip(words)
            .map(move |(base, &w)| {
                let lo = start.saturating_sub(base);
                let hi = (end - base).min(64);
                let below_hi = if hi == 64 { !0 } else { (1u64 << hi) - 1 };
                (base, w & below_hi & (!0u64 << lo))
            })
    }

    fn count_in(&self, start: u64, end: u64) -> u64 {
        self.window(start, end)
            .map(|(_, w)| u64::from(w.count_ones()))
            .sum()
    }

    fn for_each_in(&self, start: u64, end: u64, mut f: impl FnMut(u64)) {
        for (base, mut w) in self.window(start, end) {
            while w != 0 {
                f(base + u64::from(w.trailing_zeros()));
                w &= w - 1;
            }
        }
    }
}

#[cfg(test)]
impl PageCache {
    /// Asserts that the bitmaps hold exactly the LRU map's keys and that
    /// `resident_of(file)` and `resident_in(file, start, len)` equal naive
    /// counts over those keys.
    pub(crate) fn assert_residency_exact(&self, file: FileId, start: u64, len: u64) {
        let mut keys: Vec<Key> = self.resident.keys().copied().collect();
        keys.sort_unstable();
        let mut bits = Vec::new();
        for (f, b) in self.bitmaps.iter() {
            b.for_each_in(0, u64::MAX, |p| bits.push((*f, p)));
        }
        bits.sort_unstable();
        assert_eq!(bits, keys, "bitmaps diverged from the LRU map");
        let of = keys.iter().filter(|(f, _)| *f == file).count() as u64;
        assert_eq!(self.resident_of(file), of);
        let window = start..start + len;
        let within = keys
            .iter()
            .filter(|(f, p)| *f == file && window.contains(p))
            .count() as u64;
        assert_eq!(self.resident_in(file, start, len), within);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(id: u64) -> FileId {
        FileId(id)
    }

    #[test]
    fn insert_and_query() {
        let mut c = PageCache::new(100);
        assert!(!c.contains(f(1), 5));
        c.insert(f(1), 5);
        assert!(c.contains(f(1), 5));
        assert!(!c.contains(f(2), 5));
        assert_eq!(c.resident_pages(), 1);
    }

    #[test]
    fn insert_range_and_per_file_count() {
        let mut c = PageCache::new(100);
        c.insert_range(f(1), 10, 5);
        c.insert_range(f(2), 0, 3);
        assert_eq!(c.resident_of(f(1)), 5);
        assert_eq!(c.resident_of(f(2)), 3);
        assert_eq!(c.resident_pages(), 8);
    }

    #[test]
    fn touch_tracks_hits_and_misses() {
        let mut c = PageCache::new(100);
        c.insert(f(1), 1);
        assert!(c.touch(f(1), 1));
        assert!(!c.touch(f(1), 2));
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = PageCache::new(3);
        c.insert(f(1), 0);
        c.insert(f(1), 1);
        c.insert(f(1), 2);
        // Touch page 0 so page 1 is the LRU victim.
        assert!(c.touch(f(1), 0));
        c.insert(f(1), 3);
        assert!(c.contains(f(1), 0), "recently touched survives");
        assert!(!c.contains(f(1), 1), "LRU page evicted");
        assert!(c.contains(f(1), 2));
        assert!(c.contains(f(1), 3));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn idempotent_insert_does_not_grow() {
        let mut c = PageCache::new(2);
        c.insert(f(1), 0);
        c.insert(f(1), 0);
        c.insert(f(1), 0);
        assert_eq!(c.resident_pages(), 1);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn drop_file_only_affects_that_file() {
        let mut c = PageCache::new(100);
        c.insert_range(f(1), 0, 10);
        c.insert_range(f(2), 0, 10);
        c.drop_file(f(1));
        assert_eq!(c.resident_of(f(1)), 0);
        assert_eq!(c.resident_of(f(2)), 10);
    }

    #[test]
    fn drop_all_clears() {
        let mut c = PageCache::new(100);
        c.insert_range(f(1), 0, 50);
        c.drop_all();
        assert_eq!(c.resident_pages(), 0);
    }

    #[test]
    fn eviction_after_drop_file_rebuild() {
        let mut c = PageCache::new(5);
        c.insert_range(f(1), 0, 5);
        c.drop_file(f(1)); // queue now entirely stale
        c.insert_range(f(2), 0, 7); // forces eviction through rebuild path
        assert_eq!(c.resident_pages(), 5);
        assert!(c.contains(f(2), 6));
        assert!(!c.contains(f(2), 0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        PageCache::new(0);
    }
}
