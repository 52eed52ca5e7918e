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
//! The model is an exact LRU over `(file, page)` keys, plus an explicit
//! drop mirroring the evaluation's `drop_caches` between runs (§6.1).
//! Each file's pages live in 64-page blocks: a residency word and the 64
//! pages' recency stamps. A lookup, touch or insert finds the file once
//! and indexes the block; residency counts and `mincore` scans read whole
//! words, so they cost O(resident pages) plus one word per 64 pages.
//!
//! Stamps are global and grow with every touch and insert. The recency
//! queue that eviction pops is built only when an insert first takes the
//! cache over capacity, by sorting the resident pages by stamp; from then
//! on every touch and insert pushes onto it, and stale entries (pages
//! touched again since, or evicted) are skipped when popped. A cache that
//! never fills, like the host's default 160 GB one, never builds it.

use std::collections::VecDeque;

use sim_storage::file::FileId;

use crate::blocks::{self, PageBlocks, BLOCK_PAGES};

/// The host page cache.
#[derive(Clone, Debug)]
pub struct PageCache {
    /// Maximum resident pages (host memory budget for the cache).
    capacity_pages: u64,
    /// Per-file residency words and each resident page's recency stamp.
    pages: PageBlocks<u64>,
    /// Pages currently resident.
    resident: u64,
    /// Recency queue of `(stamp, file, page)` in stamp order, or `None`
    /// until an insert first overflows the cache after a drop.
    queue: Option<VecDeque<(u64, FileId, u64)>>,
    next_stamp: u64,
}

impl PageCache {
    /// Creates a cache bounded to `capacity_pages` resident pages.
    pub fn new(capacity_pages: u64) -> Self {
        assert!(capacity_pages > 0, "page cache capacity must be positive");
        PageCache {
            capacity_pages,
            pages: PageBlocks::default(),
            resident: 0,
            queue: None,
            next_stamp: 0,
        }
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// True if `page` of `file` is cached. Does not update recency (pure
    /// query, e.g. for `mincore`).
    pub fn contains(&self, file: FileId, page: u64) -> bool {
        self.pages.get(file, page).is_some()
    }

    /// Lookup on the fault path: refreshes the page's recency if cached.
    pub fn touch(&mut self, file: FileId, page: u64) -> bool {
        let stamp = self.bump();
        let Some(block) = self.pages.block_mut(file, page / BLOCK_PAGES) else {
            return false;
        };
        let i = page % BLOCK_PAGES;
        if block.get(i).is_none() {
            return false;
        }
        block.set(i, stamp);
        if let Some(q) = &mut self.queue {
            q.push_back((stamp, file, page));
        }
        true
    }

    /// Inserts one page (idempotent; refreshes recency if present).
    pub fn insert(&mut self, file: FileId, page: u64) {
        let stamp = self.bump();
        let Some(block) = self.pages.block_or_insert(file, page / BLOCK_PAGES) else {
            return;
        };
        let fresh = block.set(page % BLOCK_PAGES, stamp);
        if let Some(q) = &mut self.queue {
            q.push_back((stamp, file, page));
        }
        if fresh {
            self.resident += 1;
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
        self.pages.count_in(file, start, start.saturating_add(len))
    }

    /// Calls `f` with every cached page of `file` within
    /// `[start, start + len)`, in ascending order.
    pub fn for_each_resident(&self, file: FileId, start: u64, len: u64, f: impl FnMut(u64)) {
        self.pages
            .for_each_in(file, start, start.saturating_add(len), f);
    }

    /// Drops everything (`echo 3 > /proc/sys/vm/drop_caches`).
    pub fn drop_all(&mut self) {
        self.pages.clear();
        self.resident = 0;
        self.queue = None;
    }

    /// The residency words of `file`'s blocks (window queries).
    pub(crate) fn blocks_of(&self, file: FileId) -> Option<&blocks::FileBlocks<u64>> {
        self.pages.file(file)
    }

    fn bump(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    fn evict_if_needed(&mut self) {
        while self.resident > self.capacity_pages {
            match self.queue.as_mut().and_then(VecDeque::pop_front) {
                Some((stamp, file, page)) => {
                    // Skip stale queue entries (the page was touched again
                    // later, or already evicted).
                    if let Some(block) = self.pages.block_mut(file, page / BLOCK_PAGES) {
                        if block.get(page % BLOCK_PAGES) == Some(stamp) {
                            block.clear(page % BLOCK_PAGES);
                            self.resident -= 1;
                        }
                    }
                }
                None => {
                    // First overflow since the cache was created or
                    // dropped: queue every resident page in stamp order,
                    // the order of the live entries a queue pushed on
                    // every touch and insert would hold.
                    let mut entries = Vec::new();
                    self.pages
                        .for_each_present(|f, p, stamp| entries.push((stamp, f, p)));
                    entries.sort_unstable();
                    self.queue = Some(entries.into());
                }
            }
        }
    }
}

#[cfg(test)]
impl PageCache {
    /// Asserts that `resident_pages()`, `resident_of(file)` and
    /// `resident_in(file, start, len)` equal naive counts over the
    /// cache's pages.
    pub(crate) fn assert_residency_exact(&self, file: FileId, start: u64, len: u64) {
        let mut keys = Vec::new();
        self.pages.for_each_present(|f, p, _| keys.push((f, p)));
        assert_eq!(self.resident_pages(), keys.len() as u64);
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
    fn touch_reports_residency_without_inserting() {
        let mut c = PageCache::new(100);
        c.insert(f(1), 1);
        assert!(c.touch(f(1), 1));
        assert!(!c.touch(f(1), 2));
        assert!(!c.contains(f(1), 2), "a missed touch caches nothing");
        assert_eq!(c.resident_pages(), 1);
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
        assert_eq!(c.resident_pages(), 3);
    }

    #[test]
    fn idempotent_insert_does_not_grow() {
        let mut c = PageCache::new(2);
        c.insert(f(1), 0);
        c.insert(f(1), 0);
        c.insert(f(1), 0);
        assert_eq!(c.resident_pages(), 1);
        assert!(c.contains(f(1), 0));
    }

    #[test]
    fn drop_all_clears() {
        let mut c = PageCache::new(100);
        c.insert_range(f(1), 0, 50);
        c.drop_all();
        assert_eq!(c.resident_pages(), 0);
        assert_eq!(c.resident_of(f(1)), 0);
    }

    #[test]
    fn eviction_after_drop_all_rebuilds_the_queue() {
        let mut c = PageCache::new(5);
        c.insert_range(f(1), 0, 7); // overflows: the queue is built
        assert_eq!(c.resident_of(f(1)), 5);
        c.drop_all(); // and dropped with the pages
        c.touch(f(1), 0);
        c.insert_range(f(2), 60, 7); // overflows again, across a block edge
        assert_eq!(c.resident_pages(), 5);
        assert_eq!(c.resident_of(f(1)), 0);
        assert!(!c.contains(f(2), 60) && !c.contains(f(2), 61));
        assert_eq!(c.resident_in(f(2), 62, 5), 5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        PageCache::new(0);
    }
}
