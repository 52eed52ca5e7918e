//! Differential tests for the host page state against per-page
//! references.
//!
//! [`PageCache`] and [`InflightIo`] keep each file's pages in 64-page
//! blocks and build the LRU queue only when the cache first overflows.
//! The references below are the per-page models they replaced: a hashed
//! stamp per cached page with a recency queue pushed on every touch and
//! insert, and a hashed completion instant per in-flight page. Random
//! operation sequences must leave both implementations indistinguishable
//! through the public API, and [`SharedPages::leading_run`] must equal a
//! per-page loop over `contains` and `completion_of`.

use proptest::prelude::*;
use sim_core::time::SimTime;
use sim_mm::{Cover, InflightIo, PageCache, SharedPages};
use sim_storage::chunked::{ChunkExtent, ChunkedFile};
use sim_storage::file::FileId;

mod reference {
    use std::collections::VecDeque;

    use sim_core::detmap::DetMap;
    use sim_core::time::SimTime;
    use sim_storage::file::FileId;

    type Key = (FileId, u64);

    /// Exact LRU over per-page keys with a lazily compacted recency queue.
    pub struct Cache {
        capacity_pages: u64,
        resident: DetMap<Key, u64>,
        queue: VecDeque<(u64, Key)>,
        next_stamp: u64,
    }

    impl Cache {
        pub fn new(capacity_pages: u64) -> Self {
            Cache {
                capacity_pages,
                resident: DetMap::new(),
                queue: VecDeque::new(),
                next_stamp: 0,
            }
        }

        pub fn resident_pages(&self) -> u64 {
            self.resident.len() as u64
        }

        pub fn contains(&self, file: FileId, page: u64) -> bool {
            self.resident.contains_key(&(file, page))
        }

        pub fn touch(&mut self, file: FileId, page: u64) -> bool {
            let stamp = self.bump();
            match self.resident.get_mut(&(file, page)) {
                Some(s) => {
                    *s = stamp;
                    self.queue.push_back((stamp, (file, page)));
                    true
                }
                None => false,
            }
        }

        pub fn insert(&mut self, file: FileId, page: u64) {
            let stamp = self.bump();
            let prev = self.resident.insert((file, page), stamp);
            self.queue.push_back((stamp, (file, page)));
            if prev.is_none() {
                self.evict_if_needed();
            }
        }

        pub fn insert_range(&mut self, file: FileId, start: u64, len: u64) {
            for p in start..start + len {
                self.insert(file, p);
            }
        }

        pub fn resident_in(&self, file: FileId, start: u64, len: u64) -> u64 {
            let end = start.saturating_add(len);
            self.resident
                .keys()
                .filter(|(f, p)| *f == file && (start..end).contains(p))
                .count() as u64
        }

        pub fn drop_all(&mut self) {
            self.resident.clear();
            self.queue.clear();
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
                        if self.resident.get(&key) == Some(&stamp) {
                            self.resident.remove(&key);
                        }
                    }
                    None => {
                        let mut entries: Vec<(u64, Key)> =
                            self.resident.iter().map(|(k, s)| (*s, *k)).collect();
                        entries.sort_unstable();
                        self.queue = entries.into();
                    }
                }
            }
        }
    }

    /// Per-page completion instants of in-flight reads.
    #[derive(Default)]
    pub struct Inflight {
        pending: DetMap<Key, SimTime>,
    }

    impl Inflight {
        pub fn insert_window(&mut self, file: FileId, start: u64, len: u64, done: SimTime) {
            for p in start..start + len {
                match self.pending.get_mut(&(file, p)) {
                    Some(t) => *t = (*t).min(done),
                    None => {
                        self.pending.insert((file, p), done);
                    }
                }
            }
        }

        pub fn completion_of(&self, file: FileId, page: u64) -> Option<SimTime> {
            self.pending.get(&(file, page)).copied()
        }

        pub fn complete_window(&mut self, file: FileId, start: u64, len: u64, done: SimTime) {
            for p in start..start + len {
                if let Some(&t) = self.pending.get(&(file, p)) {
                    if t <= done {
                        self.pending.remove(&(file, p));
                    }
                }
            }
        }

        pub fn cancel_window(&mut self, file: FileId, start: u64, len: u64, done: SimTime) {
            for p in start..start + len {
                if self.pending.get(&(file, p)) == Some(&done) {
                    self.pending.remove(&(file, p));
                }
            }
        }

        pub fn clear(&mut self) {
            self.pending.clear();
        }

        pub fn len(&self) -> usize {
            self.pending.len()
        }
    }
}

/// Files the sequences spread over.
const FILES: [FileId; 2] = [FileId(1), FileId(2)];
/// Pages compared after every step: every page an operation can reach.
const SPAN: u64 = 320;

fn t(slot: u64) -> SimTime {
    SimTime::from_nanos(100 * (slot + 1))
}

proptest! {
    /// Inserts, ranges across block boundaries, touches and drops leave
    /// the block cache indistinguishable from the per-page LRU, at
    /// capacities small enough that most sequences evict and build the
    /// queue at their first overflow, some of them again after a drop.
    #[test]
    fn page_cache_matches_per_page_lru(
        capacity in 1u64..200,
        ops in proptest::collection::vec((0u64..8, 0usize..2, 0u64..192, 1u64..128), 1..40),
    ) {
        let mut got = PageCache::new(capacity);
        let mut want = reference::Cache::new(capacity);
        for (kind, which, page, len) in ops {
            let file = FILES[which];
            match kind {
                0 | 1 => {
                    got.insert(file, page);
                    want.insert(file, page);
                }
                2..=4 => {
                    got.insert_range(file, page, len);
                    want.insert_range(file, page, len);
                }
                7 if len % 8 == 0 => {
                    got.drop_all();
                    want.drop_all();
                }
                _ => prop_assert_eq!(got.touch(file, page), want.touch(file, page)),
            }
            prop_assert_eq!(got.resident_pages(), want.resident_pages());
            for f in FILES {
                for p in 0..SPAN {
                    prop_assert_eq!(got.contains(f, p), want.contains(f, p), "page {} of {:?}", p, f);
                }
                prop_assert_eq!(got.resident_of(f), want.resident_in(f, 0, u64::MAX));
                prop_assert_eq!(got.resident_in(f, page, len), want.resident_in(f, page, len));
            }
        }
    }

    /// Overlapping windows with equal and differing completion instants:
    /// inserts keep the earliest, completions remove entries due by
    /// then, cancels only their own.
    #[test]
    fn inflight_matches_per_page_registry(
        ops in proptest::collection::vec((0u64..8, 0usize..2, 0u64..192, 1u64..128, 0u64..4), 1..40),
    ) {
        let mut got = InflightIo::new();
        let mut want = reference::Inflight::default();
        for (kind, which, page, len, slot) in ops {
            let (file, done) = (FILES[which], t(slot));
            match kind {
                0..=2 => {
                    got.insert_window(file, page, len, done);
                    want.insert_window(file, page, len, done);
                }
                3 | 4 => {
                    got.complete_window(file, page, len, done);
                    want.complete_window(file, page, len, done);
                }
                5 | 6 => {
                    got.cancel_window(file, page, len, done);
                    want.cancel_window(file, page, len, done);
                }
                _ => {
                    got.clear();
                    want.clear();
                }
            }
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(got.is_empty(), want.len() == 0);
            for f in FILES {
                for p in 0..SPAN {
                    prop_assert_eq!(got.completion_of(f, p), want.completion_of(f, p), "page {} of {:?}", p, f);
                }
            }
        }
    }

    /// The window query equals a per-page loop over `contains` and
    /// `completion_of` for both covers and both polarities, on a
    /// chunk-mapped file with holes and aliased extents (8- or 96-page
    /// chunks, so canonical runs both stay inside a block and cross
    /// block edges), its store file and an unmapped file.
    #[test]
    fn leading_run_matches_per_page_loop(
        big_chunks in any::<bool>(),
        chunks in proptest::collection::vec((any::<bool>(), 0u64..6), 4..8),
        ops in proptest::collection::vec((0u64..6, 0u64..3, 0u64..400, 1u64..96, 0u64..3), 1..24),
        probes in proptest::collection::vec((0u64..3, 0u64..400, 0u64..200), 8..16),
    ) {
        const STORE: FileId = FileId(9);
        let files = [FileId(3), STORE, FileId(4)];
        let chunk_pages = if big_chunks { 96 } else { 8 };
        let mut cf = ChunkedFile::new(chunk_pages);
        for (idx, &(mapped, slot)) in chunks.iter().enumerate() {
            if mapped {
                cf.map_chunk(idx as u64, ChunkExtent { file: STORE, page: slot * chunk_pages });
            }
        }
        let mut pages = SharedPages::new(1 << 20);
        pages.share_mut().map_file(files[0], cf);
        for (kind, which, page, len, slot) in ops {
            let file = files[which as usize];
            match kind {
                0 | 1 => pages.insert_range(file, page, len),
                2 => pages.insert(file, page),
                3 | 4 => pages.insert_window(file, page, len, t(slot)),
                _ => pages.complete_window(file, page, len, t(slot)),
            }
        }
        for (which, start, len) in probes {
            let file = files[which as usize];
            for cover in [Cover::Cached, Cover::CachedOrInflight] {
                let is_covered = |p: u64| {
                    pages.contains(file, p)
                        || (cover == Cover::CachedOrInflight && pages.completion_of(file, p).is_some())
                };
                for covered in [true, false] {
                    let want = (start..start + len).take_while(|&p| is_covered(p) == covered).count() as u64;
                    prop_assert_eq!(
                        pages.leading_run(file, start, len, cover, covered),
                        want,
                        "{:?} [{}, +{}) {:?} covered={}", file, start, len, cover, covered
                    );
                }
            }
        }
    }
}
