//! Snapshot-keyed shared page state.
//!
//! Historically the page cache and the in-flight registry were keyed by
//! *logical* `(file, page)` identity: two snapshot files deduplicated onto
//! the same store chunks still paid separate reads, and the registries
//! disagreed with the device layer (which already translates store-backed
//! reads to physical extents). This module canonicalizes both registries
//! onto the content-addressed chunk identity a page physically lives at:
//!
//! - [`ShareMap`] owns the chunk-store extent maps and translates a
//!   logical `(file, page)` to its canonical physical key. Files without
//!   a map — every file unless one is registered — translate to
//!   themselves, so the canonical form is the identity on non-store
//!   paths and behavior there is byte-for-byte unchanged.
//! - [`SharedPages`] bundles the host [`PageCache`] and [`InflightIo`]
//!   behind canonical-keyed operations, so concurrent restores of
//!   snapshots that share chunks — fork siblings most of all — share
//!   cache hits and deduplicate in-flight disk reads instead of paying
//!   full freight per VM.
//!
//! Window operations split at chunk boundaries before translating, since
//! dedup placement makes neighboring logical chunks physically
//! discontiguous. A hole (an unmapped chunk, all zeros) keeps its logical
//! key: it costs no I/O either way, and siblings of the same logical file
//! still share it.
//!
//! Both registries keep each file's pages in 64-page blocks, so
//! [`SharedPages::leading_run`] answers "how far is this window covered"
//! a word at a time: it ORs the cache's residency word with, optionally,
//! the in-flight word, and counts trailing ones (or zeros) per canonical
//! run instead of probing each page.

use sim_core::detmap::DetMap;
use sim_core::time::SimTime;
use sim_storage::chunked::ChunkedFile;
use sim_storage::file::FileId;

use crate::blocks::{self, FileBlocks};
use crate::inflight::InflightIo;
use crate::page_cache::PageCache;

/// Chunk-store extent maps keyed by logical file: the translation from
/// logical page identity to canonical (physical) chunk identity.
#[derive(Clone, Debug, Default)]
pub struct ShareMap {
    chunked: DetMap<FileId, ChunkedFile>,
}

impl ShareMap {
    /// An empty map (every file translates to itself).
    pub fn new() -> Self {
        Self::default()
    }

    /// True if no file has a chunk-store backing.
    pub fn is_empty(&self) -> bool {
        self.chunked.is_empty()
    }

    /// Backs `file` with a chunk-store extent map.
    pub fn map_file(&mut self, file: FileId, map: ChunkedFile) {
        self.chunked.insert(file, map);
    }

    /// The chunk-store backing of `file`, if any.
    pub fn chunked(&self, file: FileId) -> Option<&ChunkedFile> {
        self.chunked.get(&file)
    }

    /// Canonical key of one logical page: the physical `(file, page)` its
    /// bytes live at. Identity for unmapped files and holes.
    pub fn canon(&self, file: FileId, page: u64) -> (FileId, u64) {
        match self.chunked.get(&file) {
            Some(cf) => {
                let idx = page / cf.chunk_pages();
                match cf.extent(idx) {
                    Some(ext) => (ext.file, ext.page + page % cf.chunk_pages()),
                    None => (file, page),
                }
            }
            None => (file, page),
        }
    }

    /// Calls `f` once per maximal canonical run of the logical window
    /// `[start, start + len)` of `file`, splitting at chunk boundaries.
    pub fn for_each_run(
        &self,
        file: FileId,
        start: u64,
        len: u64,
        mut f: impl FnMut(FileId, u64, u64),
    ) {
        let Some(cf) = self.chunked.get(&file) else {
            if len > 0 {
                f(file, start, len);
            }
            return;
        };
        let end = start + len;
        let mut page = start;
        while page < end {
            let idx = page / cf.chunk_pages();
            let chunk_end = (idx + 1) * cf.chunk_pages();
            let span = end.min(chunk_end) - page;
            match cf.extent(idx) {
                Some(ext) => f(ext.file, ext.page + (page - idx * cf.chunk_pages()), span),
                None => f(file, page, span),
            }
            page += span;
        }
    }
}

/// What [`SharedPages::leading_run`] counts as a covered page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cover {
    /// The page is cached.
    Cached,
    /// The page is cached, or a read of it is in flight.
    CachedOrInflight,
}

/// The host's shared page state — page cache plus in-flight reads — with
/// every operation keyed by canonical chunk identity via a [`ShareMap`].
#[derive(Clone, Debug)]
pub struct SharedPages {
    cache: PageCache,
    inflight: InflightIo,
    share: ShareMap,
}

impl SharedPages {
    /// Creates shared page state with a cache of `capacity_pages`.
    pub fn new(capacity_pages: u64) -> Self {
        SharedPages {
            cache: PageCache::new(capacity_pages),
            inflight: InflightIo::new(),
            share: ShareMap::new(),
        }
    }

    /// The translation map.
    pub fn share(&self) -> &ShareMap {
        &self.share
    }

    /// Mutable access to the translation map (registering store-backed
    /// files).
    pub fn share_mut(&mut self) -> &mut ShareMap {
        &mut self.share
    }

    /// Read-only access to the underlying cache (statistics).
    pub fn cache(&self) -> &PageCache {
        &self.cache
    }

    /// Replaces the underlying cache (capacity experiments). The
    /// translation map is preserved.
    pub fn set_cache(&mut self, cache: PageCache) {
        self.cache = cache;
    }

    // --- page cache, canonical-keyed ---------------------------------

    /// True if the page is cached. Pure query (no recency update).
    pub fn contains(&self, file: FileId, page: u64) -> bool {
        let (f, p) = self.share.canon(file, page);
        self.cache.contains(f, p)
    }

    /// Fault-path lookup: refreshes the page's recency if cached.
    pub fn touch(&mut self, file: FileId, page: u64) -> bool {
        let (f, p) = self.share.canon(file, page);
        self.cache.touch(f, p)
    }

    /// Inserts one page.
    pub fn insert(&mut self, file: FileId, page: u64) {
        let (f, p) = self.share.canon(file, page);
        self.cache.insert(f, p);
    }

    /// Inserts a logical window, split into canonical runs.
    pub fn insert_range(&mut self, file: FileId, start: u64, len: u64) {
        let SharedPages { cache, share, .. } = self;
        share.for_each_run(file, start, len, |f, p, n| cache.insert_range(f, p, n));
    }

    /// Cached pages of the logical file: identity-keyed holes plus the
    /// resident pages of every mapped chunk's physical extent.
    pub fn resident_of(&self, file: FileId) -> u64 {
        match self.share.chunked(file) {
            None => self.cache.resident_of(file),
            Some(cf) => {
                let mut n = self.cache.resident_of(file);
                for (_, ext) in cf.extents() {
                    n += self.cache.resident_in(ext.file, ext.page, cf.chunk_pages());
                }
                n
            }
        }
    }

    /// Calls `f` with every cached logical page of `file` within
    /// `[start, start + len)`, in ascending order: each canonical run's
    /// resident pages, translated back to logical page numbers.
    pub fn for_each_resident(&self, file: FileId, start: u64, len: u64, mut f: impl FnMut(u64)) {
        let mut logical = start;
        self.share.for_each_run(file, start, len, |canon, page, n| {
            self.cache
                .for_each_resident(canon, page, n, |p| f(logical + (p - page)));
            logical += n;
        });
    }

    /// Length of the leading run of the logical window
    /// `[start, start + len)` of `file` whose pages are all covered
    /// (`covered` true) or all uncovered (`covered` false), where `cover`
    /// says what covers a page.
    pub fn leading_run(
        &self,
        file: FileId,
        start: u64,
        len: u64,
        cover: Cover,
        covered: bool,
    ) -> u64 {
        let mut run = 0;
        let mut open = true;
        self.share.for_each_run(file, start, len, |f, p, n| {
            if !open {
                return;
            }
            let cached = self.cache.blocks_of(f);
            let pending = match cover {
                Cover::Cached => None,
                Cover::CachedOrInflight => self.inflight.blocks_of(f),
            };
            let word = |idx| word_of(cached, idx) | word_of(pending, idx);
            let k = blocks::leading_run(p, n, covered, word);
            run += k;
            open = k == n;
        });
        run
    }

    /// Drops the entire cache (between-test hygiene).
    pub fn drop_cache(&mut self) {
        self.cache.drop_all();
    }

    // --- in-flight reads, canonical-keyed ----------------------------

    /// Completion instant of an in-flight read covering the page, if any.
    pub fn completion_of(&self, file: FileId, page: u64) -> Option<SimTime> {
        let (f, p) = self.share.canon(file, page);
        self.inflight.completion_of(f, p)
    }

    /// Marks a logical window as in flight, completing at `done`.
    pub fn insert_window(&mut self, file: FileId, start: u64, len: u64, done: SimTime) {
        let SharedPages {
            inflight, share, ..
        } = self;
        share.for_each_run(file, start, len, |f, p, n| {
            inflight.insert_window(f, p, n, done)
        });
    }

    /// Clears a completed window.
    pub fn complete_window(&mut self, file: FileId, start: u64, len: u64, done: SimTime) {
        let SharedPages {
            inflight, share, ..
        } = self;
        share.for_each_run(file, start, len, |f, p, n| {
            inflight.complete_window(f, p, n, done)
        });
    }

    /// Cancels a window whose read failed (waiters re-fault).
    pub fn cancel_window(&mut self, file: FileId, start: u64, len: u64, done: SimTime) {
        let SharedPages {
            inflight, share, ..
        } = self;
        share.for_each_run(file, start, len, |f, p, n| {
            inflight.cancel_window(f, p, n, done)
        });
    }

    /// Clears all in-flight entries (between runs, whose clocks restart).
    pub fn clear_inflight(&mut self) {
        self.inflight.clear();
    }

    /// Number of pages currently in flight.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }
}

/// Block `idx`'s presence word in `file`, 0 without blocks.
fn word_of<T>(file: Option<&FileBlocks<T>>, idx: u64) -> u64 {
    file.map_or(0, |f| f.word(idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_storage::chunked::ChunkExtent;

    fn f(id: u64) -> FileId {
        FileId(id)
    }

    /// Logical file 1: 8-page chunks; chunk 0 at store pages 64.., chunk 2
    /// at store pages 8.., chunk 1 a hole. Store file is 5.
    fn mapped() -> ShareMap {
        let mut cf = ChunkedFile::new(8);
        cf.map_chunk(
            0,
            ChunkExtent {
                file: f(5),
                page: 64,
            },
        );
        cf.map_chunk(
            2,
            ChunkExtent {
                file: f(5),
                page: 8,
            },
        );
        let mut s = ShareMap::new();
        s.map_file(f(1), cf);
        s
    }

    #[test]
    fn canon_is_identity_for_unmapped_files() {
        let s = ShareMap::new();
        assert_eq!(s.canon(f(9), 123), (f(9), 123));
    }

    #[test]
    fn canon_translates_mapped_chunks_and_keeps_holes() {
        let s = mapped();
        assert_eq!(s.canon(f(1), 3), (f(5), 67), "chunk 0 offset 3");
        assert_eq!(s.canon(f(1), 17), (f(5), 9), "chunk 2 offset 1");
        assert_eq!(s.canon(f(1), 10), (f(1), 10), "hole stays logical");
    }

    #[test]
    fn for_each_run_splits_at_chunk_boundaries() {
        let s = mapped();
        let mut runs = Vec::new();
        s.for_each_run(f(1), 4, 16, |file, page, len| runs.push((file, page, len)));
        assert_eq!(
            runs,
            vec![(f(5), 68, 4), (f(1), 8, 8), (f(5), 8, 4)],
            "chunk-0 tail, the hole, chunk-2 head"
        );
    }

    #[test]
    fn two_logical_files_share_one_chunk() {
        // The point of canonical keys: distinct snapshot files deduplicated
        // onto the same store chunk hit each other's cache lines.
        let mut s = ShareMap::new();
        for file in [f(1), f(2)] {
            let mut cf = ChunkedFile::new(8);
            cf.map_chunk(
                0,
                ChunkExtent {
                    file: f(5),
                    page: 0,
                },
            );
            s.map_file(file, cf);
        }
        let mut pages = SharedPages::new(1 << 20);
        *pages.share_mut() = s;
        pages.insert_range(f(1), 0, 8);
        assert!(pages.contains(f(2), 3), "sibling file shares the chunk");
        assert_eq!(pages.cache().resident_pages(), 8, "stored once");
        assert_eq!(pages.resident_of(f(1)), 8);
        assert_eq!(pages.resident_of(f(2)), 8);
    }

    #[test]
    fn inflight_dedup_across_mapped_files() {
        let mut s = ShareMap::new();
        for file in [f(1), f(2)] {
            let mut cf = ChunkedFile::new(8);
            cf.map_chunk(
                0,
                ChunkExtent {
                    file: f(5),
                    page: 32,
                },
            );
            s.map_file(file, cf);
        }
        let mut pages = SharedPages::new(1 << 20);
        *pages.share_mut() = s;
        let done = SimTime::from_nanos(500);
        pages.insert_window(f(1), 0, 4, done);
        assert_eq!(
            pages.completion_of(f(2), 2),
            Some(done),
            "sibling file waits on the same physical read"
        );
        pages.complete_window(f(2), 0, 4, done);
        assert_eq!(pages.completion_of(f(1), 2), None);
        assert_eq!(pages.inflight_len(), 0);
    }

    #[test]
    fn windows_spanning_holes_keep_logical_identity_there() {
        let s = mapped();
        let mut pages = SharedPages::new(1 << 20);
        *pages.share_mut() = s;
        pages.insert_range(f(1), 6, 6); // chunk-0 tail + hole head
        assert!(pages.contains(f(1), 7));
        assert!(pages.contains(f(1), 9), "hole page cached under itself");
        assert!(pages.cache().contains(f(5), 71), "mapped page canonical");
        assert!(!pages.cache().contains(f(1), 7), "no logical alias stored");
    }

    #[test]
    fn unmapped_files_behave_exactly_as_before() {
        let mut pages = SharedPages::new(1 << 20);
        pages.insert_range(f(3), 10, 5);
        assert!(pages.contains(f(3), 12));
        assert!(pages.touch(f(3), 12));
        assert!(!pages.touch(f(3), 99));
        assert_eq!(pages.resident_of(f(3)), 5);
        let done = SimTime::from_nanos(100);
        pages.insert_window(f(3), 50, 4, done);
        assert_eq!(pages.completion_of(f(3), 52), Some(done));
        pages.cancel_window(f(3), 50, 4, done);
        assert_eq!(pages.completion_of(f(3), 52), None);
        pages.drop_cache();
        assert_eq!(pages.resident_of(f(3)), 0);
    }
}
