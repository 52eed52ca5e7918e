//! The `mincore(2)` model used for FaaSnap's host page recording.
//!
//! §4.4: "FaaSnap uses the mincore syscall to construct the working set
//! file. mincore scans the present bits in the page table entries to
//! determine if pages in a memory range are present in memory. In our
//! case, it detects if guest pages are in the host page cache."
//!
//! For a file-backed mapping, a page is *in core* iff the backing file
//! page is resident in the page cache — whether it got there via a guest
//! fault, kernel readahead, or another process reading the same file. This
//! is exactly why host page recording is more tolerant of working-set
//! drift than `userfaultfd` tracking: readahead-predicted pages are
//! recorded too. For an anonymous mapping, a page is in core iff it is
//! resident in the address space.

use crate::addr::{PageNum, PageRange};
use crate::page_table::PageTable;
use crate::share::SharedPages;
use crate::vma::{AddressSpace, Backing};

/// Scans `range` and returns pages that are in core now but absent from
/// `already_seen` (a bitmap indexed from `range.start`), updating
/// `already_seen` in place. This is the incremental scan the FaaSnap
/// daemon performs repeatedly during the record phase (§5): each call
/// returns the *newly present* pages, in address order.
///
/// The scan walks the VMAs in address order and asks each backing for its
/// resident pages directly — the page cache's residency words for a file
/// mapping, the page table for an anonymous one — so a scan costs
/// O(resident pages) plus a word per 64 file pages, not a VMA lookup and a
/// cache probe per page of `range`. The tests hold it to a per-page
/// oracle: it returns exactly what resolving every page of `range` through
/// the VMAs and testing its residency would.
pub fn scan_new_pages(
    range: PageRange,
    aspace: &AddressSpace,
    pt: &PageTable,
    cache: &SharedPages,
    already_seen: &mut [bool],
) -> Vec<PageNum> {
    assert_eq!(
        already_seen.len() as u64,
        range.len(),
        "bitmap sized to range"
    );
    let mut new_pages = Vec::new();
    let mut visit = |page: PageNum| {
        if let Some(seen) = already_seen.get_mut((page - range.start) as usize) {
            if !*seen {
                *seen = true;
                new_pages.push(page);
            }
        }
    };
    for vma in aspace.iter() {
        let r = vma.range.intersect(&range);
        if r.is_empty() {
            continue;
        }
        match vma.backing {
            Backing::File { file, offset_page } => {
                let first = offset_page + (r.start - vma.range.start);
                cache.for_each_resident(file, first, r.len(), |fp| visit(r.start + (fp - first)));
            }
            Backing::Anonymous => pt.for_each_present(r, &mut visit),
        }
    }
    new_pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::PageState;
    use crate::vma::Resolved;
    use proptest::prelude::*;
    use sim_storage::chunked::{ChunkExtent, ChunkedFile};
    use sim_storage::file::FileId;

    /// The per-page reference: resolve the page through the VMAs, then
    /// test the backing file page's cache residency or the anonymous
    /// page's presence.
    fn page_in_core(
        page: PageNum,
        aspace: &AddressSpace,
        pt: &PageTable,
        cache: &SharedPages,
    ) -> bool {
        match aspace.resolve(page) {
            Some(Resolved::File { file, file_page }) => cache.contains(file, file_page),
            Some(Resolved::Anonymous) => pt.state(page) != PageState::NotPresent,
            None => false,
        }
    }

    /// [`scan_new_pages`] as a probe of every page of `range`.
    fn oracle_scan(
        range: PageRange,
        aspace: &AddressSpace,
        pt: &PageTable,
        cache: &SharedPages,
        already_seen: &mut [bool],
    ) -> Vec<PageNum> {
        let mut new_pages = Vec::new();
        for (i, p) in range.iter().enumerate() {
            if !already_seen[i] && page_in_core(p, aspace, pt, cache) {
                already_seen[i] = true;
                new_pages.push(p);
            }
        }
        new_pages
    }

    fn world() -> (AddressSpace, PageTable, SharedPages) {
        let mut a = AddressSpace::new();
        a.map_fixed(
            PageRange::new(0, 50),
            Backing::File {
                file: FileId(1),
                offset_page: 0,
            },
        );
        a.map_fixed(PageRange::new(50, 100), Backing::Anonymous);
        (a, PageTable::new(100), SharedPages::new(1000))
    }

    #[test]
    fn file_pages_follow_page_cache() {
        let (a, pt, mut c) = world();
        assert!(!page_in_core(10, &a, &pt, &c));
        c.insert(FileId(1), 10);
        assert!(page_in_core(10, &a, &pt, &c));
    }

    #[test]
    fn readahead_pages_visible_without_guest_access() {
        // The key host-page-recording property: pages cached by readahead
        // are in core even though the guest never faulted on them.
        let (a, pt, mut c) = world();
        c.insert_range(FileId(1), 20, 8);
        let mut seen = vec![false; 12];
        let pages = scan_new_pages(PageRange::new(18, 30), &a, &pt, &c, &mut seen);
        assert_eq!(pages, (20..28).collect::<Vec<_>>());
        assert_eq!(pt.rss_pages(), 0, "guest never touched anything");
    }

    #[test]
    fn anon_pages_follow_residency() {
        let (a, mut pt, c) = world();
        assert!(!page_in_core(60, &a, &pt, &c));
        pt.install(60);
        assert!(page_in_core(60, &a, &pt, &c));
        pt.set_state(61, PageState::HostPte);
        assert!(page_in_core(61, &a, &pt, &c), "host-PTE pages are resident");
        let mut seen = vec![false; 100];
        let pages = scan_new_pages(PageRange::new(0, 100), &a, &pt, &c, &mut seen);
        assert_eq!(pages, vec![60, 61]);
    }

    #[test]
    fn unmapped_pages_not_in_core() {
        let (a, pt, c) = world();
        assert!(!page_in_core(500, &a, &pt, &c));
    }

    #[test]
    fn incremental_scan_returns_only_new_pages() {
        let (a, pt, mut c) = world();
        let range = PageRange::new(0, 50);
        let mut seen = vec![false; 50];
        c.insert_range(FileId(1), 5, 3);
        let first = scan_new_pages(range, &a, &pt, &c, &mut seen);
        assert_eq!(first, vec![5, 6, 7]);
        // Nothing new on re-scan.
        assert!(scan_new_pages(range, &a, &pt, &c, &mut seen).is_empty());
        c.insert(FileId(1), 30);
        assert_eq!(scan_new_pages(range, &a, &pt, &c, &mut seen), vec![30]);
    }

    #[test]
    #[should_panic(expected = "bitmap sized to range")]
    fn mis_sized_bitmap_panics() {
        let (a, pt, c) = world();
        let mut seen = vec![false; 3];
        scan_new_pages(PageRange::new(0, 50), &a, &pt, &c, &mut seen);
    }

    /// Guest pages in the differential test.
    const GUEST: u64 = 256;
    /// Store file the chunk-mapped file 3 translates onto.
    const STORE: FileId = FileId(9);

    fn file_of(i: u64) -> FileId {
        [STORE, FileId(1), FileId(2), FileId(3)][(i % 4) as usize]
    }

    proptest! {
        /// The VMA walk returns exactly the per-page oracle's pages, in the
        /// same order, and sets the same `seen` bits — across MAP_FIXED
        /// overlays, chunk-mapped files with holes, LRU evictions, cache
        /// drops and page-table churn. After every step the cache's
        /// residency counts equal naive counts over its pages.
        #[test]
        fn scan_matches_per_page_oracle(
            capacity in 8u64..160,
            chunks in proptest::collection::vec((any::<bool>(), 0u64..24), 8..12),
            bounds in (0u64..48, 0u64..48),
            ops in proptest::collection::vec((0u64..8, 0u64..GUEST, 1u64..48, 0u64..4, 0u64..200), 1..48),
        ) {
            // File 3: 8-page chunks, unmapped chunks are holes, mapped
            // ones land anywhere in the store file (dedup may alias).
            let mut cf = ChunkedFile::new(8);
            for (idx, &(mapped, slot)) in chunks.iter().enumerate() {
                if mapped {
                    cf.map_chunk(idx as u64, ChunkExtent { file: STORE, page: slot * 8 });
                }
            }
            let mut cache = SharedPages::new(capacity);
            cache.share_mut().map_file(FileId(3), cf);
            let mut aspace = AddressSpace::new();
            aspace.map_fixed(PageRange::new(0, GUEST), Backing::Anonymous);
            let mut pt = PageTable::new(GUEST);
            let range = PageRange::new(bounds.0, GUEST + 16 - bounds.1);
            let mut seen = vec![false; range.len() as usize];
            let mut oracle_seen = seen.clone();
            for (kind, page, len, which, extra) in ops {
                let file = file_of(which);
                let window = PageRange::with_len(page, len.min(GUEST - page));
                match kind {
                    0 => {
                        let backing = if which == 0 {
                            Backing::Anonymous
                        } else {
                            Backing::File { file, offset_page: extra }
                        };
                        aspace.map_fixed(window, backing);
                    }
                    1 => cache.insert_range(file, page + extra, len),
                    2 => cache.insert(file, page),
                    3 => {
                        cache.touch(file, page);
                    }
                    5 if extra % 4 == 0 => cache.drop_cache(),
                    _ => {
                        let state = [PageState::NotPresent, PageState::HostPte, PageState::Mapped];
                        pt.set_range(window, state[(extra % 3) as usize]);
                    }
                }
                cache.cache().assert_residency_exact(file, extra, len);
                let got = scan_new_pages(range, &aspace, &pt, &cache, &mut seen);
                let want = oracle_scan(range, &aspace, &pt, &cache, &mut oracle_seen);
                prop_assert_eq!(got, want);
                prop_assert_eq!(&seen, &oracle_seen);
            }
        }
    }
}
