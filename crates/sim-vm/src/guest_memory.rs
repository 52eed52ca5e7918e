//! Sparse contents of guest physical memory.
//!
//! A page is either *zero* or carries a 64-bit content token standing in
//! for its 4 KiB of data. Tokens are enough to verify restore correctness
//! (every strategy must reproduce the exact token map) and to drive the
//! zero/non-zero region scan FaaSnap runs after the record phase:
//!
//! §4.5: "When an invocation is finished, FaaSnap scans the guest memory
//! file, merging consecutive zero pages into zero regions and non-zero
//! pages into non-zero regions."
//!
//! An image stores its non-zero pages only, as one vector of
//! `(page, token)` pairs sorted by page. Images are frozen once built: a
//! snapshot's image is shared by every VM restored from it, and each VM
//! writes into its own copy-on-write overlay
//! ([`crate::overlay::CowMemory`]). So an image is built in bulk
//! ([`GuestMemory::from_writes`], or a sorted merge when an overlay is
//! materialized) and then only read: lookups binary-search the vector and
//! scans walk it.

use sim_mm::addr::{PageNum, PageRange};

/// Guest physical memory: the sorted vector of its non-zero pages.
///
/// The single-page mutators ([`GuestMemory::write`], [`GuestMemory::zero`],
/// [`GuestMemory::zero_range`]) shift the vector's tail, O(n) per call,
/// so no hot path may build or edit an image page by page: build it with
/// [`GuestMemory::from_writes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuestMemory {
    total_pages: u64,
    /// Non-zero pages only, as `(page, token)` sorted by page, with no
    /// duplicate pages and no zero tokens; absence means the page is
    /// zero. The form is canonical, so the derived equality is exact and
    /// every scan below iterates in address order by construction.
    contents: Vec<(PageNum, u64)>,
}

impl GuestMemory {
    /// Creates all-zero guest memory of `total_pages` pages.
    pub fn new(total_pages: u64) -> Self {
        GuestMemory {
            total_pages,
            contents: Vec::new(),
        }
    }

    /// Memory of `total_pages` pages after applying `writes` in order to
    /// all-zero memory: the last write to a page wins, and a zero token
    /// makes the page zero. Equal to [`GuestMemory::new`] followed by one
    /// [`GuestMemory::write`] per item, in O(n log n) instead of O(n²).
    ///
    /// # Panics
    ///
    /// Panics if a written page is out of range.
    pub fn from_writes(total_pages: u64, writes: impl IntoIterator<Item = (PageNum, u64)>) -> Self {
        let mut contents: Vec<(PageNum, u64)> = writes.into_iter().collect();
        // Stable, so writes to one page keep their order.
        contents.sort_by_key(|&(page, _)| page);
        if let Some(&(last, _)) = contents.last() {
            assert!(last < total_pages, "page {last} out of range");
        }
        contents.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                earlier.1 = later.1;
            }
            same
        });
        contents.retain(|&(_, token)| token != 0);
        GuestMemory {
            total_pages,
            contents,
        }
    }

    /// Total guest physical pages.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Where `page` sits in `contents`: `Ok` at its index if non-zero,
    /// `Err` at the index it would be inserted at if zero.
    fn slot(&self, page: PageNum) -> Result<usize, usize> {
        self.contents.binary_search_by_key(&page, |&(p, _)| p)
    }

    /// Reads a page's content token (0 for zero pages).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn read(&self, page: PageNum) -> u64 {
        assert!(page < self.total_pages, "page {page} out of range");
        self.slot(page)
            .ok()
            .and_then(|i| self.contents.get(i))
            .map_or(0, |&(_, token)| token)
    }

    /// Writes a content token; a zero token makes the page a zero page.
    /// O(n): for tests and one-off edits, never for building an image
    /// (use [`GuestMemory::from_writes`]).
    pub fn write(&mut self, page: PageNum, token: u64) {
        assert!(page < self.total_pages, "page {page} out of range");
        match self.slot(page) {
            Ok(i) if token == 0 => {
                self.contents.remove(i);
            }
            Ok(i) => {
                if let Some(entry) = self.contents.get_mut(i) {
                    entry.1 = token;
                }
            }
            Err(i) if token != 0 => self.contents.insert(i, (page, token)),
            Err(_) => {}
        }
    }

    /// Zeroes a page (page sanitization of a freed page). O(n), like
    /// [`GuestMemory::write`].
    pub fn zero(&mut self, page: PageNum) {
        if let Ok(i) = self.slot(page) {
            self.contents.remove(i);
        }
    }

    /// Zeroes every page in `range`: one drain of the range's entries,
    /// O(n) per call.
    pub fn zero_range(&mut self, range: PageRange) {
        let lo = self.contents.partition_point(|&(p, _)| p < range.start);
        let (_, tail) = self.contents.split_at(lo);
        let len = tail.partition_point(|&(p, _)| p < range.end);
        self.contents.drain(lo..lo + len);
    }

    /// True if the page holds non-zero data.
    pub fn is_nonzero(&self, page: PageNum) -> bool {
        self.slot(page).is_ok()
    }

    /// Number of non-zero pages.
    pub fn nonzero_count(&self) -> u64 {
        self.contents.len() as u64
    }

    /// Non-zero page numbers in ascending order.
    pub fn nonzero_pages(&self) -> Vec<PageNum> {
        self.contents.iter().map(|&(p, _)| p).collect()
    }

    /// The non-zero `(page, token)` pairs in ascending page order, for
    /// consumers that chunk or hash contents without copying.
    pub fn tokens(&self) -> &[(PageNum, u64)] {
        &self.contents
    }

    /// The zero/non-zero scan: maximal runs of consecutive non-zero pages,
    /// in address order. The complement (within `[0, total_pages)`) is the
    /// set of zero regions.
    pub fn nonzero_regions(&self) -> Vec<PageRange> {
        sim_mm::addr::runs_from_pages(self.contents.iter().map(|&(p, _)| p))
    }

    /// Zero regions: the complement of [`Self::nonzero_regions`].
    pub fn zero_regions(&self) -> Vec<PageRange> {
        let mut out = Vec::new();
        let mut cursor = 0;
        for r in self.nonzero_regions() {
            if r.start > cursor {
                out.push(PageRange::new(cursor, r.start));
            }
            cursor = r.end;
        }
        if cursor < self.total_pages {
            out.push(PageRange::new(cursor, self.total_pages));
        }
        out
    }

    /// A stable checksum over all contents, for fast equality assertions
    /// in correctness tests.
    pub fn checksum(&self) -> u64 {
        checksum_of(self.contents.iter().copied())
    }

    /// Memory of `total_pages` pages whose non-zero `(page, token)` pairs
    /// are `contents`, already in the canonical form: ascending pages, no
    /// duplicates, no zero tokens.
    pub(crate) fn from_sorted_pages(total_pages: u64, contents: Vec<(PageNum, u64)>) -> Self {
        debug_assert!(contents.is_sorted_by(|a, b| a.0 < b.0), "pages must ascend");
        debug_assert!(contents.iter().all(|&(_, token)| token != 0));
        GuestMemory {
            total_pages,
            contents,
        }
    }
}

/// The checksum of a memory image given as its non-zero `(page, token)`
/// pairs in ascending page order: [`GuestMemory::checksum`] and the
/// read-through checksum of a copy-on-write overlay share this fold, so
/// equal images checksum equal however they are stored.
pub(crate) fn checksum_of(pages: impl Iterator<Item = (PageNum, u64)>) -> u64 {
    let mut acc: u64 = 0xcbf29ce484222325;
    for (p, token) in pages {
        acc ^= p.wrapping_mul(0x100000001b3);
        acc = acc.rotate_left(17) ^ token;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_zero() {
        let m = GuestMemory::new(100);
        assert_eq!(m.read(0), 0);
        assert_eq!(m.nonzero_count(), 0);
        assert_eq!(m.zero_regions(), vec![PageRange::new(0, 100)]);
        assert!(m.nonzero_regions().is_empty());
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = GuestMemory::new(100);
        m.write(5, 0xabcd);
        assert_eq!(m.read(5), 0xabcd);
        assert!(m.is_nonzero(5));
        m.write(5, 0);
        assert_eq!(m.read(5), 0);
        assert!(!m.is_nonzero(5));
    }

    #[test]
    fn zero_and_zero_range() {
        let mut m = GuestMemory::new(100);
        for p in 10..20 {
            m.write(p, p + 1);
        }
        m.zero(10);
        m.zero_range(PageRange::new(15, 18));
        assert_eq!(m.nonzero_pages(), vec![11, 12, 13, 14, 18, 19]);
    }

    #[test]
    fn region_scan() {
        let mut m = GuestMemory::new(30);
        for p in [2u64, 3, 4, 10, 11, 29] {
            m.write(p, 7);
        }
        assert_eq!(
            m.nonzero_regions(),
            vec![
                PageRange::new(2, 5),
                PageRange::new(10, 12),
                PageRange::new(29, 30)
            ]
        );
        assert_eq!(
            m.zero_regions(),
            vec![
                PageRange::new(0, 2),
                PageRange::new(5, 10),
                PageRange::new(12, 29)
            ]
        );
    }

    #[test]
    fn regions_partition_address_space() {
        let mut m = GuestMemory::new(1000);
        for p in (0..1000).step_by(7) {
            m.write(p, 1);
        }
        let total: u64 = m
            .nonzero_regions()
            .iter()
            .chain(m.zero_regions().iter())
            .map(|r| r.len())
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn checksum_detects_differences() {
        let mut a = GuestMemory::new(100);
        let mut b = GuestMemory::new(100);
        a.write(5, 1);
        b.write(5, 1);
        assert_eq!(a.checksum(), b.checksum());
        b.write(6, 1);
        assert_ne!(a.checksum(), b.checksum());
        b.write(6, 0);
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn from_writes_applies_writes_in_order() {
        let m = GuestMemory::from_writes(100, [(7, 1), (3, 2), (7, 0), (5, 4), (3, 9)]);
        assert_eq!(m.tokens(), &[(3, 9), (5, 4)]);
        let mut replay = GuestMemory::new(100);
        for (p, t) in [(7, 1), (3, 2), (7, 0), (5, 4), (3, 9)] {
            replay.write(p, t);
        }
        assert_eq!(m, replay);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_writes_rejects_out_of_range_pages() {
        GuestMemory::from_writes(10, [(3, 1), (10, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        GuestMemory::new(10).read(10);
    }
}
