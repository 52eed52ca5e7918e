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

use std::collections::BTreeMap;

use sim_mm::addr::{PageNum, PageRange};

/// Sparse token map of guest physical memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuestMemory {
    total_pages: u64,
    /// Non-zero pages only; absence means the page is zero. Ordered, so
    /// every scan below iterates in address order by construction.
    contents: BTreeMap<PageNum, u64>,
}

impl GuestMemory {
    /// Creates all-zero guest memory of `total_pages` pages.
    pub fn new(total_pages: u64) -> Self {
        GuestMemory {
            total_pages,
            contents: BTreeMap::new(),
        }
    }

    /// Total guest physical pages.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Reads a page's content token (0 for zero pages).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn read(&self, page: PageNum) -> u64 {
        assert!(page < self.total_pages, "page {page} out of range");
        self.contents.get(&page).copied().unwrap_or(0)
    }

    /// Writes a content token; a zero token makes the page a zero page.
    pub fn write(&mut self, page: PageNum, token: u64) {
        assert!(page < self.total_pages, "page {page} out of range");
        if token == 0 {
            self.contents.remove(&page);
        } else {
            self.contents.insert(page, token);
        }
    }

    /// Zeroes a page (page sanitization of a freed page).
    pub fn zero(&mut self, page: PageNum) {
        self.contents.remove(&page);
    }

    /// Zeroes every page in `range`.
    pub fn zero_range(&mut self, range: PageRange) {
        for p in range.iter() {
            self.contents.remove(&p);
        }
    }

    /// True if the page holds non-zero data.
    pub fn is_nonzero(&self, page: PageNum) -> bool {
        self.contents.contains_key(&page)
    }

    /// Number of non-zero pages.
    pub fn nonzero_count(&self) -> u64 {
        self.contents.len() as u64
    }

    /// Non-zero page numbers in ascending order (the map is ordered).
    pub fn nonzero_pages(&self) -> Vec<PageNum> {
        self.contents.keys().copied().collect()
    }

    /// The sparse page → token map itself (non-zero pages only), for
    /// consumers that chunk or hash contents without copying.
    pub fn tokens(&self) -> &BTreeMap<PageNum, u64> {
        &self.contents
    }

    /// The zero/non-zero scan: maximal runs of consecutive non-zero pages,
    /// in address order. The complement (within `[0, total_pages)`) is the
    /// set of zero regions.
    pub fn nonzero_regions(&self) -> Vec<PageRange> {
        sim_mm::addr::runs_from_pages(self.nonzero_pages())
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
        checksum_of(self.contents.iter().map(|(&p, &token)| (p, token)))
    }

    /// Memory of `total_pages` pages holding the non-zero `(page, token)`
    /// pairs of `pages`, which arrive in ascending page order.
    pub(crate) fn from_sorted_pages(
        total_pages: u64,
        pages: impl Iterator<Item = (PageNum, u64)>,
    ) -> Self {
        GuestMemory {
            total_pages,
            contents: pages.collect(),
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
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        GuestMemory::new(10).read(10);
    }
}
