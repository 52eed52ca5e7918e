//! Guest-physical page numbers and ranges.
//!
//! The VMM maps the guest's physical address space at a fixed host virtual
//! base, so guest-physical page numbers double as offsets into both the
//! VMM mapping and the snapshot memory file. All region bookkeeping in the
//! reproduction (working sets, loading sets, zero/non-zero scans, VMAs) is
//! expressed in [`PageRange`]s.

use std::fmt;

/// A guest-physical page number (4 KiB granularity).
pub type PageNum = u64;

/// A half-open range of pages `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageRange {
    /// First page in the range.
    pub start: PageNum,
    /// One past the last page.
    pub end: PageNum,
}

impl PageRange {
    /// Creates `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: PageNum, end: PageNum) -> Self {
        assert!(start <= end, "invalid page range [{start}, {end})");
        PageRange { start, end }
    }

    /// Creates `[start, start + len)`.
    pub fn with_len(start: PageNum, len: u64) -> Self {
        PageRange {
            start,
            end: start + len,
        }
    }

    /// The empty range at zero.
    pub const EMPTY: PageRange = PageRange { start: 0, end: 0 };

    /// Number of pages.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True if the range covers no pages.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Number of bytes covered.
    pub fn bytes(&self) -> u64 {
        self.len() * sim_core::units::PAGE_SIZE
    }

    /// True if `page` lies within the range.
    pub fn contains(&self, page: PageNum) -> bool {
        (self.start..self.end).contains(&page)
    }

    /// True if the two ranges share at least one page.
    pub fn overlaps(&self, other: &PageRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The overlapping sub-range, or an empty range if disjoint.
    pub fn intersect(&self, other: &PageRange) -> PageRange {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start >= end {
            PageRange::EMPTY
        } else {
            PageRange { start, end }
        }
    }

    /// Iterates over the pages in the range.
    pub fn iter(&self) -> impl Iterator<Item = PageNum> {
        self.start..self.end
    }

    /// Gap between this range and a later range `other` (pages strictly
    /// between them), or `None` if they touch/overlap or `other` starts
    /// before this ends.
    pub fn gap_to(&self, other: &PageRange) -> Option<u64> {
        if other.start >= self.end {
            Some(other.start - self.end)
        } else {
            None
        }
    }

    /// Merges two ranges into their convex hull (caller ensures the gap is
    /// acceptable, as in loading-set region merging).
    pub fn hull(&self, other: &PageRange) -> PageRange {
        PageRange {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

impl fmt::Debug for PageRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

impl fmt::Display for PageRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Normalizes a list of ranges: sorts by start, drops empties, and merges
/// overlapping or adjacent ranges. Returns disjoint, sorted, non-empty
/// ranges covering the same page set.
pub fn normalize(mut ranges: Vec<PageRange>) -> Vec<PageRange> {
    ranges.retain(|r| !r.is_empty());
    ranges.sort_by_key(|r| r.start);
    let mut out: Vec<PageRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
            _ => out.push(r),
        }
    }
    out
}

/// Converts a sorted iterator of page numbers into maximal runs.
pub fn runs_from_pages<I: IntoIterator<Item = PageNum>>(pages: I) -> Vec<PageRange> {
    let mut out: Vec<PageRange> = Vec::new();
    for p in pages {
        match out.last_mut() {
            Some(last) if p == last.end => last.end += 1,
            Some(last) if p < last.end => {
                debug_assert!(p >= last.start, "pages must be sorted");
            }
            _ => out.push(PageRange::with_len(p, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_properties() {
        let r = PageRange::new(10, 20);
        assert_eq!(r.len(), 10);
        assert_eq!(r.bytes(), 40_960);
        assert!(r.contains(10));
        assert!(r.contains(19));
        assert!(!r.contains(20));
        assert!(!PageRange::EMPTY.contains(0));
        assert!(PageRange::with_len(5, 0).is_empty());
    }

    #[test]
    fn overlap_and_intersection() {
        let a = PageRange::new(0, 10);
        let b = PageRange::new(5, 15);
        let c = PageRange::new(10, 20);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "half-open ranges touching do not overlap");
        assert_eq!(a.intersect(&b), PageRange::new(5, 10));
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn gaps_and_hull() {
        let a = PageRange::new(0, 10);
        let b = PageRange::new(15, 20);
        assert_eq!(a.gap_to(&b), Some(5));
        assert_eq!(a.gap_to(&PageRange::new(10, 12)), Some(0));
        assert_eq!(a.gap_to(&PageRange::new(5, 12)), None);
        assert_eq!(a.hull(&b), PageRange::new(0, 20));
    }

    #[test]
    fn normalize_merges_and_sorts() {
        let out = normalize(vec![
            PageRange::new(10, 12),
            PageRange::new(0, 5),
            PageRange::new(4, 8),
            PageRange::new(12, 14),
            PageRange::EMPTY,
        ]);
        assert_eq!(out, vec![PageRange::new(0, 8), PageRange::new(10, 14)]);
    }

    #[test]
    fn runs_from_sorted_pages() {
        let runs = runs_from_pages([1, 2, 3, 7, 8, 20]);
        assert_eq!(
            runs,
            vec![
                PageRange::new(1, 4),
                PageRange::new(7, 9),
                PageRange::new(20, 21)
            ]
        );
        assert!(runs_from_pages(std::iter::empty()).is_empty());
    }

    #[test]
    fn runs_tolerate_duplicates() {
        let runs = runs_from_pages([1, 1, 2, 2, 3]);
        assert_eq!(runs, vec![PageRange::new(1, 4)]);
    }

    #[test]
    #[should_panic(expected = "invalid page range")]
    fn inverted_range_panics() {
        PageRange::new(5, 1);
    }
}
