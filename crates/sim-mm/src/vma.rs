//! Virtual memory areas of the VMM's guest-memory mapping.
//!
//! Firecracker provides guest memory to KVM as one host-virtual region.
//! Vanilla snapshot restore maps the whole region to the memory file;
//! FaaSnap instead builds a *hierarchy of overlapping mappings* (§4.8):
//!
//! 1. an anonymous mapping covering the entire guest space,
//! 2. non-zero regions `MAP_FIXED`-overlaid onto the memory file,
//! 3. loading-set regions `MAP_FIXED`-overlaid onto the loading-set file.
//!
//! [`AddressSpace::map_fixed`] implements the kernel's `MAP_FIXED`
//! semantics: a new mapping atomically replaces any overlapped portions of
//! existing mappings (splitting them as needed), exactly like Linux. The
//! number of `mmap` calls is tracked because mapping-setup overhead is part
//! of the paper's motivation for region merging (§4.6: >1000 regions for
//! hello-world before merging, <100 after).
//!
//! The disjoint VMAs live in one vector sorted by start page. Every
//! host-visible guest fault looks its page up, and a FaaSnap VM holds
//! hundreds of VMAs, so [`AddressSpace::lookup`] first checks the VMA it
//! returned last and that VMA's successor, and binary-searches only when
//! both miss — the last-hit cache Linux keeps in front of `find_vma`.
//! The cursor is a hint: a lookup always checks that the VMA contains the
//! page, so a stale cursor (after a remap) costs a search, never a wrong
//! answer.

use std::cell::Cell;

use sim_storage::file::FileId;

use crate::addr::{PageNum, PageRange};

/// What a VMA is backed by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backing {
    /// Host anonymous memory (zero-fill on first touch).
    Anonymous,
    /// A file, starting at `offset_page` within it for the VMA's first page.
    File {
        /// Backing file.
        file: FileId,
        /// File page corresponding to the VMA's first page.
        offset_page: u64,
    },
}

/// One mapped region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Vma {
    /// Pages covered.
    pub range: PageRange,
    /// Backing store.
    pub backing: Backing,
}

impl Vma {
    /// Resolves a page within this VMA to its backing location.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the VMA.
    pub fn resolve(&self, page: PageNum) -> Resolved {
        assert!(
            self.range.contains(page),
            "page {page} outside {:?}",
            self.range
        );
        match self.backing {
            Backing::Anonymous => Resolved::Anonymous,
            Backing::File { file, offset_page } => Resolved::File {
                file,
                file_page: offset_page + (page - self.range.start),
            },
        }
    }

    /// Returns the sub-VMA covering `sub` (used when splitting).
    fn slice(&self, sub: PageRange) -> Vma {
        debug_assert!(self.range.intersect(&sub) == sub);
        let backing = match self.backing {
            Backing::Anonymous => Backing::Anonymous,
            Backing::File { file, offset_page } => Backing::File {
                file,
                offset_page: offset_page + (sub.start - self.range.start),
            },
        };
        Vma {
            range: sub,
            backing,
        }
    }
}

/// The backing location of a single page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolved {
    /// Host anonymous memory.
    Anonymous,
    /// Page `file_page` of `file`.
    File {
        /// Backing file.
        file: FileId,
        /// Page index within the file.
        file_page: u64,
    },
}

/// The VMM's guest-memory address space: disjoint VMAs sorted by start
/// page, behind a last-hit cursor.
#[derive(Clone, Debug, Default)]
pub struct AddressSpace {
    vmas: Vec<Vma>,
    /// Index of the VMA the last successful lookup returned. Only a hint:
    /// it may point anywhere (or past the end) after a remap.
    cursor: Cell<usize>,
    mmap_calls: u64,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps `range` to `backing` with `MAP_FIXED` semantics: any existing
    /// mappings overlapping `range` are truncated/split/replaced.
    pub fn map_fixed(&mut self, range: PageRange, backing: Backing) {
        if range.is_empty() {
            return;
        }
        self.mmap_calls += 1;

        // The overlapped run: VMAs ending after `range.start` and starting
        // before `range.end`. Only its first VMA can stick out on the left
        // and only its last on the right; the run is replaced by those
        // remainders around the new mapping.
        let lo = self.vmas.partition_point(|v| v.range.end <= range.start);
        let hi = self.vmas.partition_point(|v| v.range.start < range.end);
        let overlapped = self.vmas.get(lo..hi).unwrap_or_default();
        let left = overlapped
            .first()
            .filter(|v| v.range.start < range.start)
            .map(|v| v.slice(PageRange::new(v.range.start, range.start)));
        let right = overlapped
            .last()
            .filter(|v| v.range.end > range.end)
            .map(|v| v.slice(PageRange::new(range.end, v.range.end)));
        let new = Vma { range, backing };
        self.vmas
            .splice(lo..hi, left.into_iter().chain(Some(new)).chain(right));
    }

    /// Looks up the VMA covering `page`, if any: the last hit or its
    /// successor when either contains `page`, else a binary search.
    pub fn lookup(&self, page: PageNum) -> Option<&Vma> {
        let hint = self.cursor.get();
        for idx in [hint, hint + 1] {
            if let Some(vma) = self.vmas.get(idx).filter(|v| v.range.contains(page)) {
                self.cursor.set(idx);
                return Some(vma);
            }
        }
        let idx = self.vmas.partition_point(|v| v.range.end <= page);
        let vma = self.vmas.get(idx).filter(|v| v.range.contains(page))?;
        self.cursor.set(idx);
        Some(vma)
    }

    /// Resolves a page to its backing location, if mapped.
    pub fn resolve(&self, page: PageNum) -> Option<Resolved> {
        self.lookup(page).map(|v| v.resolve(page))
    }

    /// Number of `mmap` calls issued against this address space.
    pub fn mmap_calls(&self) -> u64 {
        self.mmap_calls
    }

    /// Number of distinct VMAs currently present.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Iterates VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.iter()
    }

    /// True if every page of `range` is covered by some VMA.
    pub fn covers(&self, range: PageRange) -> bool {
        let first = self.vmas.partition_point(|v| v.range.end <= range.start);
        let mut next = range.start;
        for vma in self.vmas.iter().skip(first) {
            if next >= range.end || vma.range.start > next {
                break;
            }
            next = vma.range.end;
        }
        next >= range.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(id: u64, off: u64) -> Backing {
        Backing::File {
            file: FileId(id),
            offset_page: off,
        }
    }

    #[test]
    fn single_mapping_lookup() {
        let mut a = AddressSpace::new();
        a.map_fixed(PageRange::new(0, 100), Backing::Anonymous);
        assert_eq!(a.resolve(50), Some(Resolved::Anonymous));
        assert_eq!(a.resolve(100), None);
        assert_eq!(a.vma_count(), 1);
        assert_eq!(a.mmap_calls(), 1);
    }

    #[test]
    fn file_offset_resolution() {
        let mut a = AddressSpace::new();
        a.map_fixed(PageRange::new(10, 20), file(3, 100));
        assert_eq!(
            a.resolve(15),
            Some(Resolved::File {
                file: FileId(3),
                file_page: 105
            })
        );
    }

    #[test]
    fn overlay_splits_underlying_mapping() {
        let mut a = AddressSpace::new();
        a.map_fixed(PageRange::new(0, 100), Backing::Anonymous);
        a.map_fixed(PageRange::new(40, 60), file(1, 0));
        assert_eq!(a.vma_count(), 3);
        assert_eq!(a.resolve(39), Some(Resolved::Anonymous));
        assert_eq!(
            a.resolve(40),
            Some(Resolved::File {
                file: FileId(1),
                file_page: 0
            })
        );
        assert_eq!(
            a.resolve(59),
            Some(Resolved::File {
                file: FileId(1),
                file_page: 19
            })
        );
        assert_eq!(a.resolve(60), Some(Resolved::Anonymous));
    }

    #[test]
    fn overlay_preserves_file_offsets_on_split() {
        let mut a = AddressSpace::new();
        a.map_fixed(PageRange::new(0, 100), file(1, 1000));
        a.map_fixed(PageRange::new(40, 60), Backing::Anonymous);
        // Right remainder keeps its file offset aligned.
        assert_eq!(
            a.resolve(60),
            Some(Resolved::File {
                file: FileId(1),
                file_page: 1060
            })
        );
        assert_eq!(
            a.resolve(0),
            Some(Resolved::File {
                file: FileId(1),
                file_page: 1000
            })
        );
    }

    #[test]
    fn hierarchical_overlap_faasnap_style() {
        // Anonymous base, then non-zero regions onto the memory file, then
        // loading-set regions onto the loading-set file (Figure 4).
        let mut a = AddressSpace::new();
        a.map_fixed(PageRange::new(0, 1000), Backing::Anonymous);
        a.map_fixed(PageRange::new(100, 500), file(1, 100)); // memory file, same offset
        a.map_fixed(PageRange::new(200, 300), file(2, 0)); // loading set file, compact
        assert_eq!(a.resolve(50), Some(Resolved::Anonymous));
        assert_eq!(
            a.resolve(150),
            Some(Resolved::File {
                file: FileId(1),
                file_page: 150
            })
        );
        assert_eq!(
            a.resolve(250),
            Some(Resolved::File {
                file: FileId(2),
                file_page: 50
            })
        );
        assert_eq!(
            a.resolve(400),
            Some(Resolved::File {
                file: FileId(1),
                file_page: 400
            })
        );
        assert_eq!(a.resolve(700), Some(Resolved::Anonymous));
        assert!(a.covers(PageRange::new(0, 1000)));
        assert_eq!(a.mmap_calls(), 3);
    }

    #[test]
    fn exact_replacement() {
        let mut a = AddressSpace::new();
        a.map_fixed(PageRange::new(10, 20), Backing::Anonymous);
        a.map_fixed(PageRange::new(10, 20), file(1, 0));
        assert_eq!(a.vma_count(), 1);
        assert_eq!(
            a.resolve(10),
            Some(Resolved::File {
                file: FileId(1),
                file_page: 0
            })
        );
    }

    #[test]
    fn overlay_spanning_multiple_vmas() {
        let mut a = AddressSpace::new();
        a.map_fixed(PageRange::new(0, 10), file(1, 0));
        a.map_fixed(PageRange::new(10, 20), file(2, 0));
        a.map_fixed(PageRange::new(20, 30), file(3, 0));
        a.map_fixed(PageRange::new(5, 25), Backing::Anonymous);
        assert_eq!(
            a.resolve(4),
            Some(Resolved::File {
                file: FileId(1),
                file_page: 4
            })
        );
        assert_eq!(a.resolve(5), Some(Resolved::Anonymous));
        assert_eq!(a.resolve(24), Some(Resolved::Anonymous));
        assert_eq!(
            a.resolve(25),
            Some(Resolved::File {
                file: FileId(3),
                file_page: 5
            })
        );
        assert_eq!(a.vma_count(), 3);
    }

    #[test]
    fn coverage_detects_holes() {
        let mut a = AddressSpace::new();
        a.map_fixed(PageRange::new(0, 10), Backing::Anonymous);
        a.map_fixed(PageRange::new(20, 30), Backing::Anonymous);
        assert!(a.covers(PageRange::new(0, 10)));
        assert!(a.covers(PageRange::new(5, 8)));
        assert!(!a.covers(PageRange::new(0, 30)));
        assert!(!a.covers(PageRange::new(15, 18)));
    }

    #[test]
    fn empty_map_is_noop() {
        let mut a = AddressSpace::new();
        a.map_fixed(PageRange::EMPTY, Backing::Anonymous);
        assert_eq!(a.vma_count(), 0);
        assert_eq!(a.mmap_calls(), 0);
    }
}
