//! The loading set and its compact file layout.
//!
//! §4.6: "We define the loading set as the working set pages excluding the
//! zero pages." Adjacent loading-set regions separated by at most 32
//! non-loading-set pages are merged, "a value that reduces the number of
//! regions to small enough while not adding too many unneeded pages."
//!
//! §4.7: "FaaSnap sorts the loading set regions first by their group
//! numbers, then by their addresses" into a compact loading-set file,
//! which the daemon loader then reads strictly sequentially.
//!
//! The regions are disjoint, so a guest page lies in at most one. Besides
//! the file-order list, a [`LoadingSet`] keeps the positions of its
//! regions in guest order, and [`LoadingSet::covers`] and
//! [`LoadingSet::file_page_of`] (which the runtime's mapping verification
//! calls on every loading-set fault) binary-search that index.

use std::collections::BTreeSet;

use sim_mm::addr::{PageNum, PageRange};
use sim_vm::guest_memory::GuestMemory;

use crate::wset::WorkingSet;

/// The default region-merge gap threshold in pages (§4.6).
pub const MERGE_GAP: u64 = 32;

/// One loading-set region: a guest extent backed by a compact file extent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LsRegion {
    /// Guest pages covered.
    pub guest: PageRange,
    /// First page of the region within the loading-set file.
    pub file_start: u64,
    /// Working-set group (lowest group of any page in the region).
    pub group: u32,
}

/// A built loading set: regions in (group, address) order with assigned
/// file offsets.
#[derive(Clone, Debug, Default)]
pub struct LoadingSet {
    regions: Vec<LsRegion>,
    /// Indices into `regions` in guest-address order, for page lookups.
    by_guest: Vec<u32>,
    file_pages: u64,
    /// Loading-set pages before merging (for the §4.6 accounting).
    core_pages: u64,
    /// Regions before merging.
    unmerged_regions: u64,
}

impl LoadingSet {
    /// Builds the loading set from the recorded working set and the
    /// post-invocation guest memory (for the zero/non-zero scan), merging
    /// regions with gaps up to `merge_gap`.
    pub fn build(ws: &WorkingSet, memory: &GuestMemory, merge_gap: u64) -> LoadingSet {
        // 1. Loading set pages = working set ∩ non-zero, with the group
        //    each page received in scan order.
        let mut pages: Vec<(PageNum, u32)> = ws
            .pages_with_groups()
            .filter(|(p, _)| memory.is_nonzero(*p))
            .collect();
        let core_pages = pages.len() as u64;
        // 2. Regions in address order; region group = min page group.
        pages.sort_unstable_by_key(|(p, _)| *p);
        let mut regions: Vec<(PageRange, u32)> = Vec::new();
        for (p, g) in pages {
            match regions.last_mut() {
                Some((r, rg)) if p == r.end => {
                    r.end += 1;
                    *rg = (*rg).min(g);
                }
                // Duplicate page (already covered): just fold its group in.
                Some((r, rg)) if p < r.end => {
                    *rg = (*rg).min(g);
                }
                _ => regions.push((PageRange::with_len(p, 1), g)),
            }
        }
        let unmerged_regions = regions.len() as u64;
        // 3. Merge adjacent regions separated by at most `merge_gap` pages
        //    (the gap pages are included in the region and thus in the
        //    file — the "small amount of additional data", §4.6).
        let mut merged: Vec<(PageRange, u32)> = Vec::new();
        for (r, g) in regions {
            match merged.last_mut() {
                Some((m, mg)) if r.start - m.end <= merge_gap => {
                    m.end = r.end;
                    *mg = (*mg).min(g);
                }
                _ => merged.push((r, g)),
            }
        }
        // 4. Sort by (group, address) and lay out the file.
        merged.sort_by_key(|(r, g)| (*g, r.start));
        let mut file_cursor = 0;
        let regions: Vec<LsRegion> = merged
            .into_iter()
            .map(|(guest, group)| {
                let region = LsRegion {
                    guest,
                    file_start: file_cursor,
                    group,
                };
                file_cursor += guest.len();
                region
            })
            .collect();
        // A region holds at least one guest page, so positions fit in u32.
        let mut by_guest: Vec<u32> = (0..regions.len() as u32).collect();
        by_guest.sort_unstable_by_key(|&i| regions.get(i as usize).map(|r| r.guest.start));
        LoadingSet {
            regions,
            by_guest,
            file_pages: file_cursor,
            core_pages,
            unmerged_regions,
        }
    }

    /// Regions in (group, address) order — the file layout order.
    pub fn regions(&self) -> &[LsRegion] {
        &self.regions
    }

    /// Number of (merged) regions — the number of `mmap` calls the VMM
    /// must make for the loading set.
    pub fn region_count(&self) -> u64 {
        self.regions.len() as u64
    }

    /// Regions before merging.
    pub fn unmerged_region_count(&self) -> u64 {
        self.unmerged_regions
    }

    /// Total pages in the loading-set file (including merged gap pages).
    pub fn file_pages(&self) -> u64 {
        self.file_pages
    }

    /// Loading-set pages proper (before gap inclusion).
    pub fn core_pages(&self) -> u64 {
        self.core_pages
    }

    /// Fraction of extra data added by merging (0.05 = +5 %).
    pub fn merge_overhead(&self) -> f64 {
        if self.core_pages == 0 {
            0.0
        } else {
            (self.file_pages as f64 - self.core_pages as f64) / self.core_pages as f64
        }
    }

    /// True if `page` is covered by some region.
    pub fn covers(&self, page: PageNum) -> bool {
        self.region_of(page).is_some()
    }

    /// The set of all guest pages covered (including merged gaps),
    /// ordered so iteration is deterministic.
    pub fn covered_pages(&self) -> BTreeSet<PageNum> {
        self.regions.iter().flat_map(|r| r.guest.iter()).collect()
    }

    /// The file page backing a guest page, if covered.
    pub fn file_page_of(&self, page: PageNum) -> Option<u64> {
        self.region_of(page)
            .map(|r| r.file_start + (page - r.guest.start))
    }

    /// The region covering `page`, by binary search of the guest-ordered
    /// index.
    fn region_of(&self, page: PageNum) -> Option<&LsRegion> {
        let region = |i: &u32| self.regions.get(*i as usize);
        let idx = self
            .by_guest
            .partition_point(|i| region(i).is_some_and(|r| r.guest.end <= page));
        self.by_guest
            .get(idx)
            .and_then(region)
            .filter(|r| r.guest.contains(page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a working set + memory where `nonzero` pages hold data.
    fn setup(ws_pages: &[u64], nonzero: &[u64], group_size: u64) -> (WorkingSet, GuestMemory) {
        let mut ws = WorkingSet::with_group_size(group_size);
        ws.extend(ws_pages);
        let mut mem = GuestMemory::new(100_000);
        for &p in nonzero {
            mem.write(p, p + 1);
        }
        (ws, mem)
    }

    #[test]
    fn zero_pages_excluded() {
        let (ws, mem) = setup(&[1, 2, 3, 4], &[1, 3], 1024);
        let ls = LoadingSet::build(&ws, &mem, 0);
        assert_eq!(ls.core_pages(), 2);
        assert!(ls.covers(1) && ls.covers(3));
        assert!(!ls.covers(2) && !ls.covers(4));
    }

    #[test]
    fn contiguous_pages_form_one_region() {
        let (ws, mem) = setup(&[10, 11, 12], &[10, 11, 12], 1024);
        let ls = LoadingSet::build(&ws, &mem, 0);
        assert_eq!(ls.region_count(), 1);
        assert_eq!(ls.regions()[0].guest, PageRange::new(10, 13));
        assert_eq!(ls.file_pages(), 3);
    }

    #[test]
    fn merge_respects_gap_threshold() {
        // Regions [0,2) and [5,7): gap of 3.
        let (ws, mem) = setup(&[0, 1, 5, 6], &[0, 1, 5, 6], 1024);
        let tight = LoadingSet::build(&ws, &mem, 2);
        assert_eq!(tight.region_count(), 2, "gap 3 > threshold 2");
        let loose = LoadingSet::build(&ws, &mem, 3);
        assert_eq!(loose.region_count(), 1, "gap 3 <= threshold 3");
        assert_eq!(loose.regions()[0].guest, PageRange::new(0, 7));
        assert_eq!(loose.file_pages(), 7, "gap pages included in file");
        assert_eq!(loose.core_pages(), 4);
        assert!((loose.merge_overhead() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn regions_sorted_by_group_then_address() {
        // Group size 2: pages [50, 51] are group 0, [10, 11] group 1.
        let (ws, mem) = setup(&[50, 51, 10, 11], &[50, 51, 10, 11], 2);
        let ls = LoadingSet::build(&ws, &mem, 0);
        assert_eq!(ls.region_count(), 2);
        assert_eq!(ls.regions()[0].guest.start, 50, "group 0 first in file");
        assert_eq!(ls.regions()[0].file_start, 0);
        assert_eq!(ls.regions()[1].guest.start, 10);
        assert_eq!(ls.regions()[1].file_start, 2);
    }

    #[test]
    fn region_group_is_min_of_pages() {
        // Group size 2: page 20 in group 0 (idx 1), page 21 in group 1 (idx 2).
        let (ws, mem) = setup(&[5, 20, 21], &[5, 20, 21], 2);
        let ls = LoadingSet::build(&ws, &mem, 0);
        let r20 = ls.regions().iter().find(|r| r.guest.contains(20)).unwrap();
        assert_eq!(r20.group, 0, "region takes the lowest page group");
    }

    #[test]
    fn file_page_translation() {
        let (ws, mem) = setup(&[10, 11, 40], &[10, 11, 40], 1024);
        let ls = LoadingSet::build(&ws, &mem, 0);
        assert_eq!(ls.file_page_of(10), Some(0));
        assert_eq!(ls.file_page_of(11), Some(1));
        assert_eq!(ls.file_page_of(40), Some(2));
        assert_eq!(ls.file_page_of(12), None);
    }

    #[test]
    fn merged_gap_pages_are_covered_and_backed() {
        let (ws, mem) = setup(&[0, 1, 4, 5], &[0, 1, 4, 5], MERGE_GAP);
        let ls = LoadingSet::build(&ws, &mem, MERGE_GAP);
        assert_eq!(ls.region_count(), 1);
        // Gap pages 2,3 are covered and mapped into the file.
        assert_eq!(ls.file_page_of(2), Some(2));
        assert_eq!(ls.file_page_of(3), Some(3));
        assert_eq!(ls.covered_pages().len(), 6);
    }

    #[test]
    fn empty_working_set() {
        let (ws, mem) = setup(&[], &[], 1024);
        let ls = LoadingSet::build(&ws, &mem, MERGE_GAP);
        assert_eq!(ls.region_count(), 0);
        assert_eq!(ls.file_pages(), 0);
        assert_eq!(ls.merge_overhead(), 0.0);
    }

    #[test]
    fn duplicate_ws_pages_tolerated() {
        // mincore scans never report a page twice, but the builder should
        // not break if a caller feeds duplicates.
        let mut ws = WorkingSet::with_group_size(1024);
        ws.extend(&[7, 7, 8]);
        let mut mem = GuestMemory::new(100);
        mem.write(7, 1);
        mem.write(8, 1);
        let ls = LoadingSet::build(&ws, &mem, 0);
        // Duplicate collapses into the run.
        assert_eq!(ls.region_count(), 1);
    }
}
