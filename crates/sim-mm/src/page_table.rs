//! Page-presence tracking for one VMM address space.
//!
//! Three states per guest page, reflecting the distinctions the paper
//! measures:
//!
//! - [`PageState::NotPresent`] — first guest access takes the full fault
//!   path (anonymous zero-fill, minor, or major).
//! - [`PageState::HostPte`] — a host PTE exists (e.g. installed by REAP's
//!   `UFFDIO_COPY` prefetch) but the guest has not touched the page yet;
//!   the first guest access is a fast fault: "Page faults on these pages
//!   are processed in less than 4 microseconds since the host page table
//!   entries already exist" (§3.3).
//! - [`PageState::Mapped`] — fully faulted in; further guest accesses are
//!   free (no host-visible fault). Warm VMs start with their previously
//!   touched pages in this state.
//!
//! RSS (resident set size) counts pages in either present state; the
//! FaaSnap daemon polls RSS via procfs to pace `mincore` scans (§5).

use crate::addr::{PageNum, PageRange};

/// Presence state of one guest page in the VMM address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PageState {
    /// No host mapping; a guest access takes the full fault path.
    NotPresent = 0,
    /// Host PTE installed (UFFDIO_COPY / prefault) but not yet accessed by
    /// the guest; first access is a cheap fault.
    HostPte = 1,
    /// Fully mapped; guest accesses cause no host-visible fault.
    Mapped = 2,
}

/// Dense page-state table for a guest address space.
#[derive(Clone, Debug)]
pub struct PageTable {
    states: Vec<u8>,
    rss_pages: u64,
}

impl PageTable {
    /// Creates a table for `total_pages` guest pages, all not-present.
    pub fn new(total_pages: u64) -> Self {
        PageTable {
            states: vec![PageState::NotPresent as u8; total_pages as usize],
            rss_pages: 0,
        }
    }

    /// Total pages tracked.
    pub fn total_pages(&self) -> u64 {
        self.states.len() as u64
    }

    /// Current state of `page`.
    pub fn state(&self, page: PageNum) -> PageState {
        match self.states[page as usize] {
            0 => PageState::NotPresent,
            1 => PageState::HostPte,
            _ => PageState::Mapped,
        }
    }

    /// True if a guest access to `page` faults (not fully mapped).
    pub fn faults_on(&self, page: PageNum) -> bool {
        self.states[page as usize] != PageState::Mapped as u8
    }

    /// Sets the state of one page, maintaining RSS.
    pub fn set_state(&mut self, page: PageNum, state: PageState) {
        let old = self.states[page as usize];
        let new = state as u8;
        if (old == 0) && new != 0 {
            self.rss_pages += 1;
        } else if old != 0 && new == 0 {
            self.rss_pages -= 1;
        }
        self.states[page as usize] = new;
    }

    /// Marks one page fully mapped.
    pub fn install(&mut self, page: PageNum) {
        self.set_state(page, PageState::Mapped);
    }

    /// Marks every page in `range` with `state` (e.g. UFFDIO_COPY of the
    /// REAP working set, or a warm VM's resident pages).
    pub fn set_range(&mut self, range: PageRange, state: PageState) {
        for p in range.iter() {
            self.set_state(p, state);
        }
    }

    /// Calls `f` with every page of `range` present in either state, in
    /// ascending order. Pages beyond the table are never present.
    pub fn for_each_present(&self, range: PageRange, mut f: impl FnMut(PageNum)) {
        let end = range.end.min(self.total_pages());
        let states = self
            .states
            .get(range.start as usize..end as usize)
            .unwrap_or_default();
        for (page, &s) in (range.start..).zip(states) {
            if s != PageState::NotPresent as u8 {
                f(page);
            }
        }
    }

    /// Resident set size in pages (present in either state).
    pub fn rss_pages(&self) -> u64 {
        self.rss_pages
    }

    /// Number of pages in the `Mapped` state.
    pub fn mapped_pages(&self) -> u64 {
        self.states
            .iter()
            .filter(|&&s| s == PageState::Mapped as u8)
            .count() as u64
    }

    /// Clears every page back to not-present (fresh restore).
    pub fn clear(&mut self) {
        self.states.fill(PageState::NotPresent as u8);
        self.rss_pages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let pt = PageTable::new(100);
        assert_eq!(pt.total_pages(), 100);
        assert_eq!(pt.rss_pages(), 0);
        assert!(pt.faults_on(0));
        assert_eq!(pt.state(50), PageState::NotPresent);
    }

    #[test]
    fn install_and_rss() {
        let mut pt = PageTable::new(10);
        pt.install(3);
        assert!(!pt.faults_on(3));
        assert_eq!(pt.rss_pages(), 1);
        // Re-install does not double count.
        pt.install(3);
        assert_eq!(pt.rss_pages(), 1);
    }

    #[test]
    fn host_pte_still_faults_but_is_resident() {
        let mut pt = PageTable::new(10);
        pt.set_state(5, PageState::HostPte);
        assert!(pt.faults_on(5));
        assert_eq!(pt.rss_pages(), 1);
        pt.install(5);
        assert!(!pt.faults_on(5));
        assert_eq!(pt.rss_pages(), 1);
    }

    #[test]
    fn range_operations() {
        let mut pt = PageTable::new(100);
        pt.set_range(PageRange::new(10, 20), PageState::HostPte);
        assert_eq!(pt.rss_pages(), 10);
        pt.set_range(PageRange::new(15, 25), PageState::Mapped);
        assert_eq!(pt.rss_pages(), 15);
        assert_eq!(pt.mapped_pages(), 10);
        assert_eq!(pt.state(12), PageState::HostPte);
        assert_eq!(pt.state(17), PageState::Mapped);
    }

    #[test]
    fn clear_resets() {
        let mut pt = PageTable::new(10);
        pt.set_range(PageRange::new(0, 10), PageState::Mapped);
        pt.clear();
        assert_eq!(pt.rss_pages(), 0);
        assert!(pt.faults_on(0));
    }

    #[test]
    fn unmapping_decrements_rss() {
        let mut pt = PageTable::new(10);
        pt.install(1);
        pt.set_state(1, PageState::NotPresent);
        assert_eq!(pt.rss_pages(), 0);
    }
}
