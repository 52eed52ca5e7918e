//! Copy-on-write guest memory: every restored VM's view of its snapshot.
//!
//! Firecracker maps the snapshot memory file `MAP_PRIVATE`, so every VM
//! restored from one snapshot — an ordinary restore, one VM of a
//! same-snapshot burst, or a fork sibling — reads the one frozen image
//! and copies a page only when it writes it. [`CowMemory`] models exactly
//! that: reads fall through to the shared base unless the VM has written
//! the page; writes always land in the VM's private overlay and are
//! invisible to every other VM. Restoring N VMs from one snapshot
//! therefore costs N overlays, never N copies of the image.
//!
//! [`GuestMem`] is the access surface the guest kernel and vCPU need,
//! implemented by the flat [`GuestMemory`] and by the overlay.

use std::collections::{btree_map, BTreeMap};
use std::iter::Peekable;
use std::rc::Rc;
use std::slice;

use sim_mm::addr::{PageNum, PageRange};

use crate::guest_memory::{checksum_of, GuestMemory};

/// The guest-physical access surface: what the vCPU and guest kernel
/// need from memory, regardless of whether it is flat or overlaid.
pub trait GuestMem {
    /// Total guest physical pages.
    fn total_pages(&self) -> u64;
    /// Reads a page's content token (0 for zero pages).
    fn read(&self, page: PageNum) -> u64;
    /// Writes a content token; a zero token makes the page a zero page.
    fn write(&mut self, page: PageNum, token: u64);
    /// Zeroes every page in `range` (freed-page sanitization).
    fn zero_range(&mut self, range: PageRange);
}

impl GuestMem for GuestMemory {
    fn total_pages(&self) -> u64 {
        GuestMemory::total_pages(self)
    }
    fn read(&self, page: PageNum) -> u64 {
        GuestMemory::read(self, page)
    }
    fn write(&mut self, page: PageNum, token: u64) {
        GuestMemory::write(self, page, token)
    }
    fn zero_range(&mut self, range: PageRange) {
        GuestMemory::zero_range(self, range)
    }
}

/// Copy-on-write view over a shared base image.
///
/// The overlay maps dirtied pages to their private tokens; a stored 0 is
/// a tombstone (the VM zeroed the page). Pages absent from the overlay
/// read through to the base. Equality, [`CowMemory::checksum`] and
/// [`CowMemory::materialize`] all see the logical image, whatever mix of
/// base and overlay holds it.
#[derive(Clone, Debug)]
pub struct CowMemory {
    base: Rc<GuestMemory>,
    overlay: BTreeMap<PageNum, u64>,
}

impl CowMemory {
    /// A fresh overlay over `base` with no private pages.
    pub fn new(base: Rc<GuestMemory>) -> Self {
        CowMemory {
            base,
            overlay: BTreeMap::new(),
        }
    }

    /// The shared base image (for sharing assertions).
    pub fn base(&self) -> &Rc<GuestMemory> {
        &self.base
    }

    /// Number of private (copied-on-write) pages in this overlay.
    pub fn private_pages(&self) -> u64 {
        self.overlay.len() as u64
    }

    /// The logical image's non-zero pages in ascending order: one walk
    /// that merges the base with the overlay, allocating nothing.
    fn pages(&self) -> Pages<'_> {
        Pages {
            base: self.base.tokens().iter().peekable(),
            overlay: self.overlay.iter().peekable(),
        }
    }

    /// Flattens the overlay onto the base into an owned image: the VM's
    /// logical memory, for callers that keep it (the record phase
    /// snapshots it). One merge into a vector sized for every base and
    /// overlay entry, so it never regrows.
    pub fn materialize(&self) -> GuestMemory {
        let mut contents = Vec::with_capacity(self.base.tokens().len() + self.overlay.len());
        contents.extend(self.pages());
        GuestMemory::from_sorted_pages(self.total_pages(), contents)
    }

    /// Checksum of the logical image, read through to the base (equals
    /// [`GuestMemory::checksum`] of the materialized image).
    pub fn checksum(&self) -> u64 {
        checksum_of(self.pages())
    }
}

/// Two overlays are equal when their logical images are, however their
/// pages split between base and overlay.
impl PartialEq for CowMemory {
    fn eq(&self, other: &Self) -> bool {
        self.total_pages() == other.total_pages() && self.pages().eq(other.pages())
    }
}

impl Eq for CowMemory {}

/// Iterator behind [`CowMemory::pages`]: an ordered merge in which an
/// overlay entry shadows the base page and a zero token hides it.
struct Pages<'a> {
    base: Peekable<slice::Iter<'a, (PageNum, u64)>>,
    overlay: Peekable<btree_map::Iter<'a, PageNum, u64>>,
}

impl Iterator for Pages<'_> {
    type Item = (PageNum, u64);

    fn next(&mut self) -> Option<(PageNum, u64)> {
        loop {
            let base = self.base.peek().map(|&&(p, _)| p);
            let overlay = self.overlay.peek().map(|&(&p, _)| p);
            let from_base = match (base, overlay) {
                (None, None) => return None,
                (Some(b), Some(o)) => {
                    if b == o {
                        self.base.next(); // shadowed by the private copy
                    }
                    b < o
                }
                (b, _) => b.is_some(),
            };
            let next = if from_base {
                self.base.next().copied()
            } else {
                self.overlay.next().map(|(&page, &token)| (page, token))
            };
            match next {
                Some((page, token)) if token != 0 => return Some((page, token)),
                _ => {}
            }
        }
    }
}

impl GuestMem for CowMemory {
    fn total_pages(&self) -> u64 {
        self.base.total_pages()
    }
    fn read(&self, page: PageNum) -> u64 {
        assert!(page < self.total_pages(), "page {page} out of range");
        self.overlay
            .get(&page)
            .copied()
            .unwrap_or_else(|| self.base.read(page))
    }
    fn write(&mut self, page: PageNum, token: u64) {
        assert!(page < self.total_pages(), "page {page} out of range");
        self.overlay.insert(page, token);
    }
    fn zero_range(&mut self, range: PageRange) {
        for p in range.iter() {
            if self.base.is_nonzero(p) {
                self.overlay.insert(p, 0);
            } else {
                // Base page is already zero: dropping any private copy
                // restores the shared zero page (the guest returned it).
                self.overlay.remove(&p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Rc<GuestMemory> {
        let mut m = GuestMemory::new(64);
        for p in 10..20 {
            m.write(p, p * 100);
        }
        Rc::new(m)
    }

    #[test]
    fn reads_fall_through_to_base() {
        let c = CowMemory::new(base());
        assert_eq!(c.read(12), 1200);
        assert_eq!(c.read(0), 0);
        assert_eq!(c.private_pages(), 0);
    }

    #[test]
    fn writes_are_private_to_the_overlay() {
        let b = base();
        let mut s1 = CowMemory::new(b.clone());
        let mut s2 = CowMemory::new(b.clone());
        s1.write(12, 7);
        s2.write(12, 8);
        assert_eq!(s1.read(12), 7);
        assert_eq!(s2.read(12), 8);
        assert_eq!(b.read(12), 1200, "base untouched");
        assert_eq!(s1.private_pages(), 1);
    }

    #[test]
    fn zero_range_tombstones_base_pages_only() {
        let mut c = CowMemory::new(base());
        c.write(3, 5); // private page over a zero base page
        c.zero_range(PageRange::new(0, 16));
        assert_eq!(c.read(12), 0, "base non-zero page tombstoned");
        assert_eq!(c.read(3), 0, "private copy dropped");
        // Tombstones only where the base is non-zero: pages 10..16.
        assert_eq!(c.private_pages(), 6);
        assert_eq!(c.read(18), 1800, "outside the range untouched");
    }

    #[test]
    fn materialize_matches_flat_replay() {
        let b = base();
        let mut cow = CowMemory::new(b.clone());
        let mut flat = (*b).clone();
        for (p, t) in [(12, 7), (30, 9), (15, 0)] {
            cow.write(p, t);
            flat.write(p, t);
        }
        cow.zero_range(PageRange::new(18, 22));
        flat.zero_range(PageRange::new(18, 22));
        assert_eq!(cow.materialize(), flat);
        assert_eq!(cow.checksum(), flat.checksum());
    }

    #[test]
    fn cloned_overlays_share_one_base() {
        let b = base();
        let mut parent = CowMemory::new(b.clone());
        parent.write(12, 7);
        let mut child = parent.clone();
        child.write(13, 8);
        assert_eq!(child.read(12), 7, "inherits parent's private page");
        assert_eq!(parent.read(13), 1300, "parent blind to child writes");
        assert!(Rc::ptr_eq(parent.base(), child.base()));
        assert_eq!(Rc::strong_count(&b), 3);
    }

    #[test]
    fn equality_and_checksum_see_the_logical_image() {
        let b = base();
        let fresh = CowMemory::new(b.clone());
        // Private pages that restate the base: a write of the base's own
        // token, and a zero written over a zero base page.
        let mut restated = CowMemory::new(b.clone());
        restated.write(12, 1200);
        restated.write(3, 0);
        assert_eq!(restated.private_pages(), 2);
        assert_eq!(restated, fresh);
        assert_eq!(restated.checksum(), b.checksum());
        // A tombstone over a non-zero base page hides it.
        let mut zeroed = CowMemory::new(b.clone());
        zeroed.write(12, 0);
        assert_ne!(zeroed, fresh);
        let mut flat = (*b).clone();
        flat.write(12, 0);
        assert_eq!(zeroed.checksum(), flat.checksum());
        assert_eq!(zeroed.materialize(), flat);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cow_out_of_range_read_panics() {
        CowMemory::new(base()).read(64);
    }
}
