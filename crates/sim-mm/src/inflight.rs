//! In-flight I/O tracking (the kernel's page-lock semantics).
//!
//! When a fault hits a file page that is already being read from disk —
//! because the FaaSnap loader prefetched it, another VM faulted on it, or
//! an earlier readahead window covered it — the kernel does not issue a
//! second read: the faulting task sleeps on the page lock until the
//! in-flight read completes. Without this, concurrent paging would look
//! useless (every racing fault would double the disk traffic).
//!
//! The registry maps pending `(file, page)` reads to their completion
//! instants. The DES runtime inserts a window when it submits the read and
//! clears it on completion. Each file's pending pages live in 64-page
//! blocks, a pending word and the 64 pages' completion instants, so a
//! window operation finds each block once.

use sim_core::time::SimTime;
use sim_storage::file::FileId;

use crate::blocks::{self, PageBlocks};

/// Registry of file pages with reads currently in flight.
#[derive(Clone, Debug, Default)]
pub struct InflightIo {
    pending: PageBlocks<SimTime>,
}

impl InflightIo {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `len` pages of `file` starting at `start` as in flight,
    /// completing at `done`. Overlapping registrations keep the earliest
    /// completion (the first read to finish unlocks the page).
    pub fn insert_window(&mut self, file: FileId, start: u64, len: u64, done: SimTime) {
        blocks::for_each_span(start, len, |idx, mask| {
            let Some(block) = self.pending.block_or_insert(file, idx) else {
                return;
            };
            blocks::for_each_bit(mask, |i| {
                let t = block.get(i).map_or(done, |t| t.min(done));
                block.set(i, t);
            });
        });
    }

    /// The completion instant of an in-flight read covering `page`, if any.
    pub fn completion_of(&self, file: FileId, page: u64) -> Option<SimTime> {
        self.pending.get(file, page)
    }

    /// Clears a completed window. Entries that were superseded by an
    /// earlier overlapping completion are left untouched only if their
    /// recorded time is earlier than `done` (they belong to the other
    /// read); equal-or-later entries are removed.
    pub fn complete_window(&mut self, file: FileId, start: u64, len: u64, done: SimTime) {
        self.remove_where(file, start, len, |t| t <= done);
    }

    /// Cancels a window whose read failed.
    ///
    /// Only entries recorded for *this* read are removed — exactly those
    /// whose completion equals `done`, since [`InflightIo::insert_window`]
    /// keeps the earliest completion per page: a page owned by an earlier
    /// overlapping read keeps its (sooner) instant and its data is
    /// unaffected by this failure. Waiters sleeping on a cancelled page
    /// wake to find it absent and re-fault, issuing a fresh read.
    pub fn cancel_window(&mut self, file: FileId, start: u64, len: u64, done: SimTime) {
        self.remove_where(file, start, len, |t| t == done);
    }

    /// Removes the window's pending pages whose completion satisfies
    /// `remove`.
    fn remove_where(
        &mut self,
        file: FileId,
        start: u64,
        len: u64,
        remove: impl Fn(SimTime) -> bool,
    ) {
        blocks::for_each_span(start, len, |idx, mask| {
            let Some(block) = self.pending.block_mut(file, idx) else {
                return;
            };
            blocks::for_each_bit(mask & block.bits, |i| {
                if block.get(i).is_some_and(&remove) {
                    block.clear(i);
                }
            });
        });
    }

    /// Clears all pending entries (between simulation runs, whose clocks
    /// restart at zero).
    pub fn clear(&mut self) {
        self.pending.clear();
    }

    /// Number of pages currently in flight (counts every block's word).
    pub fn len(&self) -> usize {
        self.pending.count() as usize
    }

    /// True if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pending words of `file`'s blocks (window queries).
    pub(crate) fn blocks_of(&self, file: FileId) -> Option<&blocks::FileBlocks<SimTime>> {
        self.pending.file(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn insert_and_query() {
        let mut io = InflightIo::new();
        io.insert_window(FileId(1), 10, 4, t(100));
        assert_eq!(io.completion_of(FileId(1), 10), Some(t(100)));
        assert_eq!(io.completion_of(FileId(1), 13), Some(t(100)));
        assert_eq!(io.completion_of(FileId(1), 14), None);
        assert_eq!(io.completion_of(FileId(2), 10), None);
        assert_eq!(io.len(), 4);
    }

    #[test]
    fn overlap_keeps_earliest() {
        let mut io = InflightIo::new();
        io.insert_window(FileId(1), 0, 4, t(200));
        io.insert_window(FileId(1), 2, 4, t(100));
        assert_eq!(io.completion_of(FileId(1), 1), Some(t(200)));
        assert_eq!(io.completion_of(FileId(1), 2), Some(t(100)));
        assert_eq!(io.completion_of(FileId(1), 3), Some(t(100)));
        assert_eq!(io.completion_of(FileId(1), 5), Some(t(100)));
    }

    #[test]
    fn complete_clears_window() {
        let mut io = InflightIo::new();
        io.insert_window(FileId(1), 0, 8, t(100));
        io.complete_window(FileId(1), 0, 8, t(100));
        assert!(io.is_empty());
    }

    #[test]
    fn cancel_removes_only_the_failed_read() {
        let mut io = InflightIo::new();
        io.insert_window(FileId(1), 0, 8, t(300));
        // A faster overlapping read owns pages 2..4.
        io.insert_window(FileId(1), 2, 2, t(100));
        io.cancel_window(FileId(1), 0, 8, t(300));
        // The failed read's pages are gone; the fast read's survive.
        assert_eq!(io.completion_of(FileId(1), 0), None);
        assert_eq!(io.completion_of(FileId(1), 7), None);
        assert_eq!(io.completion_of(FileId(1), 2), Some(t(100)));
        assert_eq!(io.completion_of(FileId(1), 3), Some(t(100)));
        assert_eq!(io.len(), 2);
    }

    #[test]
    fn complete_leaves_earlier_overlaps() {
        let mut io = InflightIo::new();
        io.insert_window(FileId(1), 0, 4, t(300));
        io.insert_window(FileId(1), 2, 2, t(100));
        // The slow read finishing must not clear entries owned by the
        // faster overlapping read... but the faster read's pages complete
        // first in simulated time anyway, so completing it clears them.
        io.complete_window(FileId(1), 2, 2, t(100));
        assert_eq!(io.completion_of(FileId(1), 2), None);
        assert_eq!(io.completion_of(FileId(1), 0), Some(t(300)));
        io.complete_window(FileId(1), 0, 4, t(300));
        assert!(io.is_empty());
    }
}
