//! Snapshot creation and restore invariants.
//!
//! A Firecracker snapshot consists of "a snapshot file that stores the
//! state of the VM like virtual devices and CPU registers as well as a
//! memory file, which is the copy of the entire guest physical memory"
//! (§2.4). In the simulation the memory file's logical contents are the
//! frozen [`GuestMemory`] image (its non-zero pages, one sorted vector),
//! held once behind an `Rc` and shared by every VM restored from it, as
//! are its non-zero regions, scanned once when the snapshot is taken; the
//! storage layer tracks the file's identity and size so reads are charged
//! correctly.
//!
//! Restore correctness invariant (asserted by integration tests): under
//! *every* restore strategy, a guest read of page `p` observes exactly
//! `snapshot.memory().read(p)` until the guest itself overwrites it. The
//! strategies differ only in *when and how* bytes move, never in what the
//! guest sees.

use std::rc::Rc;

use sim_mm::addr::PageRange;
use sim_storage::device::{IoKind, IoRequest};
use sim_storage::file::{DeviceId, FileId, FileKind, SimFs};

use crate::guest_memory::GuestMemory;

/// A taken snapshot: files plus frozen memory contents.
#[derive(Clone, Debug)]
pub struct Snapshot {
    name: String,
    mem_file: FileId,
    state_file: FileId,
    memory: Rc<GuestMemory>,
    nonzero_regions: Rc<Vec<PageRange>>,
}

impl Snapshot {
    /// Creates a snapshot of `memory`, registering its memory and state
    /// files on `device`.
    pub fn create(
        name: impl Into<String>,
        memory: GuestMemory,
        fs: &mut SimFs,
        device: DeviceId,
    ) -> Snapshot {
        Self::create_wiped(name, memory, fs, device, &[])
    }

    /// Creates a snapshot, first zeroing the `wipe` ranges — the
    /// `MADV_WIPEONSUSPEND` mitigation of §7.4: "using a new madvise flag
    /// to wipe memory locations with high-value secrets when taking a
    /// snapshot". Guests mark PRNG state and key material this way so
    /// clones restored from the same snapshot never share secrets.
    pub fn create_wiped(
        name: impl Into<String>,
        mut memory: GuestMemory,
        fs: &mut SimFs,
        device: DeviceId,
        wipe: &[PageRange],
    ) -> Snapshot {
        for range in wipe {
            memory.zero_range(*range);
        }
        let name = name.into();
        let mem_file = fs.create(
            format!("{name}.mem"),
            FileKind::SnapshotMemory,
            memory.total_pages(),
            device,
        );
        // VM state (registers, device state) is small; model as 64 KiB.
        let state_file = fs.create(
            format!("{name}.vmstate"),
            FileKind::SnapshotState,
            16,
            device,
        );
        Snapshot {
            name,
            mem_file,
            state_file,
            nonzero_regions: Rc::new(memory.nonzero_regions()),
            memory: Rc::new(memory),
        }
    }

    /// Snapshot name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The guest memory file.
    pub fn mem_file(&self) -> FileId {
        self.mem_file
    }

    /// The VM state file.
    pub fn state_file(&self) -> FileId {
        self.state_file
    }

    /// Frozen guest memory contents.
    pub fn memory(&self) -> &GuestMemory {
        &self.memory
    }

    /// Guest memory size in pages.
    pub fn total_pages(&self) -> u64 {
        self.memory.total_pages()
    }

    /// Non-zero regions of the memory file (FaaSnap's post-invocation
    /// scan, §4.5): a shared handle to the one scan made when the snapshot
    /// was taken.
    pub fn nonzero_regions(&self) -> Rc<Vec<PageRange>> {
        Rc::clone(&self.nonzero_regions)
    }

    /// The image a restored VM starts from: a shared handle to the frozen
    /// contents, never a copy. Firecracker maps the memory file
    /// `MAP_PRIVATE`, so a restored VM reads this image and copies a page
    /// only when it writes it (a [`crate::overlay::CowMemory`] over it).
    pub fn restored_memory(&self) -> Rc<GuestMemory> {
        Rc::clone(&self.memory)
    }

    /// The I/O requests that write this snapshot out (record phase).
    /// Sparse: only non-zero regions are written; the memory file is a
    /// sparse file ("snapshot files can be saved as sparse files", §7.2).
    pub fn write_out_requests(&self) -> Vec<IoRequest> {
        self.nonzero_regions
            .iter()
            .map(|r| IoRequest {
                file: self.mem_file,
                page: r.start,
                pages: r.len(),
                kind: IoKind::SnapshotWrite,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::{CowMemory, GuestMem};

    fn snap() -> (Snapshot, SimFs) {
        let mut fs = SimFs::new();
        let mut m = GuestMemory::new(1000);
        for p in 100..200 {
            m.write(p, p * 3 + 1);
        }
        m.write(500, 7);
        let s = Snapshot::create("test", m, &mut fs, DeviceId(0));
        (s, fs)
    }

    #[test]
    fn files_registered() {
        let (s, fs) = snap();
        assert_eq!(fs.meta(s.mem_file()).kind, FileKind::SnapshotMemory);
        assert_eq!(fs.meta(s.mem_file()).len_pages, 1000);
        assert_eq!(fs.meta(s.state_file()).kind, FileKind::SnapshotState);
        assert_eq!(fs.meta(s.mem_file()).name, "test.mem");
    }

    #[test]
    fn restored_memory_is_the_shared_image() {
        let (s, _) = snap();
        let restored = s.restored_memory();
        assert!(std::ptr::eq(&*restored, s.memory()), "shared, not copied");
        assert_eq!(restored.checksum(), s.memory().checksum());
        assert_eq!(restored.read(150), 451);
        assert_eq!(restored.read(500), 7);
        assert_eq!(restored.read(0), 0);
    }

    #[test]
    fn restored_copies_are_independent() {
        let (s, _) = snap();
        let mut a = CowMemory::new(s.restored_memory());
        a.write(0, 99);
        a.write(150, 0);
        assert_eq!((a.read(0), a.read(150)), (99, 0));
        assert_eq!(s.memory().read(0), 0, "snapshot is immutable");
        assert_eq!(s.memory().read(150), 451, "snapshot is immutable");
        let b = CowMemory::new(s.restored_memory());
        assert_eq!(b.read(0), 0);
        assert_eq!(b.checksum(), s.memory().checksum());
    }

    #[test]
    fn wipe_on_suspend_zeroes_secret_ranges() {
        // §7.4: PRNG state wiped at snapshot time; restored clones must
        // not observe the secret bytes.
        let mut fs = SimFs::new();
        let mut m = GuestMemory::new(1000);
        for p in 100..200 {
            m.write(p, p * 3 + 1);
        }
        m.write(500, 0xDEAD); // the "secret" page
        let s = Snapshot::create_wiped(
            "wiped",
            m,
            &mut fs,
            DeviceId(0),
            &[PageRange::new(500, 501)],
        );
        assert_eq!(s.memory().read(500), 0, "secret wiped");
        assert_eq!(s.memory().read(150), 451, "other contents intact");
        let clone_a = s.restored_memory();
        let clone_b = s.restored_memory();
        assert_eq!(clone_a.read(500), 0);
        assert_eq!(clone_b.read(500), 0);
    }

    #[test]
    fn sparse_write_out() {
        let (s, _) = snap();
        let reqs = s.write_out_requests();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].page, 100);
        assert_eq!(reqs[0].pages, 100);
        assert_eq!(reqs[1].page, 500);
        assert_eq!(reqs[1].pages, 1);
        assert!(reqs.iter().all(|r| r.kind == IoKind::SnapshotWrite));
    }
}
