//! The record phase (Figure 5, left half).
//!
//! "In the first invocation, or record phase, the VM is started from
//! restoring a 'clean' snapshot. FaaSnap obtains the working set groups
//! using repeated mincore syscalls to the memory file. After the
//! invocation, a new snapshot is created to store the warm state. FaaSnap
//! then scans the new memory file to find non-zero pages. The loading set
//! is the intersection between the working set and non-zero pages.
//! Adjacent loading set regions are merged ... The loading set is then
//! stored into a compact loading set file in the order of group numbers
//! and the region offsets are recorded."
//!
//! One record run produces artifacts for *all* strategies: the warm
//! snapshot (everyone), the grouped working set + loading-set file
//! (FaaSnap), and the fault-order working-set file (REAP).

use std::rc::Rc;

use sim_storage::file::{DeviceId, FileId, FileKind};
use sim_vm::snapshot::Snapshot;
use sim_vm::trace::Trace;

use crate::error::RestoreError;
use crate::loadingset::{LoadingSet, MERGE_GAP};
use crate::report::InvocationReport;
use crate::runtime::{self, Host, InvocationSpec};
use crate::strategy::RestoreStrategy;
use crate::wset::{ReapWorkingSet, WorkingSet, GROUP_SIZE};

/// Tunable knobs of the record phase (the paper's empirical choices).
#[derive(Clone, Copy, Debug)]
pub struct RecordOptions {
    /// Working-set group size (§4.3: N = 1024 "works well").
    pub group_size: u64,
    /// New-resident-page threshold that paces `mincore` scans (§5).
    pub scan_threshold: u64,
    /// Region merge gap in pages (§4.6: 32).
    pub merge_gap: u64,
}

impl Default for RecordOptions {
    fn default() -> Self {
        RecordOptions {
            group_size: GROUP_SIZE,
            scan_threshold: GROUP_SIZE,
            merge_gap: MERGE_GAP,
        }
    }
}

/// Everything the record phase produces. The frozen parts (the snapshot
/// image and its non-zero regions, and the three page sets) are shared, so
/// every spec built from the artifacts holds them by handle.
#[derive(Clone, Debug)]
pub struct SnapshotArtifacts {
    /// The warm snapshot (memory contents after the record invocation,
    /// with freed pages sanitized).
    pub snapshot: Snapshot,
    /// FaaSnap's grouped, mincore-recorded working set.
    pub ws: Rc<WorkingSet>,
    /// The loading set built from `ws` ∩ non-zero pages.
    pub ls: Rc<LoadingSet>,
    /// The compact loading-set file.
    pub ls_file: FileId,
    /// REAP's fault-order working set.
    pub reap_ws: Rc<ReapWorkingSet>,
    /// REAP's compact working-set file.
    pub reap_ws_file: FileId,
    /// Measurements of the record invocation itself.
    pub record_report: InvocationReport,
}

impl SnapshotArtifacts {
    /// Builds an [`InvocationSpec`] for a test-phase invocation of
    /// `trace` under `strategy`, wiring in the right artifacts. The spec
    /// shares the snapshot image, its non-zero regions and the page sets;
    /// it copies and scans none of them.
    pub fn spec(&self, strategy: RestoreStrategy, trace: Trace) -> InvocationSpec {
        let mut spec = InvocationSpec::with_regions(
            strategy,
            trace,
            self.snapshot.restored_memory(),
            self.snapshot.nonzero_regions(),
            self.snapshot.mem_file(),
        );
        spec.ls = Some(Rc::clone(&self.ls));
        spec.ls_file = Some(self.ls_file);
        spec.ws = Some(Rc::clone(&self.ws));
        spec.reap_ws = Some(Rc::clone(&self.reap_ws));
        spec.reap_ws_file = Some(self.reap_ws_file);
        spec
    }
}

/// Runs the record phase: restores the clean snapshot built from
/// `boot_image`, executes `record_trace` with page sanitization and
/// working-set recording enabled, and materializes every artifact on
/// `device`. [`RecordOptions::default`] holds the paper's choices; the
/// group-size and merge-gap sensitivity experiments vary them.
///
/// A storage fault that exhausts its retry budget mid-record surfaces
/// as a typed error, and *no* artifacts are produced: a crashed record
/// phase leaves artifacts cleanly absent, never half-written.
pub fn record_phase(
    host: &mut Host,
    name: &str,
    boot_image: sim_vm::guest_memory::GuestMemory,
    record_trace: Trace,
    device: DeviceId,
    options: RecordOptions,
) -> Result<SnapshotArtifacts, RestoreError> {
    // Clean snapshot of the booted, initialized guest.
    let clean = Snapshot::create(format!("{name}.clean"), boot_image, &mut host.fs, device);

    // Record invocation: vanilla restore, sanitization + recording on.
    host.drop_caches();
    let mut spec = InvocationSpec::with_regions(
        RestoreStrategy::Vanilla,
        record_trace,
        clean.restored_memory(),
        clean.nonzero_regions(),
        clean.mem_file(),
    );
    spec.sanitize = true;
    spec.record = true;
    spec.record_group_size = options.group_size;
    spec.record_scan_threshold = options.scan_threshold;
    let outcome = runtime::run(host, vec![spec])?.remove(0);
    let ws = outcome.ws.ok_or(RestoreError::RecordIncomplete {
        what: "working set",
    })?;
    let reap_ws = outcome.reap_ws.ok_or(RestoreError::RecordIncomplete {
        what: "REAP working set",
    })?;

    // Warm snapshot of the post-invocation state: the one place a VM's
    // overlay is flattened into an image of its own.
    let snapshot = Snapshot::create(
        format!("{name}.warm"),
        outcome.final_memory.materialize(),
        &mut host.fs,
        device,
    );

    // Loading set = working set ∩ non-zero pages, merged and laid out.
    let ls = LoadingSet::build(&ws, snapshot.memory(), options.merge_gap);
    let ls_file = host.fs.create(
        format!("{name}.loadingset"),
        FileKind::LoadingSet,
        ls.file_pages(),
        device,
    );
    let reap_ws_file = host.fs.create(
        format!("{name}.reapws"),
        FileKind::WorkingSet,
        reap_ws.len().max(1),
        device,
    );

    Ok(SnapshotArtifacts {
        snapshot,
        ws: Rc::new(ws),
        ls: Rc::new(ls),
        ls_file,
        reap_ws: Rc::new(reap_ws),
        reap_ws_file,
        record_report: outcome.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimDuration;
    use sim_mm::addr::PageRange;
    use sim_storage::profiles::DiskProfile;
    use sim_vm::guest_memory::GuestMemory;
    use sim_vm::trace::TraceOp;

    /// A tiny synthetic "function": boot image with non-zero pages in
    /// [100, 200); trace touches some of them, allocates and frees heap.
    fn tiny_setup() -> (GuestMemory, Trace) {
        let mut img = GuestMemory::new(4096);
        for p in 100..200 {
            img.write(p, p * 7 + 1);
        }
        let mut t = Trace::new();
        t.push(TraceOp::Touch {
            range: PageRange::new(100, 150),
            stride: 1,
            write: false,
            per_page_compute: SimDuration::from_micros(1),
            token_seed: 0,
        });
        // Heap: write 40 pages, free 30 of them.
        t.push(TraceOp::Touch {
            range: PageRange::new(1000, 1040),
            stride: 1,
            write: true,
            per_page_compute: SimDuration::from_micros(1),
            token_seed: 9,
        });
        t.push(TraceOp::Free {
            range: PageRange::new(1000, 1030),
        });
        (img, t)
    }

    fn host() -> Host {
        Host::new(DiskProfile::nvme_c5d(), 42)
    }

    #[test]
    fn record_produces_consistent_artifacts() {
        let mut h = host();
        let (img, trace) = tiny_setup();
        let dev = h.primary_device();
        let a = record_phase(&mut h, "tiny", img, trace, dev, RecordOptions::default()).unwrap();

        // Working set covers the touched file pages (plus readahead).
        let ws_set = a.ws.page_set();
        for p in 100..150 {
            assert!(ws_set.contains(&p), "touched page {p} in WS");
        }
        // REAP's set is fault-only: it is a subset of the mincore WS.
        for p in a.reap_ws.pages() {
            assert!(ws_set.contains(p), "REAP page {p} must be in mincore WS");
        }
        // Host page recording strictly relaxes the criteria (readahead).
        assert!(a.ws.len() >= a.reap_ws.len());

        // Sanitization: freed heap pages are zero in the warm snapshot.
        for p in 1000..1030 {
            assert!(
                !a.snapshot.memory().is_nonzero(p),
                "freed page {p} sanitized"
            );
        }
        // Kept heap pages are non-zero.
        for p in 1030..1040 {
            assert!(a.snapshot.memory().is_nonzero(p), "kept page {p} non-zero");
        }

        // Loading set excludes zero pages: no region covers freed pages.
        for p in 1000..1030 {
            assert!(!a.ls.covers(p), "freed page {p} not in loading set");
        }
        // Loading set covers the touched non-zero pages.
        assert!(a.ls.covers(120));
        assert!(a.ls.covers(1035));

        // Files registered with the right sizes.
        assert_eq!(h.fs.meta(a.ls_file).len_pages, a.ls.file_pages());
        assert_eq!(h.fs.meta(a.ls_file).kind, FileKind::LoadingSet);
        assert_eq!(h.fs.meta(a.reap_ws_file).kind, FileKind::WorkingSet);
    }

    #[test]
    fn record_report_counts_faults() {
        let mut h = host();
        let (img, trace) = tiny_setup();
        let dev = h.primary_device();
        let a = record_phase(&mut h, "tiny", img, trace, dev, RecordOptions::default()).unwrap();
        let r = &a.record_report;
        assert!(r.total_faults() > 0);
        assert!(r.major_faults > 0, "record phase reads from disk");
        assert!(r.invocation_time > SimDuration::ZERO);
    }

    #[test]
    fn spec_builder_wires_artifacts() {
        let mut h = host();
        let (img, trace) = tiny_setup();
        let dev = h.primary_device();
        let a = record_phase(
            &mut h,
            "tiny",
            img,
            trace.clone(),
            dev,
            RecordOptions::default(),
        )
        .unwrap();
        let spec = a.spec(RestoreStrategy::faasnap(), trace);
        assert!(spec.ls.is_some());
        assert!(spec.ws.is_some());
        assert!(spec.reap_ws.is_some());
        assert_eq!(spec.mem_file, a.snapshot.mem_file());
        assert_eq!(*spec.nonzero_regions, a.snapshot.memory().nonzero_regions());
        assert!(Rc::ptr_eq(
            &spec.nonzero_regions,
            &a.snapshot.nonzero_regions()
        ));
        assert!(spec.verify_mappings);
    }

    #[test]
    fn deterministic_record() {
        let run = || {
            let mut h = host();
            let (img, trace) = tiny_setup();
            let dev = h.primary_device();
            let a =
                record_phase(&mut h, "tiny", img, trace, dev, RecordOptions::default()).unwrap();
            (
                a.ws.pages().to_vec(),
                a.reap_ws.pages().to_vec(),
                a.snapshot.memory().checksum(),
            )
        };
        assert_eq!(run(), run());
    }
}
