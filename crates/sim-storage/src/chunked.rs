//! Chunk-store-backed files: logical reads resolved through an extent map.
//!
//! A [`ChunkedFile`] describes a *logical* file (a snapshot memory file, a
//! loading-set file) whose bytes physically live as fixed-size chunks
//! inside a content-addressed store file. Reads against the logical file
//! are translated — split at chunk boundaries and redirected to the
//! physical `(file, page)` extents — before they reach the device, so
//! device timing (sequential detection, IOPS, bandwidth) and per-chunk
//! fault injection all operate on the *physical* layout, exactly as they
//! would on a real dedup store.
//!
//! The crate stays agnostic about *how* the mapping is produced: the
//! store layer above (`faasnap-store`) owns chunk identity and dedup, and
//! callers hand this type a finished chunk-index → extent map. A chunk
//! index absent from the map is a hole: it resolves to zeros and costs no
//! I/O (the dedup analogue of a sparse-file hole).

use std::collections::BTreeMap;

use sim_core::time::SimTime;

use crate::device::{Disk, IoCompletion, IoRequest};
use crate::file::FileId;

/// Physical placement of one chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkExtent {
    /// Store file holding the chunk.
    pub file: FileId,
    /// First physical page of the chunk within that file.
    pub page: u64,
}

/// A logical file resolved chunk-by-chunk into store extents.
#[derive(Clone, Debug)]
pub struct ChunkedFile {
    chunk_pages: u64,
    extents: BTreeMap<u64, ChunkExtent>,
}

impl ChunkedFile {
    /// An empty mapping with the given chunk size in pages.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_pages` is zero (a configuration bug).
    pub fn new(chunk_pages: u64) -> ChunkedFile {
        assert!(chunk_pages > 0, "chunk_pages must be nonzero");
        ChunkedFile {
            chunk_pages,
            extents: BTreeMap::new(),
        }
    }

    /// Pages per chunk.
    pub fn chunk_pages(&self) -> u64 {
        self.chunk_pages
    }

    /// Maps logical chunk `idx` to a physical extent. Remapping an index
    /// replaces the previous placement (layer update).
    pub fn map_chunk(&mut self, idx: u64, extent: ChunkExtent) {
        self.extents.insert(idx, extent);
    }

    /// True if no chunk is mapped (the whole file is zeros).
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// The extent of chunk `idx`, if mapped.
    pub fn extent(&self, idx: u64) -> Option<ChunkExtent> {
        self.extents.get(&idx).copied()
    }

    /// All mapped `(chunk index, extent)` pairs in chunk order.
    pub fn extents(&self) -> impl Iterator<Item = (u64, ChunkExtent)> + '_ {
        self.extents.iter().map(|(&idx, &ext)| (idx, ext))
    }

    /// Translates one logical request into physical per-chunk requests:
    /// split at chunk boundaries, offsets preserved within each chunk,
    /// holes (unmapped chunks) dropped. The accounting tag carries over so
    /// device statistics still attribute translated traffic to its logical
    /// cause.
    pub fn plan(&self, req: &IoRequest) -> Vec<IoRequest> {
        let mut out = Vec::new();
        let end = req.page + req.pages;
        let mut page = req.page;
        while page < end {
            let idx = page / self.chunk_pages;
            let chunk_end = (idx + 1) * self.chunk_pages;
            let span = end.min(chunk_end) - page;
            if let Some(ext) = self.extents.get(&idx) {
                out.push(IoRequest {
                    file: ext.file,
                    page: ext.page + (page - idx * self.chunk_pages),
                    pages: span,
                    kind: req.kind,
                });
            }
            page += span;
        }
        out
    }

    /// Submits a logical request through the mapping against one disk,
    /// merging the per-chunk completions (latest completion wins, first
    /// injected fault wins). A request resolving entirely to holes
    /// completes instantly and fault-free. Callers whose extents span
    /// devices should iterate [`ChunkedFile::plan`] themselves.
    pub fn submit_checked(&self, disk: &mut Disk, now: SimTime, req: &IoRequest) -> IoCompletion {
        merge_completions(
            now,
            self.plan(req)
                .into_iter()
                .map(|phys| disk.submit_checked(now, phys)),
        )
    }
}

/// Folds per-chunk completions into one logical completion: the logical
/// request is done when its last chunk is done, and injured if any chunk
/// was injured (the first fault in submission order is reported).
pub fn merge_completions(
    now: SimTime,
    parts: impl IntoIterator<Item = IoCompletion>,
) -> IoCompletion {
    let mut done = now;
    let mut fault = None;
    for c in parts {
        done = done.max(c.done);
        if fault.is_none() {
            fault = c.fault;
        }
    }
    IoCompletion { done, fault }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::IoKind;
    use crate::faults::{FaultPlan, FaultRule, InjectedFaultKind};
    use crate::profiles::DiskProfile;

    fn req(page: u64, pages: u64) -> IoRequest {
        IoRequest {
            file: FileId(99),
            page,
            pages,
            kind: IoKind::LoaderPrefetch,
        }
    }

    fn mapping() -> ChunkedFile {
        // 8-page chunks; chunks 0 and 2 mapped into store file 5 (at
        // non-contiguous physical offsets, as dedup placement produces),
        // chunk 1 is a hole.
        let mut cf = ChunkedFile::new(8);
        cf.map_chunk(
            0,
            ChunkExtent {
                file: FileId(5),
                page: 64,
            },
        );
        cf.map_chunk(
            2,
            ChunkExtent {
                file: FileId(5),
                page: 8,
            },
        );
        cf
    }

    #[test]
    fn plan_splits_translates_and_skips_holes() {
        let cf = mapping();
        // Logical pages 4..20 touch chunk 0 (pages 4..8), the hole
        // (8..16), and chunk 2 (16..20).
        let plan = cf.plan(&req(4, 16));
        assert_eq!(plan.len(), 2);
        assert_eq!(
            (plan[0].file, plan[0].page, plan[0].pages),
            (FileId(5), 68, 4)
        );
        assert_eq!(
            (plan[1].file, plan[1].page, plan[1].pages),
            (FileId(5), 8, 4)
        );
        assert!(plan.iter().all(|r| r.kind == IoKind::LoaderPrefetch));
    }

    #[test]
    fn plan_within_one_chunk_is_exact() {
        let cf = mapping();
        let plan = cf.plan(&req(17, 3));
        assert_eq!(plan.len(), 1);
        assert_eq!((plan[0].page, plan[0].pages), (9, 3));
    }

    #[test]
    fn all_hole_request_completes_instantly() {
        let cf = mapping();
        let mut disk = Disk::new(DiskProfile::nvme_c5d(), 1);
        let now = SimTime::from_nanos(10_000);
        let c = cf.submit_checked(&mut disk, now, &req(8, 8));
        assert_eq!(c.done, now);
        assert!(c.fault.is_none());
        assert_eq!(disk.stats().requests, 0, "holes cost no I/O");
    }

    #[test]
    fn per_chunk_fault_injection_targets_physical_extent() {
        // A fault rule keyed on the *physical* window of chunk 2 must fire
        // for logical reads of chunk 2 and spare chunk 0.
        let mut disk = Disk::new(DiskProfile::nvme_c5d(), 1);
        let mut plan = FaultPlan::new(7);
        plan.push_rule(FaultRule {
            file: Some(FileId(5)),
            kind: None,
            pages: Some((8, 16)),
            fault: InjectedFaultKind::ReadError,
            times: u64::MAX,
        });
        disk.set_fault_plan(plan);
        let cf = mapping();
        let clean = cf.submit_checked(&mut disk, SimTime::ZERO, &req(0, 8));
        assert!(
            clean.fault.is_none(),
            "chunk 0's extent is outside the window"
        );
        let injured = cf.submit_checked(&mut disk, SimTime::ZERO, &req(16, 8));
        assert_eq!(
            injured.fault.map(|f| f.kind),
            Some(InjectedFaultKind::ReadError)
        );
    }

    #[test]
    fn merged_completion_is_latest_chunk() {
        let cf = mapping();
        let mut disk = Disk::new(DiskProfile::nvme_c5d(), 1);
        let c = cf.submit_checked(&mut disk, SimTime::ZERO, &req(0, 24));
        // Two physical requests were admitted; the merged completion must
        // be at least as late as either individually would be.
        assert_eq!(disk.stats().requests, 2);
        assert!(c.done > SimTime::ZERO);
    }
}
