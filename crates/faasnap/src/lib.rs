//! FaaSnap: snapshot recording and restore strategies.
//!
//! This crate is the paper's contribution plus its baselines:
//!
//! - [`wset`] — working sets with access-order *groups* of N = 1024 pages
//!   (§4.3) and REAP's fault-order working set.
//! - [`record`] — the record phase's *host page recording* via repeated
//!   `mincore` scans paced by guest RSS growth (§4.4, §5), and REAP's
//!   `userfaultfd` fault tracking.
//! - [`loadingset`] — the loading set (working set ∩ non-zero pages,
//!   §4.6), region merging with a 32-page gap threshold, and the compact
//!   loading-set file layout sorted by (group, address) (§4.7).
//! - [`mapper`] — per-region memory mapping via hierarchical overlapping
//!   `MAP_FIXED` mappings (§4.5, §4.8, Figure 4), plus the flat
//!   alternative for comparison.
//! - [`loader`] — the concurrent-paging daemon loader (§4.2): prefetch
//!   plans over the loading-set file (or, for ablations, the memory file).
//! - [`reap`] — the REAP baseline: blocking working-set fetch with
//!   `UFFDIO_COPY` install, and the serialized user-level handler for
//!   out-of-set faults.
//! - [`strategy`] — the restore strategy taxonomy (Warm / Firecracker /
//!   Cached / REAP / FaaSnap and its Figure 9 ablations).
//! - [`runtime`] — the discrete-event world that executes an invocation
//!   under a strategy: vCPU, loader, disk, page cache, fault handling.
//! - [`artifacts`] — the record phase: produces the warm snapshot, the
//!   working set, the loading-set file, and the REAP working-set file.
//! - [`snapstore`] — base+delta snapshot recording over the
//!   content-addressed chunk store (`faasnap-store`): one shared base per
//!   function family, dirty-chunk deltas per instance, and store-backed
//!   read layouts for the restore path.
//! - [`report`] — per-invocation metrics (setup/invocation time, fault
//!   histograms, loader fetch time/size, disk traffic) matching the
//!   paper's measurement methodology.

#![forbid(unsafe_code)]
pub mod artifacts;
pub mod error;
pub mod loader;
pub mod loadingset;
pub mod mapper;
pub mod reap;
pub mod record;
pub mod report;
pub mod runtime;
pub mod snapstore;
pub mod strategy;
pub mod wset;

pub use artifacts::{record_phase, SnapshotArtifacts};
pub use error::{RestoreError, RetrySite};
pub use loadingset::{LoadingSet, LsRegion};
pub use report::{FaultReport, InvocationReport, RetryRecord};
pub use runtime::{Host, MmDelaySpec};
pub use snapstore::{FamilyStore, NamedSnapshot};
pub use strategy::{FaasnapConfig, RestoreStrategy};
pub use wset::{ReapWorkingSet, WorkingSet, GROUP_SIZE};
