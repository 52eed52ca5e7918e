//! Simulated storage stack: block devices, files, and readahead policy.
//!
//! The FaaSnap paper's results hinge on disk behavior: scattered 4 KiB
//! demand reads are slow, sequential reads of a compact loading-set file
//! are fast, IOPS and bandwidth saturate under bursts, and remote block
//! storage (EBS) adds latency. This crate models exactly those effects:
//!
//! - [`device::Disk`] — a queued block device with per-request setup
//!   latency (cheaper for sequential continuation), a shared-bandwidth data
//!   bus, and an IOPS admission gate. Profiles for the paper's NVMe SSD
//!   (1589 MB/s, 285 k IOPS) and EBS io2 volume (1 GB/s, 64 k IOPS) are in
//!   [`profiles`].
//! - [`file`](mod@file) — a registry of simulated files (snapshot memory files,
//!   working-set files, loading-set files) placed on devices.
//! - [`readahead`] — a Linux-style per-stream readahead window model
//!   (initial window, doubling on sequential access, reset on random),
//!   which is what makes FaaSnap's *host page recording* observation work:
//!   readahead pulls in pages nearby the faulting page, and those pages are
//!   visible to `mincore`.

//! - [`faults`] — a seeded, deterministic fault-injection plan (read
//!   errors, short reads, latency spikes, detectable corruption) that
//!   attaches to a device; fault-aware callers submit through
//!   [`device::Disk::submit_checked`].
//!
#![forbid(unsafe_code)]
pub mod chunked;
pub mod device;
pub mod faults;
pub mod file;
pub mod profiles;
pub mod readahead;

pub use chunked::{merge_completions, ChunkExtent, ChunkedFile};
pub use device::{Disk, IoCompletion, IoKind, IoRequest, IoStats};
pub use faults::{
    FaultPlan, FaultProfile, FaultRecord, FaultRule, InjectedFault, InjectedFaultKind,
};
pub use file::{DeviceId, FileId, FileKind, SimFs};
pub use profiles::DiskProfile;
pub use readahead::ReadaheadState;
