//! Simulated host memory management.
//!
//! This crate models the parts of the Linux host kernel that determine
//! snapshot-restore performance in the FaaSnap paper:
//!
//! - [`addr`] — guest-physical page numbers and ranges.
//! - [`vma`] — the VMM's virtual memory areas over the guest region,
//!   including `MAP_FIXED` overlay semantics used by FaaSnap's
//!   *hierarchical overlapping mappings* (§4.8): an anonymous base mapping,
//!   non-zero regions overlaid onto the memory file, and loading-set
//!   regions overlaid onto the loading-set file. The VMAs sit in one
//!   sorted vector behind a last-hit cursor, so a fault's lookup is
//!   usually one or two comparisons.
//! - [`page_table`] — per-address-space page presence (three states:
//!   unmapped, host-PTE-only as after `UFFDIO_COPY`, fully mapped) and RSS
//!   accounting.
//! - [`page_cache`] — the host page cache shared by all VMs: exact LRU over
//!   per-file 64-page blocks, explicit drop (the evaluation drops caches
//!   before each test), and warm-up for the `Cached` reference setting.
//! - [`inflight`] — file pages with disk reads in flight (the kernel's
//!   page locks), in the same blocks, so racing faults wait on one read.
//! - [`share`] — snapshot-keyed shared page state: the cache and in-flight
//!   registries bundled behind canonical content-addressed chunk identity,
//!   so concurrent restores of snapshots sharing chunks (fork siblings)
//!   share hits and deduplicate reads.
//! - [`fault`] — classification and cost/IO planning for guest page faults
//!   (anonymous zero-fill vs. minor vs. major vs. `userfaultfd`).
//! - [`mincore`] — the `mincore(2)` model used by FaaSnap's host page
//!   recording (§4.4): file-backed pages are "in core" iff cached, so
//!   readahead-fetched pages are recorded into the working set.
//! - [`userfaultfd`] — registration of ranges for user-level fault
//!   handling (REAP's mechanism).
//! - [`costs`] — calibrated fault-cost constants with the paper sentences
//!   they come from.

#![forbid(unsafe_code)]
pub mod addr;
mod blocks;
pub mod costs;
pub mod fault;
pub mod inflight;
pub mod mincore;
pub mod page_cache;
pub mod page_table;
pub mod share;
pub mod userfaultfd;
pub mod vma;

pub use addr::{PageNum, PageRange};
pub use costs::FaultCosts;
pub use fault::{FaultOutcome, FaultResolver};
pub use inflight::InflightIo;
pub use page_cache::PageCache;
pub use page_table::{PageState, PageTable};
pub use share::{Cover, ShareMap, SharedPages};
pub use userfaultfd::UffdRegistry;
pub use vma::{AddressSpace, Backing, Vma};
