//! Simulated microVM substrate (a Firecracker-like guest).
//!
//! The FaaSnap paper treats the guest as a source of page accesses and the
//! snapshot as a frozen image of guest physical memory. This crate models
//! exactly that:
//!
//! - [`guest_memory`] — sparse byte-equivalent contents of guest physical
//!   memory (zero pages vs. non-zero pages with content tokens), plus the
//!   zero/non-zero region scan FaaSnap performs after the record phase
//!   (§4.5).
//! - [`guest_kernel`] — guest-side semantics that matter to the host:
//!   copy-on-write zero-fill of anonymous pages and the modified kernel's
//!   *page sanitization* of freed pages (§4.5: `free_pages_prepare` zeroes
//!   freed pages during the record phase, at ~10 % guest overhead).
//! - [`overlay`] — copy-on-write guest-memory overlays: every VM restored
//!   from a snapshot shares its one frozen image and keeps only its own
//!   dirty pages, the memory substrate of bursts and snapshot branching.
//! - [`trace`] — the memory-access trace language functions are expressed
//!   in (compute, strided range touches, frees).
//! - [`vcpu`] — a passive interpreter that yields one step at a time so
//!   the DES runtime can interleave guest execution with the loader.
//! - [`snapshot`] — snapshot creation (memory file + state file) and the
//!   invariants restores must preserve.
//! - [`boot`] — timing model for VMM start and snapshot-load setup.

#![forbid(unsafe_code)]
pub mod boot;
pub mod guest_kernel;
pub mod guest_memory;
pub mod overlay;
pub mod snapshot;
pub mod trace;
pub mod vcpu;

pub use guest_kernel::GuestKernel;
pub use guest_memory::GuestMemory;
pub use overlay::{CowMemory, GuestMem};
pub use snapshot::Snapshot;
pub use trace::{Trace, TraceOp};
pub use vcpu::{Step, Vcpu};
