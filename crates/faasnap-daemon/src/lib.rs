//! The FaaSnap platform daemon.
//!
//! The paper's daemon "manages local VM images, guest kernels, snapshot
//! memory and working set files, active VMs, and network resources" and
//! "exposes an API to allow remote clients to control resources and send
//! invocation requests" (§4.1). This crate is that layer over the
//! simulated host:
//!
//! - [`registry`] — functions and their recorded snapshot artifacts.
//! - [`platform`] — the daemon API: register a function, run its record
//!   phase, restore N ≥ 1 copy-on-write siblings of its snapshot under
//!   any restore strategy (one sibling is an ordinary invocation; the
//!   evaluation's drop-caches hygiene applies), and run bursty workloads
//!   (§6.6) on shared host resources.
//! - [`config`] — JSON experiment configurations mirroring the artifact's
//!   `test-2inputs.json` / `test-6inputs.json` files.
//! - [`metrics`] — repetition aggregation (mean ± stddev, as the paper
//!   reports) and text-table rendering for experiment output.
//! - [`observe`] — traced invocations (the artifact's Zipkin analog):
//!   real spans emitted by the runtime, exported via `faasnap-obs`.

#![forbid(unsafe_code)]
pub mod config;
pub mod metrics;
pub mod observe;
pub mod platform;
pub mod policy;
pub mod registry;

pub use config::ExperimentConfig;
pub use metrics::{MeasuredCell, TextTable};
pub use observe::{traced_fork, TraceRun};
pub use platform::{BurstKind, InvokeError, Platform};
pub use policy::{simulate_policy, ModeLatencies, Policy, ServingMode};
pub use registry::FunctionRegistry;
