//! Fleet-level FaaSnap: what do fast snapshot restores buy at scale?
//!
//! The rest of the workspace models one host in microarchitectural
//! detail. This crate zooms out to the layer FaaSnap is designed to slot
//! into — a fleet of hosts behind a router serving an open-loop,
//! multi-tenant invocation stream — and asks the questions a provider
//! would: which placement policy minimizes tail latency, how do warm-VM
//! pools and snapshot registries interact under memory and storage
//! budgets, and how does FaaSnap's restore latency shift the §7.1
//! warm/snapshot/cold crossover fleet-wide.
//!
//! The pieces:
//!
//! * [`arrival`] — deterministic open-loop trace generators (per-tenant
//!   Poisson, bursty on/off, Zipf-skewed tenant popularity) built on
//!   [`sim_core::rng::Prng`].
//! * [`hostsim`] — the per-host serving model: concurrency slots, a
//!   bounded pending queue, a TTL-governed warm-VM pool, a snapshot
//!   registry with LRU eviction under a storage budget, and a page-cache
//!   model that makes restores faster on hosts that recently served the
//!   same function (the locality signal the router exploits).
//! * [`store`] — the store-aware snapshot registry backing [`hostsim`]:
//!   each tenant snapshot is a private layer of content-addressed chunk
//!   references over a layer its function family shares, in a
//!   [`faasnap_store::SnapshotStore`], the budget
//!   charges unique (deduplicated) bytes, and eviction drops only
//!   chunks no surviving snapshot references — letting far more
//!   functions stay restorable per host under Zipf skew.
//! * [`router`] — pluggable placement: random, least-loaded, and
//!   snapshot-locality-aware, plus admission control and load shedding.
//! * [`routeridx`] — incrementally-maintained routing indices (Fenwick
//!   select for random, a segment tree for least-loaded, per-tenant
//!   locality lists) answering the same queries without per-request
//!   scans — byte-identical placements at fleet scale.
//! * [`fleet`] — the discrete-event simulation tying it together on
//!   [`sim_core::engine::Engine`].
//! * [`metrics`] — per-function and fleet-wide SLO metrics (p50/p95/p99,
//!   serving-mode mix, shed count, host utilization), serialized to JSON
//!   via [`sim_core::json`].
//! * [`slo`] — multi-window burn-rate SLO monitoring (latency and
//!   cold-start error budgets) evaluated live on the event stream, with
//!   a deterministic alert log.
//! * [`calibrate`] — measures per-function [`hostsim::ServiceTimes`] from
//!   the real single-host [`faasnap_daemon::platform::Platform`], so the
//!   fleet model runs on latencies produced by the detailed simulator
//!   rather than constants.
//!
//! Everything is deterministic: the same [`fleet::ClusterConfig`] and
//! seed yield byte-identical serialized metrics.

#![forbid(unsafe_code)]
pub mod arrival;
pub mod calibrate;
pub mod fleet;
pub mod hostsim;
pub mod metrics;
pub mod router;
pub mod routeridx;
pub mod slo;
pub mod store;

pub use arrival::{Arrival, ArrivalPattern, TenantSpec, WorkloadSpec};
pub use fleet::{run_cluster, ClusterConfig, FleetFaultProfile};
pub use hostsim::{HostConfig, ServiceTimes};
pub use metrics::FleetMetrics;
pub use router::RoutePolicy;
pub use routeridx::RouterIndex;
pub use slo::{AlertEvent, SloAlert, SloConfig, SloMonitor};
pub use store::{family_chunks, tenant_chunks, StoreParams, StoreRegistry};
