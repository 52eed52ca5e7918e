//! The per-host serving model.
//!
//! Each fleet host is an abstraction of the detailed single-host
//! simulator: it serves one invocation per concurrency slot, holds
//! finished VMs in a TTL-governed warm pool (the §7.1 keep-alive), keeps
//! snapshots in a store-aware LRU registry ([`crate::store`]) whose
//! storage budget charges *unique* chunk bytes — eviction frees only
//! chunks no surviving snapshot references — and
//! tracks which loading sets are resident in its page cache (restores on
//! a cache-hot host skip the disk reads FaaSnap's loader would issue —
//! the locality signal the router exploits). Service latencies come from
//! [`ServiceTimes`], calibrated per workload against the real
//! [`faasnap_daemon::platform::Platform`] by [`crate::calibrate`].
//!
//! Determinism: all internal collections are order-preserving (`Vec` /
//! `VecDeque`), never hash maps, so replays are exact.

use std::collections::VecDeque;

use faasnap_daemon::policy::ModeLatencies;
use faasnap_obs::{Metrics, TraceContext};
use sim_core::time::{SimDuration, SimTime};

use crate::arrival::TenantId;
use crate::routeridx::RouterIndex;
use crate::store::{StoreParams, StoreRegistry};

/// How one fleet invocation was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeMode {
    /// A live warm VM existed on the chosen host.
    Warm,
    /// Snapshot restore with the loading set already in page cache.
    SnapshotHot,
    /// Snapshot restore paging from disk.
    SnapshotCold,
    /// Full cold boot (no snapshot on the host, or it was evicted).
    Cold,
}

impl ServeMode {
    /// Stable lowercase label used in metrics JSON.
    pub fn label(self) -> &'static str {
        match self {
            ServeMode::Warm => "warm",
            ServeMode::SnapshotHot => "snapshot_hot",
            ServeMode::SnapshotCold => "snapshot_cold",
            ServeMode::Cold => "cold",
        }
    }
}

/// Per-workload serving latencies and footprints used by the fleet model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceTimes {
    /// Total invocation latency on a warm-VM hit.
    pub warm: SimDuration,
    /// Total latency restoring a snapshot whose loading set is cached.
    pub snap_hot: SimDuration,
    /// Total latency restoring a snapshot from disk.
    pub snap_cold: SimDuration,
    /// Total latency of a full cold boot.
    pub cold: SimDuration,
    /// On-disk snapshot footprint (counts against the registry budget).
    pub snapshot_bytes: u64,
    /// Loading-set footprint (counts against the page-cache budget).
    pub loading_set_bytes: u64,
}

impl ServiceTimes {
    /// Fleet latencies derived from measured single-host mode latencies;
    /// `snap_hot` interpolates between warm and snapshot restore (a hot
    /// cache removes the disk reads but not the mapping/fault work).
    pub fn from_latencies(l: ModeLatencies, snapshot_bytes: u64, loading_set_bytes: u64) -> Self {
        let warm = l.warm;
        let snap_cold = l.snapshot;
        let snap_hot = warm + (snap_cold.saturating_sub(warm)).mul_f64(0.35);
        ServiceTimes {
            warm,
            snap_hot,
            snap_cold,
            cold: l.cold,
            snapshot_bytes,
            loading_set_bytes,
        }
    }

    /// Latency for a serving mode.
    pub fn latency(&self, mode: ServeMode) -> SimDuration {
        match mode {
            ServeMode::Warm => self.warm,
            ServeMode::SnapshotHot => self.snap_hot,
            ServeMode::SnapshotCold => self.snap_cold,
            ServeMode::Cold => self.cold,
        }
    }
}

impl Default for ServiceTimes {
    fn default() -> Self {
        // The reproduction's `image` reference numbers plus typical
        // footprints (2 GB VM, ~150 MB loading set).
        ServiceTimes::from_latencies(ModeLatencies::default(), 2 << 30, 150 << 20)
    }
}

/// Static configuration of one host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostConfig {
    /// Concurrent invocation slots (memory capacity / VM footprint).
    pub slots: u32,
    /// Bounded pending queue; arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Warm-VM keep-alive TTL (the §7.1 policy knob).
    pub warm_ttl: SimDuration,
    /// Maximum idle warm VMs resident at once.
    pub warm_pool_cap: usize,
    /// Storage budget for the snapshot registry (unique bytes).
    pub snapshot_budget_bytes: u64,
    /// Page-cache budget for loading sets.
    pub cache_budget_bytes: u64,
    /// Snapshot-store parameters: chunk-level dedup and granularity.
    pub store: StoreParams,
    /// Snapshot branching: while a same-family snapshot restore is
    /// paging from disk, co-located requests branch from it as COW
    /// siblings instead of re-reading the loading set (default off; an
    /// off host is byte-identical to a branch-free build).
    pub branch: bool,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            slots: 16,
            queue_cap: 32,
            warm_ttl: SimDuration::from_secs(600),
            warm_pool_cap: 8,
            snapshot_budget_bytes: 24 << 30,
            cache_budget_bytes: 2 << 30,
            store: StoreParams::default(),
            branch: false,
        }
    }
}

/// An admitted-but-not-started invocation.
#[derive(Clone, Copy, Debug)]
pub struct QueuedJob {
    /// The tenant function to run.
    pub tenant: TenantId,
    /// The tenant's function family (shared snapshot provenance group —
    /// in the fleet model, tenants running the same base workload).
    pub family: u64,
    /// When the request arrived at the router.
    pub arrived: SimTime,
    /// The request's `fleet/request` span (NONE when tracing is off).
    pub ctx: TraceContext,
}

/// Byte-budgeted LRU over tenant-owned artifacts (snapshots or cached
/// loading sets). Front of the deque is least recently used.
#[derive(Clone, Debug, Default)]
pub struct LruBudget {
    entries: VecDeque<(TenantId, u64)>,
    total: u64,
    budget: u64,
}

impl LruBudget {
    /// Creates an empty LRU with the given byte budget.
    pub fn new(budget: u64) -> Self {
        LruBudget {
            entries: VecDeque::new(),
            total: 0,
            budget,
        }
    }

    /// True if `tenant` has a resident entry.
    pub fn contains(&self, tenant: TenantId) -> bool {
        self.entries.iter().any(|(t, _)| *t == tenant)
    }

    /// Bytes currently resident.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// The configured budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Marks `tenant` most recently used, without inserting.
    pub fn touch(&mut self, tenant: TenantId) {
        if let Some(pos) = self.entries.iter().position(|(t, _)| *t == tenant) {
            if let Some(e) = self.entries.remove(pos) {
                self.entries.push_back(e);
            }
        }
    }

    /// Inserts (or refreshes) `tenant` at `bytes`, then evicts from the
    /// LRU end until the budget holds. Returns the evicted tenants. An
    /// entry larger than the whole budget is rejected (returned as if
    /// evicted immediately) rather than wedging the registry.
    pub fn insert(&mut self, tenant: TenantId, bytes: u64) -> Vec<TenantId> {
        if let Some(pos) = self.entries.iter().position(|(t, _)| *t == tenant) {
            if let Some((_, old)) = self.entries.remove(pos) {
                self.total -= old;
            }
        }
        if bytes > self.budget {
            return vec![tenant];
        }
        self.entries.push_back((tenant, bytes));
        self.total += bytes;
        let mut evicted = Vec::new();
        while self.total > self.budget {
            // Over budget implies non-empty; an empty deque just exits.
            let Some((t, b)) = self.entries.pop_front() else {
                break;
            };
            self.total -= b;
            evicted.push(t);
        }
        evicted
    }

    /// Removes `tenant` outright (e.g. deliberate invalidation).
    pub fn remove(&mut self, tenant: TenantId) {
        if let Some(pos) = self.entries.iter().position(|(t, _)| *t == tenant) {
            if let Some((_, b)) = self.entries.remove(pos) {
                self.total -= b;
            }
        }
    }
}

/// What a host can offer an incoming invocation of a tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LocalityClass {
    /// An unexpired warm VM is idle.
    WarmVm,
    /// Snapshot registered and loading set cache-resident.
    SnapshotHot,
    /// Snapshot registered, cold cache.
    SnapshotCold,
    /// Nothing local; serving means a cold boot.
    Nothing,
}

/// Dynamic serving state of one fleet host.
#[derive(Clone, Debug)]
pub struct HostSim {
    cfg: HostConfig,
    running: u32,
    queue: VecDeque<QueuedJob>,
    /// Idle warm VMs as (tenant, expiry), oldest expiry first.
    warm: Vec<(TenantId, SimTime)>,
    snapshots: StoreRegistry,
    cache: LruBudget,
    /// Branch windows: disk-touching snapshot restores in flight, as
    /// (family, completion time). Only populated when `cfg.branch`.
    restoring: Vec<(u64, SimTime)>,
    /// Invocations served by branching off an in-flight restore.
    branched: u64,
    /// Loading-set bytes those branched serves did not re-read.
    branched_saved_bytes: u64,
    shed: u64,
    busy: SimDuration,
    metrics: Metrics,
    host_label: String,
    /// Shared router index (disabled by default — zero cost); the host
    /// pushes load/warm/snapshot/cache deltas so the router never scans.
    index: RouterIndex,
    host_id: usize,
}

impl HostSim {
    /// Creates an idle host.
    pub fn new(cfg: HostConfig) -> Self {
        HostSim {
            cfg,
            running: 0,
            queue: VecDeque::new(),
            warm: Vec::new(),
            snapshots: StoreRegistry::new(cfg.snapshot_budget_bytes, cfg.store),
            cache: LruBudget::new(cfg.cache_budget_bytes),
            restoring: Vec::new(),
            branched: 0,
            branched_saved_bytes: 0,
            shed: 0,
            busy: SimDuration::ZERO,
            metrics: Metrics::disabled(),
            host_label: String::from("0"),
            index: RouterIndex::disabled(),
            host_id: 0,
        }
    }

    /// Attaches a metrics registry; `index` labels this host's series.
    pub fn set_metrics(&mut self, metrics: Metrics, index: usize) {
        self.metrics = metrics;
        self.host_label = index.to_string();
    }

    /// Attaches a shared [`RouterIndex`]; `host_id` is this host's slot
    /// in it. Attach to a *fresh* host (before it serves traffic): the
    /// index picks up the current load and admission headroom here, and
    /// tracks warm/snapshot/cache state incrementally from then on.
    pub fn attach_index(&mut self, index: RouterIndex, host_id: usize) {
        self.index = index;
        self.host_id = host_id;
        self.sync_index_load();
    }

    /// Pushes the current load signal and admission headroom.
    fn sync_index_load(&mut self) {
        self.index
            .set_host(self.host_id, self.load(), self.can_admit());
    }

    /// Reconciles `tenant`'s snapshot and cache residency after registry
    /// or cache mutations (idempotent, so eviction cascades just re-sync
    /// every affected tenant).
    fn sync_index_tenant(&self, tenant: TenantId) {
        if !self.index.is_enabled() {
            return;
        }
        self.index
            .set_snapshot(self.host_id, tenant, self.snapshots.contains(tenant));
        self.index
            .set_cached(self.host_id, tenant, self.cache.contains(tenant));
    }

    /// The host's configuration.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// Invocations currently executing.
    pub fn running(&self) -> u32 {
        self.running
    }

    /// Requests executing or queued (the router's load signal).
    pub fn load(&self) -> usize {
        self.running as usize + self.queue.len()
    }

    /// True if one more request can be admitted without shedding.
    pub fn can_admit(&self) -> bool {
        (self.running as usize) < self.cfg.slots as usize || self.queue.len() < self.cfg.queue_cap
    }

    /// Requests shed so far.
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Invocations served by branching off an in-flight same-family
    /// restore (always 0 unless [`HostConfig::branch`]).
    pub fn branched_count(&self) -> u64 {
        self.branched
    }

    /// Loading-set bytes branched serves avoided re-reading from disk.
    pub fn branched_saved_bytes(&self) -> u64 {
        self.branched_saved_bytes
    }

    /// Cumulative slot-busy time (for utilization metrics).
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// The snapshot registry (inspectable in tests and fleet metrics).
    pub fn snapshots(&self) -> &StoreRegistry {
        &self.snapshots
    }

    /// The loading-set page-cache model (inspectable in tests).
    pub fn cache(&self) -> &LruBudget {
        &self.cache
    }

    /// Idle warm VMs (after expiry purge callers trigger via serving).
    pub fn warm_pool_len(&self) -> usize {
        self.warm.len()
    }

    /// Resident memory, in VM units: running plus idle warm VMs.
    pub fn resident_vms(&self) -> usize {
        self.running as usize + self.warm.len()
    }

    /// What this host can offer `tenant` right now.
    pub fn locality(&self, tenant: TenantId, now: SimTime) -> LocalityClass {
        if self
            .warm
            .iter()
            .any(|&(t, expiry)| t == tenant && expiry >= now)
        {
            LocalityClass::WarmVm
        } else if self.snapshots.contains(tenant) {
            if self.cache.contains(tenant) {
                LocalityClass::SnapshotHot
            } else {
                LocalityClass::SnapshotCold
            }
        } else {
            LocalityClass::Nothing
        }
    }

    /// Admits one request: starts it if a slot is free (returning the
    /// serving mode and service time to schedule completion for), queues
    /// it if the pending queue has room, sheds it otherwise.
    pub fn admit(&mut self, job: QueuedJob, now: SimTime, times: &ServiceTimes) -> Admission {
        if (self.running as usize) < self.cfg.slots as usize {
            let (mode, service) = self.start_service(job.tenant, job.family, now, times);
            Admission::Started { mode, service }
        } else if self.queue.len() < self.cfg.queue_cap {
            self.queue.push_back(job);
            self.sync_index_load();
            self.metrics.gauge_max(
                "fleet_queue_depth_max",
                &[("host", &self.host_label)],
                self.queue.len() as f64,
            );
            Admission::Queued
        } else {
            self.shed += 1;
            self.metrics
                .counter_inc("fleet_shed_total", &[("host", &self.host_label)]);
            Admission::Shed
        }
    }

    /// Starts serving `tenant` (of snapshot `family`) in a free slot:
    /// picks the serving mode from local state, updates the warm pool /
    /// snapshot registry / cache model, and returns the mode and total
    /// service time.
    pub fn start_service(
        &mut self,
        tenant: TenantId,
        family: u64,
        now: SimTime,
        times: &ServiceTimes,
    ) -> (ServeMode, SimDuration) {
        debug_assert!((self.running as usize) < self.cfg.slots as usize);
        self.purge_expired_warm(now);
        let mode = if let Some(pos) = self.warm.iter().position(|&(t, _)| t == tenant) {
            let (_, expiry) = self.warm.remove(pos);
            self.index.warm_remove(self.host_id, tenant, expiry);
            self.metrics
                .counter_inc("fleet_warm_pool_hits_total", &[("host", &self.host_label)]);
            ServeMode::Warm
        } else if self.snapshots.contains(tenant) {
            self.snapshots.touch(tenant);
            let hot = self.cache.contains(tenant);
            // Restoring (hot or cold) leaves the loading set resident;
            // whoever the insert pushed out loses cache residency.
            let cache_evicted = self.cache.insert(tenant, times.loading_set_bytes);
            for t in cache_evicted {
                self.sync_index_tenant(t);
            }
            self.sync_index_tenant(tenant);
            if hot {
                ServeMode::SnapshotHot
            } else if self.branch_active(family, now) {
                // A same-family restore is already paging this family's
                // shared chunks in; branch a COW sibling off it instead
                // of re-reading the loading set. The sibling pays only
                // the mapping/fault work — the snapshot-hot latency.
                self.branched += 1;
                self.branched_saved_bytes += times.loading_set_bytes;
                self.metrics
                    .counter_inc("fleet_fork_siblings_total", &[("host", &self.host_label)]);
                self.metrics.counter_add(
                    "fleet_fork_saved_bytes_total",
                    &[("host", &self.host_label)],
                    times.loading_set_bytes,
                );
                ServeMode::SnapshotHot
            } else {
                if self.cfg.branch {
                    // Leader: its disk reads are sharable until it
                    // finishes restoring.
                    self.restoring.push((family, now + times.snap_cold));
                }
                ServeMode::SnapshotCold
            }
        } else {
            // Cold boot; the daemon snapshots the booted VM so the next
            // miss on this host restores instead. Evictions cascade: a
            // snapshot pushed out of the registry also loses its cache
            // residency claim.
            let evicted = self.snapshots.insert(tenant, family, times.snapshot_bytes);
            if !evicted.is_empty() {
                self.metrics.counter_add(
                    "fleet_snapshot_evictions_total",
                    &[("host", &self.host_label)],
                    evicted.len() as u64,
                );
            }
            for &t in &evicted {
                self.cache.remove(t);
                self.sync_index_tenant(t);
            }
            let cache_evicted = self.cache.insert(tenant, times.loading_set_bytes);
            for t in cache_evicted {
                self.sync_index_tenant(t);
            }
            self.sync_index_tenant(tenant);
            ServeMode::Cold
        };
        self.metrics
            .counter_inc("fleet_requests_total", &[("mode", mode.label())]);
        let service = times.latency(mode);
        self.running += 1;
        self.busy += service;
        self.sync_index_load();
        (mode, service)
    }

    /// Completes one invocation of `tenant`: frees the slot and parks
    /// the VM in the warm pool under the keep-alive TTL.
    pub fn finish(&mut self, tenant: TenantId, now: SimTime) {
        debug_assert!(self.running > 0);
        self.running -= 1;
        self.purge_expired_warm(now);
        let expiry = now + self.cfg.warm_ttl;
        if self.cfg.warm_pool_cap != 0 {
            if self.warm.len() >= self.cfg.warm_pool_cap {
                // Evict the warm VM closest to expiry.
                let (t, e) = self.warm.remove(0);
                self.index.warm_remove(self.host_id, t, e);
            }
            // Keep the pool sorted by expiry (oldest first).
            let pos = self.warm.partition_point(|&(_, e)| e <= expiry);
            self.warm.insert(pos, (tenant, expiry));
            self.index.warm_add(self.host_id, tenant, expiry);
        }
        self.sync_index_load();
    }

    /// Pops the next queued request, if any (the caller starts it).
    pub fn pop_queued(&mut self) -> Option<QueuedJob> {
        let job = self.queue.pop_front();
        if job.is_some() {
            self.sync_index_load();
        }
        job
    }

    /// True if a disk-touching restore of `family` is still in flight
    /// (branch mode only; expired windows are purged on the way).
    fn branch_active(&mut self, family: u64, now: SimTime) -> bool {
        if !self.cfg.branch {
            return false;
        }
        self.restoring.retain(|&(_, until)| until > now);
        self.restoring.iter().any(|&(f, _)| f == family)
    }

    fn purge_expired_warm(&mut self, now: SimTime) {
        // The pool is sorted by expiry, so the expired VMs are a prefix.
        while self.warm.first().is_some_and(|&(_, e)| e < now) {
            let (t, e) = self.warm.remove(0);
            self.index.warm_remove(self.host_id, t, e);
        }
    }
}

/// Outcome of [`HostSim::admit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// A slot was free; completion should be scheduled after `service`.
    Started {
        /// How the invocation is being served.
        mode: ServeMode,
        /// Total service (startup + execution) time.
        service: SimDuration,
    },
    /// Parked in the pending queue.
    Queued,
    /// Dropped: queue full.
    Shed,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_nanos(s * 1_000_000_000)
    }

    fn small_host() -> HostSim {
        HostSim::new(HostConfig {
            slots: 2,
            queue_cap: 2,
            warm_ttl: SimDuration::from_secs(60),
            warm_pool_cap: 2,
            snapshot_budget_bytes: 100,
            cache_budget_bytes: 100,
            store: StoreParams::default(),
            branch: false,
        })
    }

    fn times(snapshot_bytes: u64) -> ServiceTimes {
        ServiceTimes {
            snapshot_bytes,
            loading_set_bytes: 10,
            ..ServiceTimes::default()
        }
    }

    #[test]
    fn first_invocation_is_cold_then_snapshot() {
        let mut h = small_host();
        let st = times(40);
        let (mode, _) = h.start_service(0, 0, t(0), &st);
        assert_eq!(mode, ServeMode::Cold);
        h.finish(0, t(100));
        // Warm VM expired (TTL 60s) by t=200; snapshot remains, and the
        // loading set is still cached.
        let (mode, _) = h.start_service(0, 0, t(200), &st);
        assert_eq!(mode, ServeMode::SnapshotHot);
    }

    #[test]
    fn warm_hit_within_ttl() {
        let mut h = small_host();
        let st = times(40);
        h.start_service(0, 0, t(0), &st);
        h.finish(0, t(10));
        assert_eq!(h.locality(0, t(20)), LocalityClass::WarmVm);
        let (mode, d) = h.start_service(0, 0, t(20), &st);
        assert_eq!(mode, ServeMode::Warm);
        assert_eq!(d, st.warm);
    }

    #[test]
    fn admission_queues_then_sheds() {
        let mut h = small_host();
        let st = times(10);
        let job = |tenant: TenantId| QueuedJob {
            tenant,
            family: tenant as u64,
            arrived: t(0),
            ctx: TraceContext::NONE,
        };
        assert!(matches!(
            h.admit(job(0), t(0), &st),
            Admission::Started { .. }
        ));
        assert!(matches!(
            h.admit(job(1), t(0), &st),
            Admission::Started { .. }
        ));
        assert_eq!(h.admit(job(2), t(0), &st), Admission::Queued);
        assert_eq!(h.admit(job(3), t(0), &st), Admission::Queued);
        assert!(!h.can_admit());
        assert_eq!(h.admit(job(4), t(0), &st), Admission::Shed);
        assert_eq!(h.shed_count(), 1);
        assert_eq!(h.load(), 4);
    }

    #[test]
    fn lru_eviction_forces_cold_path() {
        let mut h = small_host(); // snapshot budget 100
        let st = times(40);
        h.start_service(0, 0, t(0), &st); // cold, snapshot 0 resident
        h.finish(0, t(1));
        h.start_service(1, 1, t(100), &st);
        h.finish(1, t(101));
        // Third distinct tenant pushes tenant 0 (LRU) out: 3*40 > 100.
        h.start_service(2, 2, t(200), &st);
        h.finish(2, t(201));
        assert!(!h.snapshots().contains(0), "tenant 0 evicted");
        assert!(h.snapshots().contains(1) && h.snapshots().contains(2));
        // Warm VMs for 1 and 2 are gone after TTL; tenant 0 must cold-boot.
        let (mode, _) = h.start_service(0, 0, t(400), &st);
        assert_eq!(mode, ServeMode::Cold);
    }

    #[test]
    fn oversized_snapshot_rejected_not_wedged() {
        let mut lru = LruBudget::new(100);
        assert_eq!(lru.insert(0, 250), vec![0]);
        assert!(lru.is_empty());
        assert_eq!(lru.total_bytes(), 0);
    }

    #[test]
    fn lru_touch_changes_victim() {
        let mut lru = LruBudget::new(100);
        assert!(lru.insert(0, 40).is_empty());
        assert!(lru.insert(1, 40).is_empty());
        lru.touch(0); // 1 is now LRU
        assert_eq!(lru.insert(2, 40), vec![1]);
        assert!(lru.contains(0) && lru.contains(2) && !lru.contains(1));
    }

    #[test]
    fn warm_pool_cap_and_expiry() {
        // Three slots so all three tenants can run at once; pool cap 2.
        let mut h = HostSim::new(HostConfig {
            slots: 3,
            warm_pool_cap: 2,
            ..small_host().config().to_owned()
        });
        let st = times(10);
        for tenant in 0..3 {
            h.start_service(tenant, tenant as u64, t(0), &st);
        }
        for tenant in 0..3 {
            h.finish(tenant, t(1));
        }
        assert_eq!(h.warm_pool_len(), 2, "pool capped");
        assert_eq!(h.resident_vms(), 2);
        // All warm VMs expire after the 60 s TTL.
        h.start_service(0, 0, t(120), &st);
        assert_eq!(h.warm_pool_len(), 0);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut h = small_host();
        let st = times(10);
        let (_, d1) = h.start_service(0, 0, t(0), &st);
        let (_, d2) = h.start_service(1, 1, t(0), &st);
        assert_eq!(h.busy_time(), d1 + d2);
    }
}
