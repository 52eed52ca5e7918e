//! Fleet SLO metrics: latency percentiles, serving-mode mix, shedding,
//! utilization — serialized deterministically to JSON.
//!
//! Numbers a provider would page on: per-function and fleet-wide
//! p50/p95/p99 of end-to-end latency (queueing included), how
//! invocations were served (warm / hot snapshot / cold snapshot / cold
//! boot), how many requests were shed by backpressure, and how busy each
//! host's slots were. Serialization goes through [`sim_core::json`],
//! whose object writer preserves insertion order, so two runs with the
//! same seed produce byte-identical documents (a property the tests pin).

use sim_core::json::Value;
use sim_core::stats::Summary;
use sim_core::time::SimDuration;

use crate::arrival::TenantId;
use crate::hostsim::ServeMode;

/// Per-tenant serving statistics.
#[derive(Clone, Debug, Default)]
pub struct TenantMetrics {
    /// Tenant display name.
    pub name: String,
    /// Base workload the tenant runs.
    pub workload: String,
    /// Invocations served per mode: warm, hot snapshot, cold snapshot,
    /// cold boot.
    pub served: [u64; 4],
    /// Requests shed for this tenant.
    pub shed: u64,
    /// End-to-end latency samples (ms), queueing included.
    pub latency_ms: Summary,
}

impl TenantMetrics {
    /// Total served invocations.
    pub fn total_served(&self) -> u64 {
        self.served.iter().sum()
    }
}

/// Whole-fleet metrics for one simulated run.
#[derive(Clone, Debug)]
pub struct FleetMetrics {
    /// Routing policy label.
    pub policy: String,
    /// Seed the run used.
    pub seed: u64,
    /// Number of hosts.
    pub hosts: usize,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Per-tenant stats, indexed by [`TenantId`].
    pub tenants: Vec<TenantMetrics>,
    /// Fleet-wide latency samples (ms).
    pub latency_ms: Summary,
    /// Per-host cumulative busy time.
    pub host_busy: Vec<SimDuration>,
    /// Per-host slot counts (denominator for utilization).
    pub host_slots: Vec<u32>,
    /// Disk-touching restores that hit an injected storage fault (only
    /// non-zero when a fault profile is armed).
    pub storage_faults: u64,
    /// Faulted restores that additionally degraded to demand paging.
    pub degraded_restores: u64,
    /// Per-host unique (deduplicated) snapshot-store bytes at end of run.
    pub store_unique_bytes: Vec<u64>,
    /// Per-host logical (pre-dedup) snapshot bytes at end of run.
    pub store_logical_bytes: Vec<u64>,
    /// Per-host count of resident (restorable) snapshots at end of run.
    pub snapshots_resident: Vec<u64>,
    /// Invocations served by branching off an in-flight same-family
    /// restore (snapshot branching; 0 unless branch mode is on).
    pub fork_branched: u64,
    /// Loading-set bytes branched serves avoided re-reading from disk.
    pub fork_saved_bytes: u64,
    /// Burn-rate SLO alert log, present only when a rule fired during
    /// the run — healthy runs serialize without an `slo` key, keeping
    /// their documents byte-identical to monitor-free builds.
    pub slo: Option<Value>,
}

impl FleetMetrics {
    /// Creates an empty collector.
    pub fn new(
        policy: &str,
        seed: u64,
        hosts: usize,
        horizon: SimDuration,
        tenants: Vec<(String, String)>,
    ) -> Self {
        FleetMetrics {
            policy: policy.to_string(),
            seed,
            hosts,
            horizon,
            tenants: tenants
                .into_iter()
                .map(|(name, workload)| TenantMetrics {
                    name,
                    workload,
                    ..TenantMetrics::default()
                })
                .collect(),
            latency_ms: Summary::new(),
            host_busy: vec![SimDuration::ZERO; hosts],
            host_slots: vec![0; hosts],
            storage_faults: 0,
            degraded_restores: 0,
            store_unique_bytes: vec![0; hosts],
            store_logical_bytes: vec![0; hosts],
            snapshots_resident: vec![0; hosts],
            fork_branched: 0,
            fork_saved_bytes: 0,
            slo: None,
        }
    }

    /// Records one completed invocation.
    pub fn record(&mut self, tenant: TenantId, mode: ServeMode, latency: SimDuration) {
        let t = &mut self.tenants[tenant];
        let slot = match mode {
            ServeMode::Warm => 0,
            ServeMode::SnapshotHot => 1,
            ServeMode::SnapshotCold => 2,
            ServeMode::Cold => 3,
        };
        t.served[slot] += 1;
        t.latency_ms.record_ms(latency);
        self.latency_ms.record_ms(latency);
    }

    /// Records one shed request.
    pub fn record_shed(&mut self, tenant: TenantId) {
        self.tenants[tenant].shed += 1;
    }

    /// Total invocations served.
    pub fn total_served(&self) -> u64 {
        self.tenants.iter().map(TenantMetrics::total_served).sum()
    }

    /// Total requests shed.
    pub fn total_shed(&self) -> u64 {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    /// Fleet-wide latency percentile in milliseconds.
    pub fn p(&self, pct: f64) -> f64 {
        self.latency_ms.percentile(pct)
    }

    /// Fleet-wide serving-mode counts (warm, snap-hot, snap-cold, cold).
    pub fn mode_mix(&self) -> [u64; 4] {
        let mut mix = [0u64; 4];
        for t in &self.tenants {
            for (m, c) in mix.iter_mut().zip(t.served) {
                *m += c;
            }
        }
        mix
    }

    /// Fleet-wide unique (deduplicated) snapshot-store bytes.
    pub fn store_unique_total(&self) -> u64 {
        self.store_unique_bytes.iter().sum()
    }

    /// Fleet-wide logical (pre-dedup) snapshot bytes.
    pub fn store_logical_total(&self) -> u64 {
        self.store_logical_bytes.iter().sum()
    }

    /// Fleet-wide dedup ratio: logical over unique bytes. Empty stores
    /// read 0.0 — a sentinel no populated fleet can produce (dedup of
    /// real bytes is always ≥ 1.0), so dashboards can tell "no data"
    /// from "no dedup" without a NaN/inf guard.
    pub fn store_dedup_ratio(&self) -> f64 {
        let unique = self.store_unique_total();
        if unique == 0 {
            0.0
        } else {
            self.store_logical_total() as f64 / unique as f64
        }
    }

    /// Fleet-wide count of resident (restorable) snapshots.
    pub fn snapshots_resident_total(&self) -> u64 {
        self.snapshots_resident.iter().sum()
    }

    /// Resident snapshots per GiB of unique store bytes — the capacity
    /// headline: how many functions stay restorable per gigabyte a host
    /// actually spends.
    pub fn snapshots_per_gb(&self) -> f64 {
        let unique = self.store_unique_total();
        if unique == 0 {
            0.0
        } else {
            self.snapshots_resident_total() as f64 / (unique as f64 / (1u64 << 30) as f64)
        }
    }

    /// Mean slot utilization across hosts in `[0, 1]`.
    pub fn mean_utilization(&self) -> f64 {
        if self.hosts == 0 || self.horizon.is_zero() {
            return 0.0;
        }
        let span = self.horizon.as_secs_f64();
        let total: f64 = self
            .host_busy
            .iter()
            .zip(&self.host_slots)
            .map(|(busy, &slots)| {
                if slots == 0 {
                    0.0
                } else {
                    (busy.as_secs_f64() / (span * slots as f64)).min(1.0)
                }
            })
            .sum();
        total / self.hosts as f64
    }

    /// The full metrics document. Object keys are emitted in a fixed
    /// order and tenants in index order, so equal runs serialize
    /// byte-identically.
    pub fn to_json(&self) -> Value {
        let mix = self.mode_mix();
        let fleet = Value::object()
            .with("served", self.total_served())
            .with("shed", self.total_shed())
            .with("p50_ms", round3(self.latency_ms.p50()))
            .with("p95_ms", round3(self.latency_ms.p95()))
            .with("p99_ms", round3(self.latency_ms.p99()))
            .with("mean_ms", round3(self.latency_ms.mean()))
            .with(
                "mode_mix",
                Value::object()
                    .with("warm", mix[0])
                    .with("snapshot_hot", mix[1])
                    .with("snapshot_cold", mix[2])
                    .with("cold", mix[3]),
            )
            .with("mean_utilization", round3(self.mean_utilization()))
            .with("storage_faults", self.storage_faults)
            .with("degraded_restores", self.degraded_restores)
            .with(
                "store",
                Value::object()
                    .with("unique_bytes", self.store_unique_total())
                    .with("logical_bytes", self.store_logical_total())
                    .with("dedup_ratio", round3(self.store_dedup_ratio()))
                    .with("snapshots_resident", self.snapshots_resident_total())
                    .with("snapshots_per_gb", round3(self.snapshots_per_gb())),
            );
        let tenants: Vec<Value> = self
            .tenants
            .iter()
            .filter(|t| t.total_served() > 0 || t.shed > 0)
            .map(|t| {
                Value::object()
                    .with("name", t.name.as_str())
                    .with("workload", t.workload.as_str())
                    .with("served", t.total_served())
                    .with("shed", t.shed)
                    .with("warm", t.served[0])
                    .with("snapshot_hot", t.served[1])
                    .with("snapshot_cold", t.served[2])
                    .with("cold", t.served[3])
                    .with("p50_ms", round3(t.latency_ms.p50()))
                    .with("p99_ms", round3(t.latency_ms.p99()))
            })
            .collect();
        let hosts: Vec<Value> = self
            .host_busy
            .iter()
            .zip(&self.host_slots)
            .enumerate()
            .map(|(i, (busy, &slots))| {
                let util = if slots == 0 || self.horizon.is_zero() {
                    0.0
                } else {
                    (busy.as_secs_f64() / (self.horizon.as_secs_f64() * slots as f64)).min(1.0)
                };
                Value::object()
                    .with("busy_s", round3(busy.as_secs_f64()))
                    .with("slots", u64::from(slots))
                    .with("utilization", round3(util))
                    .with("store_unique_bytes", self.store_unique_bytes[i])
                    .with("store_logical_bytes", self.store_logical_bytes[i])
                    .with("snapshots_resident", self.snapshots_resident[i])
            })
            .collect();
        let mut root = Value::object()
            .with("policy", self.policy.as_str())
            .with("seed", self.seed)
            .with("hosts", self.hosts)
            .with("horizon_s", round3(self.horizon.as_secs_f64()))
            .with("fleet", fleet)
            .with("tenants", Value::Array(tenants))
            .with("per_host", Value::Array(hosts));
        // Like `slo`, the fork section appears only when branching
        // actually happened, so branch-free runs stay byte-identical.
        if self.fork_branched > 0 {
            root = root.with(
                "fork",
                Value::object()
                    .with("branched", self.fork_branched)
                    .with("saved_disk_bytes", self.fork_saved_bytes),
            );
        }
        if let Some(slo) = &self.slo {
            root = root.with("slo", slo.clone());
        }
        root
    }
}

/// Rounds to 3 decimals so tiny float noise cannot leak into the JSON
/// (the values themselves are already deterministic; this keeps the
/// documents readable).
fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> FleetMetrics {
        FleetMetrics::new(
            "random",
            7,
            2,
            SimDuration::from_secs(100),
            vec![
                ("t00-json".into(), "json".into()),
                ("t01-hello".into(), "hello-world".into()),
            ],
        )
    }

    #[test]
    fn records_and_aggregates() {
        let mut m = metrics();
        m.record(0, ServeMode::Warm, SimDuration::from_millis(40));
        m.record(0, ServeMode::SnapshotCold, SimDuration::from_millis(120));
        m.record(1, ServeMode::Cold, SimDuration::from_millis(2000));
        m.record_shed(1);
        assert_eq!(m.total_served(), 3);
        assert_eq!(m.total_shed(), 1);
        assert_eq!(m.mode_mix(), [1, 0, 1, 1]);
        assert!(m.p(99.0) >= m.p(50.0));
    }

    #[test]
    fn json_shape_and_determinism() {
        let build = || {
            let mut m = metrics();
            m.host_slots = vec![4, 4];
            m.host_busy = vec![SimDuration::from_secs(40), SimDuration::from_secs(10)];
            m.record(0, ServeMode::Warm, SimDuration::from_millis(40));
            m.record(1, ServeMode::Cold, SimDuration::from_millis(2000));
            m.to_json().to_string_pretty()
        };
        let a = build();
        assert_eq!(a, build(), "byte-identical across builds");
        let v = sim_core::json::parse(&a).unwrap();
        assert_eq!(v.get("policy").unwrap().as_str(), Some("random"));
        assert_eq!(
            v.get("fleet").unwrap().get("served").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(v.get("tenants").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("per_host").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn utilization_bounds() {
        let mut m = metrics();
        m.host_slots = vec![2, 2];
        m.host_busy = vec![SimDuration::from_secs(100), SimDuration::from_secs(400)];
        let u = m.mean_utilization();
        // Host 0: 100/(100*2) = 0.5; host 1 clamps to 1.0 → mean 0.75.
        assert!((u - 0.75).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn idle_tenants_omitted_from_json() {
        let m = metrics();
        let v = m.to_json();
        assert_eq!(v.get("tenants").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn empty_store_dedup_ratio_reads_zero() {
        let m = metrics();
        assert_eq!(m.store_dedup_ratio(), 0.0);
        assert_eq!(m.snapshots_per_gb(), 0.0);
        let v = m.to_json();
        let store = v.get("fleet").unwrap().get("store").unwrap();
        assert_eq!(store.get("dedup_ratio").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn fork_section_only_present_when_branching_happened() {
        let mut m = metrics();
        assert!(m.to_json().get("fork").is_none());
        m.fork_branched = 3;
        m.fork_saved_bytes = 30;
        let v = m.to_json();
        let fork = v.get("fork").unwrap();
        assert_eq!(fork.get("branched").unwrap().as_u64(), Some(3));
        assert_eq!(fork.get("saved_disk_bytes").unwrap().as_u64(), Some(30));
    }

    #[test]
    fn slo_section_only_present_when_alerts_fired() {
        let mut m = metrics();
        assert!(m.to_json().get("slo").is_none());
        m.slo = Some(Value::object().with("alerts", Value::Array(Vec::new())));
        assert!(m.to_json().get("slo").is_some());
    }
}
