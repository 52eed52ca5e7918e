//! The metric catalog — every name and unit the benchmark prints — and
//! the ledger that accumulates per-layer raw sums during a traced run.
//!
//! `BENCHMARK.json` lists the same names and units; the self-test checks
//! that the two never drift apart.

use std::collections::BTreeMap;

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// End-to-end metrics, printed with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_ref", "1/ref"),
    ("call_ref_p50", "ref"),
    ("peak_rss_mb", "MB"),
    ("sim_ms_mean", "ms"),
    ("sim_ms_p99", "ms"),
    ("fidelity_err_pct", "%"),
];

/// How a per-layer metric is derived from the ledger.
enum Rule {
    /// `sum(num) / sum(den) * scale`, 0 when the denominator is 0.
    Ratio(&'static str, &'static str, f64),
    /// The largest value recorded under the key.
    Max(&'static str),
    /// Traced over untraced median top-level round time, minus one, in %.
    Overhead,
}

use Rule::{Max, Overhead, Ratio};

const MB: f64 = 1.0 / (1024.0 * 1024.0);

/// Per-layer metrics, printed by a traced run: `(name, unit, rule)`. Host
/// times are shares (%) of the top-level calls' host time, so every
/// workload reports each share and a layer it does not call reads 0.
#[rustfmt::skip]
const PER_LAYER: [(&str, &str, Rule); 68] = [
    // Host time by layer, from the benchmark's spans.
    ("workloads.trace_pct", "%", Ratio("t.trace", "t.top", 100.0)),
    ("workloads.boot_image_pct", "%", Ratio("t.boot_image", "t.top", 100.0)),
    ("daemon.build_spec_self_pct", "%", Ratio("t.build_spec_self", "t.top", 100.0)),
    ("daemon.invoke_self_pct", "%", Ratio("t.invoke_self", "t.top", 100.0)),
    ("daemon.record_self_pct", "%", Ratio("t.record_self", "t.top", 100.0)),
    ("store.layout_pct", "%", Ratio("t.layout", "t.top", 100.0)),
    ("daemon.fork_pct", "%", Ratio("t.fork", "t.top", 100.0)),
    ("daemon.burst_pct", "%", Ratio("t.burst", "t.top", 100.0)),
    ("arrival.generate_pct", "%", Ratio("t.generate", "t.top", 100.0)),
    ("fleet.run_self_pct", "%", Ratio("t.run_self", "t.top", 100.0)),
    ("engine.host_ns_per_event", "ns", Ratio("t.engine", "engine.events", 1.0)),
    ("obs.trace_overhead_pct", "%", Overhead),
    // The discrete-event engine.
    ("engine.events_per_vm", "count", Ratio("engine.events", "vms", 1.0)),
    ("engine.events_per_request", "count", Ratio("engine.events", "requests", 1.0)),
    ("engine.peak_pending", "count", Max("engine.peak_pending")),
    // sim-mm fault resolution (self-profile counters).
    ("mm.resolve_calls_per_vm", "count", Ratio("mm.resolve_calls", "vms", 1.0)),
    ("mm.map_ops_per_vm", "count", Ratio("mm.map_ops", "vms", 1.0)),
    ("mm.io_planned_per_vm", "count", Ratio("mm.io_planned", "vms", 1.0)),
    ("mm.readahead_pages_per_vm", "count", Ratio("mm.readahead_pages", "vms", 1.0)),
    ("mm.wait_inflight_per_vm", "count", Ratio("mm.wait_inflight", "vms", 1.0)),
    // Guest faults by class (the artifact's pf/mpf/pftime probes).
    ("mm.pf_per_vm", "count", Ratio("mm.pf", "vms", 1.0)),
    ("mm.mpf_per_vm", "count", Ratio("mm.mpf", "vms", 1.0)),
    ("mm.uffd_per_vm", "count", Ratio("mm.uffd", "vms", 1.0)),
    ("mm.anon_per_vm", "count", Ratio("mm.anon", "vms", 1.0)),
    ("mm.slow_fault_frac", "ratio", Ratio("mm.slow_faults", "mm.timed_faults", 1.0)),
    ("vm.vcpublock_pct", "%", Ratio("sim.fault_wait", "sim.total", 100.0)),
    // sim-storage block requests (brq/bsize probes).
    ("storage.brq_per_vm", "count", Ratio("storage.requests", "vms", 1.0)),
    ("storage.bsize_mb_per_vm.fault", "MB", Ratio("storage.fault_bytes", "vms", MB)),
    ("storage.bsize_mb_per_vm.loader", "MB", Ratio("storage.loader_bytes", "vms", MB)),
    ("storage.bsize_mb_per_vm.reap", "MB", Ratio("storage.reap_bytes", "vms", MB)),
    ("storage.read_mb_per_vm.fork", "MB", Ratio("storage.bytes.fork", "vms.fork", MB)),
    ("storage.read_mb_per_vm.burst", "MB", Ratio("storage.bytes.burst", "vms.burst", MB)),
    // The loader and the restore runtime.
    ("loader.fetch_mb_per_vm", "MB", Ratio("loader.fetch_bytes", "vms", MB)),
    ("loader.fetch_pct", "%", Ratio("sim.fetch", "sim.total", 100.0)),
    ("runtime.setup_pct", "%", Ratio("sim.setup", "sim.total", 100.0)),
    ("runtime.mmap_calls_per_vm", "count", Ratio("runtime.mmap_calls", "vms", 1.0)),
    ("runtime.retries_per_faulted_vm", "count", Ratio("runtime.retries", "vms.faulted", 1.0)),
    ("runtime.backoff_pct", "%", Ratio("sim.backoff", "sim.total.faulted", 100.0)),
    // Guest memory.
    ("vm.resident_pages_per_vm", "count", Ratio("vm.resident_pages", "vms", 1.0)),
    ("vm.private_pages_per_sibling", "count", Ratio("vm.private_pages", "vms.fork", 1.0)),
    // Per restore strategy (restore runs all three; the others FaaSnap only).
    ("mm.mpf_per_vm.firecracker", "count", Ratio("mm.mpf.firecracker", "vms.firecracker", 1.0)),
    ("mm.mpf_per_vm.reap", "count", Ratio("mm.mpf.reap", "vms.reap", 1.0)),
    ("mm.mpf_per_vm.faasnap", "count", Ratio("mm.mpf.faasnap", "vms.faasnap", 1.0)),
    ("storage.brq_per_vm.firecracker", "count", Ratio("storage.requests.firecracker", "vms.firecracker", 1.0)),
    ("storage.brq_per_vm.reap", "count", Ratio("storage.requests.reap", "vms.reap", 1.0)),
    ("storage.brq_per_vm.faasnap", "count", Ratio("storage.requests.faasnap", "vms.faasnap", 1.0)),
    ("vm.vcpublock_pct.firecracker", "%", Ratio("sim.fault_wait.firecracker", "sim.total.firecracker", 100.0)),
    ("vm.vcpublock_pct.reap", "%", Ratio("sim.fault_wait.reap", "sim.total.reap", 100.0)),
    ("vm.vcpublock_pct.faasnap", "%", Ratio("sim.fault_wait.faasnap", "sim.total.faasnap", 100.0)),
    ("runtime.setup_pct.firecracker", "%", Ratio("sim.setup.firecracker", "sim.total.firecracker", 100.0)),
    ("runtime.setup_pct.reap", "%", Ratio("sim.setup.reap", "sim.total.reap", 100.0)),
    ("runtime.setup_pct.faasnap", "%", Ratio("sim.setup.faasnap", "sim.total.faasnap", 100.0)),
    // faasnap-store, on the record path and in the fleet registries.
    ("store.chunks_inserted_per_record", "count", Ratio("store.chunks_inserted", "records", 1.0)),
    ("store.map_ops_per_record", "count", Ratio("store.map_ops", "records", 1.0)),
    ("store.dedup_ratio", "ratio", Ratio("store.logical_bytes", "store.unique_bytes", 1.0)),
    ("store.unique_mb", "MB", Ratio("store.unique_bytes", "store.samples", MB)),
    ("store.chunks_inserted_per_request", "count", Ratio("store.chunks_inserted", "requests", 1.0)),
    ("store.map_ops_per_request", "count", Ratio("store.map_ops", "requests", 1.0)),
    ("store.snapshots_resident", "count", Ratio("store.snapshots_resident", "fleet.calls", 1.0)),
    // The fleet: router, host simulator, branching, SLO monitor.
    ("router.lookups_per_request", "count", Ratio("router.lookups", "requests", 1.0)),
    ("hostsim.warm_frac", "ratio", Ratio("hostsim.warm", "requests", 1.0)),
    ("hostsim.snapshot_hot_frac", "ratio", Ratio("hostsim.snapshot_hot", "requests", 1.0)),
    ("hostsim.snapshot_cold_frac", "ratio", Ratio("hostsim.snapshot_cold", "requests", 1.0)),
    ("hostsim.cold_frac", "ratio", Ratio("hostsim.cold", "requests", 1.0)),
    ("hostsim.shed_frac", "ratio", Ratio("hostsim.shed", "requests", 1.0)),
    ("hostsim.utilization", "ratio", Ratio("hostsim.utilization", "fleet.calls", 1.0)),
    ("fleet.branched_frac", "ratio", Ratio("fleet.branched", "requests", 1.0)),
    ("slo.alerts", "count", Ratio("slo.alerts", "fleet.calls", 1.0)),
];

/// Raw per-layer sums from the traced rounds of a run, plus every round's
/// top-level host time, traced or not, for the overhead figure.
#[derive(Debug, Default)]
pub struct Ledger {
    sums: BTreeMap<String, f64>,
    maxes: BTreeMap<String, f64>,
    traced_rounds_ns: Vec<f64>,
    untraced_rounds_ns: Vec<f64>,
}

impl Ledger {
    /// Adds `v` to the sum under `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.sums.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// Adds `v` under `key` and under `key.suffix`.
    pub fn add_split(&mut self, key: &str, suffix: &str, v: f64) {
        self.add(key, v);
        self.add(&format!("{key}.{suffix}"), v);
    }

    /// Keeps the largest value seen under `key`.
    pub fn max(&mut self, key: &str, v: f64) {
        let slot = self.maxes.entry(key.to_string()).or_insert(0.0);
        *slot = slot.max(v);
    }

    /// Records one round's top-level host time, traced or not.
    pub fn round(&mut self, traced: bool, top_ns: u64) {
        let rounds = if traced {
            &mut self.traced_rounds_ns
        } else {
            &mut self.untraced_rounds_ns
        };
        rounds.push(top_ns as f64);
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric, in catalog order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit, rule)| {
                let value = match rule {
                    Ratio(num, den, scale) => {
                        let d = self.sum(den);
                        if d == 0.0 {
                            0.0
                        } else {
                            self.sum(num) / d * scale
                        }
                    }
                    Max(key) => self.maxes.get(*key).copied().unwrap_or(0.0),
                    Overhead => {
                        let untraced = crate::measure::median(&self.untraced_rounds_ns);
                        if untraced == 0.0 {
                            0.0
                        } else {
                            (crate::measure::median(&self.traced_rounds_ns) / untraced - 1.0)
                                * 100.0
                        }
                    }
                };
                Metric { name, unit, value }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn ratios_default_to_zero() {
        let mut l = Ledger::default();
        l.add_split("vms", "faasnap", 2.0);
        l.add_split("mm.mpf", "faasnap", 10.0);
        l.max("engine.peak_pending", 3.0);
        l.max("engine.peak_pending", 1.0);
        let m = l.metrics();
        let get = |n: &str| m.iter().find(|x| x.name == n).map(|x| x.value);
        assert_eq!(get("mm.mpf_per_vm"), Some(5.0));
        assert_eq!(get("mm.mpf_per_vm.faasnap"), Some(5.0));
        assert_eq!(get("mm.mpf_per_vm.reap"), Some(0.0));
        assert_eq!(get("engine.peak_pending"), Some(3.0));
        assert_eq!(get("obs.trace_overhead_pct"), Some(0.0));
    }
}
