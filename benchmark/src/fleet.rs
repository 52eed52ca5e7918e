//! The fleet workloads: `fleet_locality` and `fleet_churn`. One round is
//! one `run_cluster` call on a freshly seeded arrival stream. Inside the
//! simulation arrivals are open-loop, and each request's latency runs
//! from its arrival time.

use faasnap_cluster::{run_cluster, ClusterConfig, RoutePolicy, WorkloadSpec};
use faasnap_obs::{SelfProfile, TraceContext};
use sim_core::time::SimDuration;

use crate::measure::Digest;
use crate::page::derive;
use crate::{Cx, Workload};

/// Store chunk size of both fleets. The default 2 MiB makes the chunk
/// tables of a thousand-host fleet hold 400+ MB; 8 MiB keeps each run
/// near 250 MB and leaves the serve-mode mix unchanged.
const CHUNK_BYTES: u64 = 8 << 20;

/// A fleet workload; `CHURN` picks the population.
///
/// - `false` (`fleet_locality`): the trace-scale `mega` fleet — 1,000
///   hosts, 4,000 Zipf-1.2 tenants at 4,000 req/s over 300 s — with
///   snapshot branching on. Nearly every request is a warm hit.
/// - `true` (`fleet_churn`): 100 hosts and a flat population of 20,000
///   Zipf-0.8 tenants at 1,000 req/s over 120 s. The population far
///   exceeds the warm pools and snapshot registries, so two in five
///   requests restore from disk or boot cold and the registries churn.
pub struct Fleet<const CHURN: bool> {
    cfg: ClusterConfig,
    seed: u64,
}

impl<const CHURN: bool> Fleet<CHURN> {
    fn config(shrink: u32) -> ClusterConfig {
        let mut cfg = ClusterConfig::mega(RoutePolicy::SnapshotLocality, 0);
        cfg.host.store.chunk_bytes = CHUNK_BYTES;
        if CHURN {
            cfg.hosts = 100;
            let workloads = ["hello-world", "json", "compression", "image"];
            cfg.workload = WorkloadSpec::zipf(20_000, &workloads, 1_000.0, 0.8);
            cfg.horizon = SimDuration::from_secs(120);
        } else {
            cfg.host.branch = true;
        }
        cfg.horizon = SimDuration::from_nanos(cfg.horizon.as_nanos() / u64::from(shrink));
        cfg
    }
}

fn fold(digest: &mut Digest, m: &faasnap_cluster::FleetMetrics) {
    digest.add(m.total_served());
    digest.add(m.total_shed());
    m.mode_mix().iter().for_each(|&c| digest.add(c));
    digest.add_f64(m.latency_ms.mean());
    digest.add_f64(m.p(99.0));
    digest.add(m.store_unique_total());
    digest.add(m.snapshots_resident_total());
    digest.add(m.fork_branched);
}

impl<const CHURN: bool> Workload for Fleet<CHURN> {
    const MIN_ROUNDS: usize = 5;

    fn setup(seed: u64, shrink: u32, digest: &mut Digest) -> Result<Self, String> {
        let cfg = Self::config(shrink);
        // A short warm-up run pays the heap's first touch here, so the
        // timed calls see the steady state.
        let mut warm = cfg.clone();
        warm.seed = derive(seed, 0xF1EE, u64::MAX);
        warm.horizon = SimDuration::from_nanos(cfg.horizon.as_nanos() / 10);
        fold(digest, &run_cluster(&warm));
        Ok(Fleet { cfg, seed })
    }

    fn round(&mut self, r: usize, cx: &mut Cx) -> Result<(), String> {
        let seed = derive(self.seed, 0xF1EE, r as u64);
        self.cfg.seed = seed;
        let prof = if cx.traced {
            SelfProfile::enabled()
        } else {
            SelfProfile::disabled()
        };
        self.cfg.selfprof = prof.clone();
        let req = cx.request();
        let (cfg, spans, traced) = (&self.cfg, &cx.spans, cx.traced);
        let ((generated, (m, call_ns)), _, _) =
            spans.time_ctx("request", TraceContext::NONE, req, |ctx| {
                // Traced rounds time arrival generation on its own, for
                // run_cluster's self time.
                let generated = traced.then(|| {
                    spans.time("arrival.generate", ctx, req, || {
                        cfg.workload.generate(seed, cfg.horizon).len()
                    })
                });
                (
                    generated,
                    spans.time("fleet.run_cluster", ctx, req, || run_cluster(cfg)),
                )
            });
        cx.call(0, call_ns);
        // Untimed on untraced rounds: every generated request is served
        // or shed, and none is shed.
        let (arrivals, gen_ns) =
            generated.unwrap_or_else(|| (cfg.workload.generate(seed, cfg.horizon).len(), 0));
        let arrivals = arrivals as u64;
        let (served, shed) = (m.total_served(), m.total_shed());
        cx.ops(
            arrivals,
            if served + shed == arrivals {
                shed
            } else {
                arrivals
            },
        );
        cx.sim_fleet(m.latency_ms.mean() * served as f64, served, m.p(99.0));
        let mut d = Digest::default();
        fold(&mut d, &m);
        cx.digest(d.value());
        if traced {
            let l = &mut cx.ledger;
            let self_ns = call_ns.saturating_sub(gen_ns) as f64;
            l.add("t.generate", gen_ns as f64);
            l.add("t.run_self", self_ns);
            l.add("t.engine", self_ns);
            l.add("requests", arrivals as f64);
            l.add("fleet.calls", 1.0);
            for (counter, key) in [
                ("engine/delivered", "engine.events"),
                ("router/lookups", "router.lookups"),
                ("store/chunks_inserted", "store.chunks_inserted"),
                ("store/map_ops", "store.map_ops"),
            ] {
                l.add(key, prof.counter(counter) as f64);
            }
            l.max(
                "engine.peak_pending",
                prof.counter("engine/peak_pending") as f64,
            );
            let mix = m.mode_mix();
            for (key, count) in [
                ("hostsim.warm", mix[0]),
                ("hostsim.snapshot_hot", mix[1]),
                ("hostsim.snapshot_cold", mix[2]),
                ("hostsim.cold", mix[3]),
                ("hostsim.shed", shed),
                ("fleet.branched", m.fork_branched),
                ("store.snapshots_resident", m.snapshots_resident_total()),
            ] {
                l.add(key, count as f64);
            }
            l.add("hostsim.utilization", m.mean_utilization());
            let alerts = m
                .slo
                .as_ref()
                .and_then(|s| s.get("alerts"))
                .and_then(|a| a.as_array())
                .map_or(0, <[_]>::len);
            l.add("slo.alerts", alerts as f64);
        }
        Ok(())
    }
}
