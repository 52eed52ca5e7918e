//! Serving-mode policy: warm VMs vs. snapshots vs. cold starts (§7.1).
//!
//! "For the most frequent functions, keeping warm VMs alive and using warm
//! starts is the best choice. Snapshots are useful for less frequently
//! executed functions where keeping warm VMs has more overhead than
//! benefit. ... For very cold functions that are rarely invoked, snapshots
//! are likely not worth the storage and management costs."
//!
//! [`simulate_policy`] replays an invocation arrival sequence under a
//! keep-alive policy (à la AWS Lambda's 15–60-minute window, §2.1) and
//! accounts both latency (warm / snapshot-restore / cold per invocation)
//! and resource cost (memory-seconds of idle warm VMs, storage-seconds of
//! snapshot files), so the §7.1 crossovers can be computed instead of
//! argued.

use faas_workloads::Input;
use faasnap::strategy::RestoreStrategy;
use sim_core::time::{SimDuration, SimTime};

use crate::platform::Platform;

/// How one invocation was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServingMode {
    /// A live warm VM existed.
    Warm,
    /// Restored from a snapshot.
    Snapshot,
    /// Full cold start.
    Cold,
}

/// Per-mode invocation latencies (measure them with the platform; the
/// defaults below are the reproduction's `image` numbers).
#[derive(Clone, Copy, Debug)]
pub struct ModeLatencies {
    /// Warm-start latency.
    pub warm: SimDuration,
    /// Snapshot-restore latency (e.g. FaaSnap's).
    pub snapshot: SimDuration,
    /// Cold-start latency (boot + runtime init + run).
    pub cold: SimDuration,
}

impl Default for ModeLatencies {
    fn default() -> Self {
        ModeLatencies {
            warm: SimDuration::from_millis(37),
            snapshot: SimDuration::from_millis(112),
            cold: SimDuration::from_millis(2100),
        }
    }
}

impl ModeLatencies {
    /// Measures the three mode latencies for one function against the
    /// live platform, so policy analysis runs on that function's actual
    /// numbers instead of the `image` defaults. Records artifacts under
    /// `label` first if none exist (using the function's input A, per the
    /// standard record protocol); warm and snapshot latencies are each
    /// one test-phase invocation with `input`, and the cold latency is
    /// the host's boot-path cost plus the warm invocation.
    pub fn measure(
        p: &mut Platform,
        name: &str,
        label: &str,
        input: &Input,
    ) -> Result<ModeLatencies, String> {
        if p.registry().artifacts(name, label).is_none() {
            let rec = p
                .registry()
                .function(name)
                .ok_or_else(|| format!("unknown function {name}"))?
                .input_a();
            p.record(name, label, &rec)?;
        }
        let warm = p
            .try_invoke(name, label, input, RestoreStrategy::Warm)?
            .report
            .total_time();
        let snapshot = p
            .try_invoke(name, label, input, RestoreStrategy::faasnap())?
            .report
            .total_time();
        let cold = p.host().boot.cold_start() + warm;
        Ok(ModeLatencies {
            warm,
            snapshot,
            cold,
        })
    }
}

/// The provider's keep-alive / snapshot configuration.
#[derive(Clone, Copy, Debug)]
pub struct Policy {
    /// How long a VM stays warm after an invocation (None = never kept).
    pub warm_ttl: Option<SimDuration>,
    /// Whether a snapshot exists for the function.
    pub keep_snapshot: bool,
}

/// Resource prices: relative units are enough for crossover analysis.
#[derive(Clone, Copy, Debug)]
pub struct Costs {
    /// Cost of keeping one warm VM resident, per GB-second.
    pub memory_per_gb_s: f64,
    /// Cost of snapshot storage, per GB-second.
    pub storage_per_gb_s: f64,
    /// Warm VM memory footprint (GB).
    pub vm_memory_gb: f64,
    /// Snapshot file size (GB).
    pub snapshot_gb: f64,
}

impl Default for Costs {
    fn default() -> Self {
        // Memory ~50x more expensive than SSD storage per byte-second.
        Costs {
            memory_per_gb_s: 1.0,
            storage_per_gb_s: 0.02,
            vm_memory_gb: 2.0,
            snapshot_gb: 2.0,
        }
    }
}

/// Aggregate outcome of a policy over an arrival sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyOutcome {
    /// Invocations served per mode: (warm, snapshot, cold).
    pub served: (u64, u64, u64),
    /// Mean invocation latency.
    pub mean_latency: SimDuration,
    /// Total resource cost (idle memory + snapshot storage) in cost units.
    pub resource_cost: f64,
}

/// Replays invocations at the given arrival instants under `policy`.
pub fn simulate_policy(
    arrivals: &[SimTime],
    policy: Policy,
    latencies: ModeLatencies,
    costs: Costs,
) -> PolicyOutcome {
    assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrivals must be sorted"
    );
    let mut warm_until: Option<SimTime> = None;
    let mut served = (0u64, 0u64, 0u64);
    let mut total_latency = SimDuration::ZERO;
    let mut idle_memory_s = 0.0;
    let mut prev_arrival: Option<SimTime> = None;

    for &t in arrivals {
        let mode = match warm_until {
            Some(until) if t <= until => ServingMode::Warm,
            _ => {
                if policy.keep_snapshot {
                    ServingMode::Snapshot
                } else {
                    ServingMode::Cold
                }
            }
        };
        match mode {
            ServingMode::Warm => {
                served.0 += 1;
                total_latency += latencies.warm;
            }
            ServingMode::Snapshot => {
                served.1 += 1;
                total_latency += latencies.snapshot;
            }
            ServingMode::Cold => {
                served.2 += 1;
                total_latency += latencies.cold;
            }
        }
        // Idle memory actually consumed since the last invocation.
        if let (Some(until), Some(prev)) = (warm_until, prev_arrival) {
            let idle_end = until.min(t);
            if idle_end > prev {
                idle_memory_s += (idle_end - prev).as_secs_f64();
            }
        }
        prev_arrival = Some(t);
        warm_until = policy.warm_ttl.map(|ttl| t + ttl);
    }
    // Tail idle window after the last invocation.
    if let (Some(until), Some(&last)) = (warm_until, arrivals.last()) {
        idle_memory_s += (until - last).as_secs_f64();
    }

    let span = match (arrivals.first(), arrivals.last()) {
        (Some(&a), Some(&b)) => (b - a).as_secs_f64().max(1.0),
        _ => 0.0,
    };
    let storage_s = if policy.keep_snapshot { span } else { 0.0 };
    let n = arrivals.len().max(1) as u64;
    PolicyOutcome {
        served,
        mean_latency: total_latency / n,
        resource_cost: idle_memory_s * costs.memory_per_gb_s * costs.vm_memory_gb
            + storage_s * costs.storage_per_gb_s * costs.snapshot_gb,
    }
}

/// Picks the cheapest policy meeting a mean-latency target, among
/// {always-warm, snapshot-only, cold-only}, for a periodic arrival rate.
/// Returns the winning mode label — the §7.1 decision.
pub fn best_mode_for_period(
    period: SimDuration,
    horizon: SimDuration,
    warm_ttl: SimDuration,
    latencies: ModeLatencies,
    costs: Costs,
    latency_weight: f64,
) -> ServingMode {
    let n = (horizon.as_secs_f64() / period.as_secs_f64()).max(1.0) as u64;
    let arrivals: Vec<SimTime> = (0..n).map(|i| SimTime::ZERO + period * i).collect();
    let candidates = [
        (
            ServingMode::Warm,
            Policy {
                warm_ttl: Some(warm_ttl),
                keep_snapshot: true,
            },
        ),
        (
            ServingMode::Snapshot,
            Policy {
                warm_ttl: None,
                keep_snapshot: true,
            },
        ),
        (
            ServingMode::Cold,
            Policy {
                warm_ttl: None,
                keep_snapshot: false,
            },
        ),
    ];
    let mut best = (ServingMode::Cold, f64::INFINITY);
    for (mode, policy) in candidates {
        let out = simulate_policy(&arrivals, policy, latencies, costs);
        let score = out.resource_cost + latency_weight * out.mean_latency.as_secs_f64() * n as f64;
        if score < best.1 {
            best = (mode, score);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every(period_s: u64, n: u64) -> Vec<SimTime> {
        (0..n)
            .map(|i| SimTime::from_nanos(i * period_s * 1_000_000_000))
            .collect()
    }

    #[test]
    fn warm_ttl_serves_frequent_invocations_warm() {
        let arrivals = every(10, 100); // every 10 s
        let out = simulate_policy(
            &arrivals,
            Policy {
                warm_ttl: Some(SimDuration::from_secs(60)),
                keep_snapshot: true,
            },
            ModeLatencies::default(),
            Costs::default(),
        );
        assert_eq!(out.served.0, 99, "all but the first are warm");
        assert_eq!(out.served.1, 1);
        assert!(out.mean_latency < SimDuration::from_millis(50));
    }

    #[test]
    fn expired_ttl_falls_back_to_snapshot() {
        let arrivals = every(3600, 10); // hourly
        let out = simulate_policy(
            &arrivals,
            Policy {
                warm_ttl: Some(SimDuration::from_secs(60)),
                keep_snapshot: true,
            },
            ModeLatencies::default(),
            Costs::default(),
        );
        assert_eq!(out.served, (0, 10, 0));
    }

    #[test]
    fn no_snapshot_means_cold() {
        let arrivals = every(3600, 5);
        let out = simulate_policy(
            &arrivals,
            Policy {
                warm_ttl: None,
                keep_snapshot: false,
            },
            ModeLatencies::default(),
            Costs::default(),
        );
        assert_eq!(out.served, (0, 0, 5));
        assert_eq!(out.mean_latency, ModeLatencies::default().cold);
    }

    #[test]
    fn crossovers_follow_frequency() {
        // §7.1: frequent -> warm; infrequent -> snapshot; the latency
        // weight makes cold uncompetitive unless storage dominates.
        let l = ModeLatencies::default();
        let c = Costs::default();
        let horizon = SimDuration::from_secs(24 * 3600);
        let ttl = SimDuration::from_secs(600);
        let frequent = best_mode_for_period(SimDuration::from_secs(30), horizon, ttl, l, c, 1000.0);
        assert_eq!(frequent, ServingMode::Warm);
        let hourly = best_mode_for_period(SimDuration::from_secs(7200), horizon, ttl, l, c, 1000.0);
        assert_eq!(hourly, ServingMode::Snapshot);
        // With latency nearly free, storage cost pushes rare functions cold.
        let rare = best_mode_for_period(
            SimDuration::from_secs(23 * 3600),
            horizon,
            ttl,
            l,
            c,
            0.00001,
        );
        assert_eq!(rare, ServingMode::Cold);
    }

    #[test]
    fn resource_cost_scales_with_ttl() {
        let arrivals = every(120, 20);
        let short = simulate_policy(
            &arrivals,
            Policy {
                warm_ttl: Some(SimDuration::from_secs(10)),
                keep_snapshot: true,
            },
            ModeLatencies::default(),
            Costs::default(),
        );
        let long = simulate_policy(
            &arrivals,
            Policy {
                warm_ttl: Some(SimDuration::from_secs(130)),
                keep_snapshot: true,
            },
            ModeLatencies::default(),
            Costs::default(),
        );
        assert!(long.resource_cost > short.resource_cost);
        assert!(long.served.0 > short.served.0);
    }

    #[test]
    fn measured_latencies_order_sanely() {
        use sim_storage::profiles::DiskProfile;
        let mut p = Platform::new(DiskProfile::nvme_c5d(), 7);
        p.register(faas_workloads::by_name("hello-world").unwrap());
        let f = faas_workloads::by_name("hello-world").unwrap();
        let l = ModeLatencies::measure(&mut p, "hello-world", "m", &f.input_b()).unwrap();
        assert!(
            l.warm < l.snapshot,
            "warm {:?} < snapshot {:?}",
            l.warm,
            l.snapshot
        );
        assert!(
            l.snapshot < l.cold,
            "snapshot {:?} < cold {:?}",
            l.snapshot,
            l.cold
        );
        // Measuring records artifacts on demand.
        assert!(p.registry().artifacts("hello-world", "m").is_some());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_arrivals_panic() {
        let arrivals = vec![SimTime::from_nanos(5), SimTime::from_nanos(1)];
        simulate_policy(
            &arrivals,
            Policy {
                warm_ttl: None,
                keep_snapshot: true,
            },
            ModeLatencies::default(),
            Costs::default(),
        );
    }
}
