//! The fleet's event queue holds only in-flight work. Arrivals stream
//! into the engine from the sorted trace instead of being scheduled for
//! the whole horizon up front, so the queue peaks at the fleet's service
//! slots, not at the arrival count.

use faasnap_cluster::{run_cluster, ClusterConfig, RoutePolicy, WorkloadSpec};
use faasnap_obs::SelfProfile;

/// Runs `cfg` self-profiled and checks the engine's queue accounting.
/// Returns `(arrivals, shed)`.
fn assert_queue_holds_only_in_service_work(mut cfg: ClusterConfig) -> (u64, u64) {
    let prof = SelfProfile::enabled();
    cfg.selfprof = prof.clone();
    let arrivals = cfg.workload.generate(cfg.seed, cfg.horizon).len() as u64;
    let m = run_cluster(&cfg);
    let (served, shed) = (m.total_served(), m.total_shed());
    assert_eq!(served + shed, arrivals);
    // Only a started invocation holds a pending event (its completion).
    let slots = cfg.hosts as u64 * u64::from(cfg.host.slots);
    let peak = prof.counter("engine/peak_pending");
    assert!(
        peak <= slots,
        "peak pending {peak} > {slots} service slots ({arrivals} arrivals)"
    );
    // One event per arrival plus one completion per served request.
    assert_eq!(prof.counter("engine/delivered"), arrivals + served);
    assert_eq!(prof.counter("engine/scheduled"), arrivals + served);
    (arrivals, shed)
}

#[test]
fn smoke_fleet_queue_peaks_below_service_slots() {
    let (arrivals, shed) = assert_queue_holds_only_in_service_work(ClusterConfig::smoke(
        RoutePolicy::SnapshotLocality,
        42,
    ));
    assert!(arrivals > 100, "{arrivals} arrivals");
    assert_eq!(shed, 0);
}

#[test]
fn queueing_fleet_queue_peaks_below_service_slots() {
    // Two slots per host and a short queue under a heavier stream: some
    // requests wait in host queues and some are shed, and neither holds
    // a pending event.
    let mut cfg = ClusterConfig::smoke(RoutePolicy::LeastLoaded, 7);
    cfg.host.slots = 2;
    cfg.host.queue_cap = 2;
    cfg.workload = WorkloadSpec::zipf(6, &["hello-world", "json"], 40.0, 1.0);
    let (arrivals, shed) = assert_queue_holds_only_in_service_work(cfg);
    assert!(shed > 0 && shed < arrivals, "{shed} of {arrivals} shed");
}
