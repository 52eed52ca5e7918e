//! Cross-strategy restore correctness.
//!
//! The load-bearing invariant of the whole system (DESIGN.md): every
//! restore strategy must give the guest exactly the snapshot's bytes —
//! the strategies may only differ in *when and how* data moves, never in
//! what the guest observes. Since the runtime verifies each fault against
//! the mapping (offset preservation for the memory file, recorded layout
//! for the loading-set file, zero content for anonymous mappings), simply
//! completing a run under `verify_mappings` is already a strong check;
//! these tests additionally require the final guest memory to be
//! *identical* across all strategies.

use std::rc::Rc;

use faasnap::strategy::{FaasnapConfig, RestoreStrategy};
use faasnap_daemon::platform::Platform;
use faasnap_obs::{chrome_trace_json, Metrics, Tracer};
use sim_storage::profiles::DiskProfile;

/// Every strategy plus the full Figure 9 ablation lattice: all valid
/// [`FaasnapConfig`] combinations (4 feature rungs × hierarchical
/// mmap on/off), so byte-identity is pinned for each ablation the
/// paper measures, not only the presets.
fn all_strategies() -> Vec<RestoreStrategy> {
    let mut v = vec![
        RestoreStrategy::Warm,
        RestoreStrategy::Vanilla,
        RestoreStrategy::Cached,
        RestoreStrategy::Reap,
    ];
    v.extend(
        FaasnapConfig::lattice()
            .into_iter()
            .map(RestoreStrategy::FaaSnap),
    );
    v
}

fn final_checksums(name: &str, test_b: bool) -> Vec<(String, u64)> {
    let mut p = Platform::new(DiskProfile::nvme_c5d(), 0xC0FFEE);
    let f = faas_workloads::by_name(name).unwrap();
    p.register(f.clone());
    p.record(name, "t", &f.input_a()).unwrap();
    let input = if test_b { f.input_b() } else { f.input_a() };
    all_strategies()
        .into_iter()
        .map(|s| {
            let out = p.try_invoke(name, "t", &input, s).unwrap();
            (format!("{s:?}"), out.final_memory.checksum())
        })
        .collect()
}

#[test]
fn json_final_memory_identical_across_strategies() {
    let sums = final_checksums("json", true);
    let first = sums[0].1;
    for (label, sum) in &sums {
        assert_eq!(*sum, first, "{label} diverged from Warm");
    }
}

#[test]
fn image_final_memory_identical_across_strategies() {
    let sums = final_checksums("image", true);
    let first = sums[0].1;
    for (label, sum) in &sums {
        assert_eq!(*sum, first, "{label} diverged from Warm");
    }
}

#[test]
fn hello_world_same_input_identical() {
    let sums = final_checksums("hello-world", false);
    let first = sums[0].1;
    for (label, sum) in &sums {
        assert_eq!(*sum, first, "{label} diverged");
    }
}

#[test]
fn faasnap_mapping_verification_active() {
    // verify_mappings is on for every non-warm strategy; a FaaSnap run
    // over a function with anonymous, cold, and loading-set populations
    // exercises all three verification arms without panicking.
    let mut p = Platform::new(DiskProfile::nvme_c5d(), 0xC0FFEE);
    let f = faas_workloads::by_name("chameleon").unwrap();
    p.register(f.clone());
    p.record("chameleon", "t", &f.input_a()).unwrap();
    let out = p
        .try_invoke("chameleon", "t", &f.input_b(), RestoreStrategy::faasnap())
        .unwrap();
    assert!(out.report.anon_faults > 0, "anonymous arm exercised");
    assert!(
        out.report.minor_faults + out.report.major_faults > 0,
        "file arms exercised"
    );
    assert!(!out.report.degraded);
}

/// Verification checks the fault planner's own resolution of each
/// fault, not only faults the planner left unresolved. A FaaSnap
/// restore whose non-zero-region scan is stale (here: taken before the
/// guest wrote anything) maps every page outside the loading set
/// anonymously, and the first fault on one that holds snapshot data
/// must stop the run.
#[test]
#[should_panic(expected = "mapped anonymously but snapshot content is non-zero")]
fn faasnap_stale_scan_fails_mapping_verification() {
    let mut p = Platform::new(DiskProfile::nvme_c5d(), 0xC0FFEE);
    let f = faas_workloads::by_name("json").unwrap();
    p.register(f.clone());
    p.record("json", "t", &f.input_a()).unwrap();
    let mut spec = p
        .build_spec("json", "t", &f.input_b(), RestoreStrategy::faasnap())
        .unwrap();
    spec.nonzero_regions = Rc::default();
    let _ = faasnap::runtime::run(p.host_mut(), vec![spec]);
}

#[test]
fn writes_overwrite_snapshot_state() {
    // A page written by the test invocation must hold the new token, not
    // the snapshot's, under every strategy.
    let mut p = Platform::new(DiskProfile::nvme_c5d(), 0xC0FFEE);
    let f = faas_workloads::by_name("json").unwrap();
    p.register(f.clone());
    p.record("json", "t", &f.input_a()).unwrap();
    let snapshot_sum = p
        .registry()
        .artifacts("json", "t")
        .unwrap()
        .snapshot
        .memory()
        .checksum();
    for s in all_strategies() {
        let out = p.try_invoke("json", "t", &f.input_b(), s).unwrap();
        assert_ne!(
            out.final_memory.checksum(),
            snapshot_sum,
            "{}: invocation must mutate guest memory",
            s.label()
        );
    }
}

/// One fully observed restore on a fresh platform, driven straight
/// through the runtime: the Chrome trace, the Prometheus snapshot, and
/// the final guest-memory checksum. `fork_path` runs the spec as a
/// one-sibling `runtime::fork` instead of a one-spec `runtime::run`.
fn traced_artifacts(fork_path: bool, strategy: RestoreStrategy) -> (String, String, u64) {
    let mut p = Platform::new(DiskProfile::nvme_c5d(), 0xC0FFEE);
    let f = faas_workloads::by_name("json").unwrap();
    p.register(f.clone());
    p.record("json", "t", &f.input_a()).unwrap();
    let spec = p.build_spec("json", "t", &f.input_b(), strategy).unwrap();
    let tracer = Tracer::enabled();
    let metrics = Metrics::enabled();
    p.set_tracer(tracer.clone());
    p.set_metrics(metrics.clone());
    let host = p.host_mut();
    host.drop_caches();
    let checksum = if fork_path {
        let out = faasnap::runtime::fork(host, spec, 1).unwrap();
        out.outcomes[0].final_memory.checksum()
    } else {
        let out = faasnap::runtime::run(host, vec![spec]).unwrap();
        out[0].final_memory.checksum()
    };
    (
        chrome_trace_json(&tracer),
        metrics.render_prometheus(),
        checksum,
    )
}

#[test]
fn fork_of_one_is_byte_identical_to_independent_restore() {
    // The differential fork harness at its base case, at the runtime
    // boundary (the platform has one restore path above it): branching
    // one sibling must be indistinguishable — trace, metrics, and guest
    // memory, byte for byte — from not branching at all, under every
    // strategy including the full ablation lattice.
    for s in all_strategies() {
        let solo = traced_artifacts(false, s);
        let fork = traced_artifacts(true, s);
        assert_eq!(solo.0, fork.0, "{}: trace diverged", s.label());
        assert_eq!(solo.1, fork.1, "{}: metrics diverged", s.label());
        assert_eq!(solo.2, fork.2, "{}: final memory diverged", s.label());
    }
}
