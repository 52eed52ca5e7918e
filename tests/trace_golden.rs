//! Golden tests for the observability layer: the Chrome trace, text
//! tree, and Prometheus snapshots produced by the CLI's exact code
//! paths are pinned byte-for-byte.
//!
//! The goldens live in `tests/golden/`. After an intentional change to
//! the span taxonomy or metric set, regenerate them with
//! `FAASNAP_BLESS=1 cargo test --test trace_golden` and review the diff
//! like any other code change.

use std::sync::OnceLock;

use faasnap::strategy::RestoreStrategy;
use faasnap_cluster::{run_cluster, ClusterConfig, RoutePolicy};
use faasnap_daemon::observe::traced_fork;
use faasnap_obs::{
    chrome_trace_json, folded_stacks, render_phase_table, render_text_tree, Metrics, Tracer,
};
use proptest::prelude::*;
use sim_storage::profiles::DiskProfile;

/// Compares `actual` against the golden at `rel` (repo-relative),
/// rewriting it instead when `FAASNAP_BLESS` is set.
fn check_golden(rel: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("FAASNAP_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("writing {rel}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {rel}: {e}\nregenerate with FAASNAP_BLESS=1 cargo test")
    });
    assert_eq!(
        expected, actual,
        "{rel} drifted; regenerate with FAASNAP_BLESS=1 and review the diff"
    );
}

/// One traced hello-world invocation with the CLI's exact parameters
/// (`faasnapd invoke hello-world`): input B, FaaSnap strategy, NVMe
/// profile, seed 0xFA5D. Rendered once and shared across tests.
fn cli_artifacts() -> &'static (String, String, String) {
    static RUN: OnceLock<(String, String, String)> = OnceLock::new();
    RUN.get_or_init(|| {
        let run = invoke_once();
        (
            chrome_trace_json(&run.tracer),
            render_text_tree(&run.tracer),
            run.metrics.render_prometheus(),
        )
    })
}

fn invoke_once() -> faasnap_daemon::observe::TraceRun {
    let f = faas_workloads::by_name("hello-world").unwrap();
    traced_fork(
        "hello-world",
        &f.input_b(),
        RestoreStrategy::faasnap(),
        DiskProfile::nvme_c5d(),
        0xFA5D,
        1,
    )
    .unwrap()
}

#[test]
fn invoke_trace_matches_golden_and_is_valid() {
    let (json, _, _) = cli_artifacts();
    // Structurally a Chrome trace: top-level displayTimeUnit +
    // traceEvents, first event the process-name metadata record.
    let doc = sim_core::json::parse(json).expect("trace must parse as JSON");
    assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(events.len() > 10, "only {} trace events", events.len());
    assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));

    // The span taxonomy crosses at least three layers of the stack:
    // daemon (platform/*), runtime (vm/loader), memory manager (mm +
    // fault/*) — and covers at least six distinct span names.
    let mut names = Vec::new();
    let mut cats = Vec::new();
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        let name = e.get("name").unwrap().as_str().unwrap().to_string();
        let cat = e.get("cat").unwrap().as_str().unwrap().to_string();
        if !names.contains(&name) {
            names.push(name);
        }
        if !cats.contains(&cat) {
            cats.push(cat);
        }
    }
    assert!(
        names.len() >= 6,
        "only {} span names: {names:?}",
        names.len()
    );
    assert!(
        cats.len() >= 3,
        "only {} span categories: {cats:?}",
        cats.len()
    );

    check_golden("tests/golden/invoke_trace.json", json);
}

#[test]
fn invoke_trace_byte_identical_across_runs() {
    let (json, _, _) = cli_artifacts();
    let again = chrome_trace_json(&invoke_once().tracer);
    assert_eq!(*json, again, "same seed must give byte-identical traces");
}

#[test]
fn invoke_text_tree_matches_golden() {
    let (_, text, _) = cli_artifacts();
    assert!(text.contains("platform/invoke"));
    assert!(text.contains("loader/prefetch"));
    check_golden("tests/golden/invoke_trace.txt", text);
}

#[test]
fn invoke_metrics_match_golden() {
    let (_, _, prom) = cli_artifacts();
    assert!(prom.contains("# TYPE faasnap_faults_total counter"));
    assert!(prom.contains("faasnap_prefetch_bytes_total"));
    assert!(prom.contains("faasnap_fault_wait_us_bucket"));
    check_golden("tests/golden/invoke_metrics.prom", prom);
}

/// The folded flamegraph stacks `faasnapd invoke hello-world
/// --profile-out` writes: collapse format, one `stack self-ns` line,
/// lexicographically sorted — loadable in speedscope/inferno as-is.
#[test]
fn invoke_folded_stacks_match_golden() {
    let run = invoke_once();
    let folded = folded_stacks(&run.tracer);
    for line in folded.lines() {
        let (stack, ns) = line.rsplit_once(' ').expect("stack <self-ns>");
        assert!(!stack.is_empty());
        assert!(ns.parse::<u64>().is_ok(), "bad self-ns in {line:?}");
    }
    // Every phase the profiler attributes must come from a real span;
    // restore + prefetch + faults all show up for the FaaSnap strategy.
    assert!(folded.contains(";setup "));
    assert!(folded.contains("loader/prefetch;loader/chunk "));
    assert!(folded.contains(";fault/minor "));
    check_golden("tests/golden/invoke_profile.folded", &folded);
}

/// The per-phase self/total table printed alongside `--profile-out`.
#[test]
fn invoke_phase_table_matches_golden() {
    let run = invoke_once();
    let table = render_phase_table(&run.tracer);
    assert!(table.contains("restore"));
    assert!(table.contains("guest-fault-wait"));
    assert!(table.contains("loader-prefetch"));
    assert!(table.contains("compute"));
    check_golden("tests/golden/invoke_phases.txt", &table);
}

/// The engine self-profile report `--self-profile-out` writes. The
/// counters are pure functions of the simulated run; wall-ns reads zero
/// in default builds (the `wallclock` feature is off), so the report is
/// golden-pinnable.
#[test]
#[cfg_attr(feature = "obs-wallclock", ignore = "wall-ns nonzero under wallclock")]
fn invoke_self_profile_matches_golden() {
    let run = invoke_once();
    let report = run.selfprof.render_report();
    assert!(report.contains("engine/delivered"));
    assert!(report.contains("mm/resolve_calls"));
    assert!(report.contains("mm/map_ops"));
    check_golden("tests/golden/invoke_selfprof.txt", &report);
}

fn smoke_metrics(seed: u64) -> (String, String) {
    let mut cfg = ClusterConfig::smoke(RoutePolicy::SnapshotLocality, seed);
    cfg.obs = Metrics::enabled();
    cfg.tracer = Tracer::enabled();
    run_cluster(&cfg);
    (cfg.obs.render_prometheus(), chrome_trace_json(&cfg.tracer))
}

#[test]
fn cluster_metrics_match_golden() {
    let (prom, _) = smoke_metrics(42);
    assert!(prom.contains("fleet_requests_total"));
    assert!(prom.contains("fleet_latency_ms_bucket"));
    assert!(prom.contains("fleet_store_unique_bytes"));
    assert!(prom.contains("fleet_store_dedup_ratio"));
    check_golden("tests/golden/cluster_metrics.prom", &prom);
}

/// The fleet JSON document for the smoke config — byte-for-byte what
/// `faasnapd cluster --smoke --policy snapshot-locality --seed 42`
/// prints to stdout, including the snapshot-store dedup metrics.
#[test]
fn cluster_fleet_json_matches_golden() {
    let cfg = ClusterConfig::smoke(RoutePolicy::SnapshotLocality, 42);
    let m = run_cluster(&cfg);
    let doc = sim_core::json::Value::object()
        .with("runs", sim_core::json::Value::Array(vec![m.to_json()]));
    let mut out = doc.to_string_pretty();
    out.push('\n');
    assert!(out.contains("\"store\""));
    assert!(out.contains("\"dedup_ratio\""));
    assert!(out.contains("\"snapshots_resident\""));
    check_golden("tests/golden/cluster_fleet.json", &out);
}

proptest! {
    /// Fleet observability is a pure function of the seed: metrics and
    /// trace bytes replay exactly.
    #[test]
    fn cluster_observability_deterministic(seed in 0u64..10_000) {
        let (prom_a, trace_a) = smoke_metrics(seed);
        let (prom_b, trace_b) = smoke_metrics(seed);
        prop_assert_eq!(prom_a, prom_b);
        prop_assert_eq!(trace_a, trace_b);
    }
}
