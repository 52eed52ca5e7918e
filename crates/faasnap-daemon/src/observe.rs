//! Traced invocations: one call that produces an outcome *plus* its
//! trace and metrics.
//!
//! This is the daemon-level entry point behind `faasnapd invoke
//! --trace-out`. It builds a fresh platform, records the snapshot
//! untraced (the record phase is setup, not the thing being observed),
//! then enables observability for exactly the measured restores — so the
//! trace starts at request arrival and the metrics cover only test-phase
//! work.

use faas_workloads::Input;
use faasnap::runtime::ForkOutcome;
use faasnap::strategy::RestoreStrategy;
use faasnap_obs::{Metrics, SelfProfile, Tracer};
use sim_storage::profiles::DiskProfile;

use crate::platform::Platform;

/// A fork outcome together with the observability it produced.
pub struct TraceRun {
    /// Per-sibling outcomes plus fork sharing accounting; one sibling is
    /// an ordinary test-phase invocation.
    pub fork: ForkOutcome,
    /// Spans covering the restores (platform → fork when n > 1 →
    /// per-sibling invocations → loader/function → per-fault),
    /// renderable via [`faasnap_obs::chrome_trace_json`] or
    /// [`faasnap_obs::render_text_tree`].
    pub tracer: Tracer,
    /// Metrics covering the restores (fault counts by class, prefetch
    /// traffic, fault-wait histogram, and `faasnap_fork_*` sharing
    /// counters when n > 1).
    pub metrics: Metrics,
    /// Engine self-profile covering the restores (event-loop, fault
    /// resolver, and store work counters; wall-ns under the `wallclock`
    /// feature, zero otherwise).
    pub selfprof: SelfProfile,
}

/// Records `function` with its input A under label `"cli"` on a fresh
/// host, then branches `n` fully traced concurrent restores of `input`
/// under `strategy` from that snapshot. `n = 1` is one test-phase
/// invocation.
pub fn traced_fork(
    function: &str,
    input: &Input,
    strategy: RestoreStrategy,
    profile: DiskProfile,
    seed: u64,
    n: usize,
) -> Result<TraceRun, String> {
    let mut platform = Platform::new(profile, seed);
    for f in faas_workloads::all_functions() {
        platform.register(f);
    }
    let input_a = platform
        .registry()
        .function(function)
        .ok_or_else(|| format!("unknown function {function}"))?
        .input_a();
    platform.record(function, "cli", &input_a)?;

    let tracer = Tracer::enabled();
    let metrics = Metrics::enabled();
    let selfprof = SelfProfile::enabled();
    platform.set_tracer(tracer.clone());
    platform.set_metrics(metrics.clone());
    platform.set_self_profile(selfprof.clone());
    let fork = platform.try_fork(function, "cli", input, strategy, n)?;
    Ok(TraceRun {
        fork,
        tracer,
        metrics,
        selfprof,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> TraceRun {
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
    fn trace_spans_cross_three_crates() {
        let tr = run();
        let names = tr.tracer.distinct_span_names();
        // Daemon layer, runtime layer, mm layer.
        assert!(names.contains(&"platform/invoke"), "names: {names:?}");
        assert!(names.contains(&"invocation"));
        assert!(names.contains(&"loader/prefetch"));
        assert!(names.iter().any(|n| n.starts_with("fault/")));
        assert!(
            names.len() >= 6,
            "only {} span names: {names:?}",
            names.len()
        );
    }

    #[test]
    fn metrics_cover_faults_and_prefetch() {
        let tr = run();
        let text = tr.metrics.render_prometheus();
        assert!(text.contains("faasnap_faults_total"));
        assert!(text.contains("faasnap_prefetch_bytes_total"));
        assert!(text.contains("faasnap_fault_wait_us_bucket"));
    }

    #[test]
    fn fault_span_count_matches_report() {
        let tr = run();
        let fault_spans = tr
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("fault/"))
            .count() as u64;
        assert_eq!(fault_spans, tr.fork.outcomes[0].report.total_faults());
    }
}
