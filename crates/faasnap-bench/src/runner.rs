//! Shared experiment plumbing.

use faas_workloads::{Function, Input};
use faasnap::report::InvocationReport;
use faasnap::runtime::InvocationOutcome;
use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::metrics::MeasuredCell;
use faasnap_daemon::platform::Platform;
use faasnap_obs::{chrome_trace_json, Metrics, Tracer};
use sim_storage::profiles::DiskProfile;

/// Builds a platform with the given functions registered. When the
/// `FAASNAP_OBS_DIR` environment variable is set, an enabled tracer and
/// metrics registry are attached so drivers can dump their artifacts via
/// [`dump_observability`]; otherwise observability stays disabled
/// (zero cost).
pub fn platform_with(profile: DiskProfile, seed: u64, functions: &[Function]) -> Platform {
    let mut p = Platform::new(profile, seed);
    for f in functions {
        p.register(f.clone());
    }
    // faasnap-lint: allow(no-env-read, FAASNAP_OBS_DIR toggles side-artifact dumping only; figure and table output is identical either way)
    if std::env::var_os("FAASNAP_OBS_DIR").is_some() {
        p.set_tracer(Tracer::enabled());
        p.set_metrics(Metrics::enabled());
    }
    p
}

/// Writes the platform's collected trace (`<tag>.trace.json`, Chrome
/// trace-event format) and metrics (`<tag>.prom`, Prometheus text
/// exposition) under `$FAASNAP_OBS_DIR`. No-op unless that variable is
/// set and the platform was built with observability attached.
pub fn dump_observability(p: &Platform, tag: &str) {
    // faasnap-lint: allow(no-env-read, FAASNAP_OBS_DIR names where side artifacts land; absent means skip, golden outputs unaffected)
    let Some(dir) = std::env::var_os("FAASNAP_OBS_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    if p.tracer().is_enabled() {
        let path = dir.join(format!("{tag}.trace.json"));
        std::fs::write(&path, chrome_trace_json(p.tracer()))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
    if p.metrics().is_enabled() {
        let path = dir.join(format!("{tag}.prom"));
        std::fs::write(&path, p.metrics().render_prometheus())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
}

/// Ensures artifacts for `(function, label)` exist, recording with
/// `record_input` if not.
pub fn ensure_recorded(p: &mut Platform, name: &str, label: &str, record_input: &Input) {
    if p.registry().artifacts(name, label).is_none() {
        p.record(name, label, record_input)
            .unwrap_or_else(|e| panic!("record {name}: {e}"));
    }
}

/// Runs `reps` test-phase invocations and aggregates total time.
pub fn measure_total(
    p: &mut Platform,
    name: &str,
    label: &str,
    input: &Input,
    strategy: RestoreStrategy,
    reps: u32,
) -> MeasuredCell {
    let mut cell = MeasuredCell::new();
    for _ in 0..reps {
        let out = p
            .invoke(name, label, input, strategy)
            .unwrap_or_else(|e| panic!("invoke {name}: {e}"));
        cell.record(out.report.total_time());
    }
    cell
}

/// Runs one test-phase invocation and returns the full outcome.
pub fn run_once(
    p: &mut Platform,
    name: &str,
    label: &str,
    input: &Input,
    strategy: RestoreStrategy,
) -> InvocationOutcome {
    p.invoke(name, label, input, strategy)
        .unwrap_or_else(|e| panic!("invoke {name}: {e}"))
}

/// Formats an [`InvocationReport`] one-liner for debugging output.
pub fn report_line(r: &InvocationReport) -> String {
    format!(
        "total {:.1}ms (setup {:.1} + invoke {:.1}) faults: {} anon / {} minor / {} major / {} pte / {} uffd; fetch {:.1}ms {} pages",
        r.total_time().as_millis_f64(),
        r.setup_time.as_millis_f64(),
        r.invocation_time.as_millis_f64(),
        r.anon_faults,
        r.minor_faults,
        r.major_faults,
        r.host_pte_faults,
        r.uffd_faults,
        r.fetch_time.as_millis_f64(),
        r.fetch_pages,
    )
}
