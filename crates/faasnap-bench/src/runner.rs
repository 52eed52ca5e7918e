//! Shared experiment plumbing.

use faas_workloads::{Function, Input};
use faasnap::report::InvocationReport;
use faasnap::runtime::InvocationOutcome;
use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::metrics::MeasuredCell;
use faasnap_daemon::platform::Platform;
use sim_storage::profiles::DiskProfile;

/// Builds a platform with the given functions registered.
pub fn platform_with(profile: DiskProfile, seed: u64, functions: &[Function]) -> Platform {
    let mut p = Platform::new(profile, seed);
    for f in functions {
        p.register(f.clone());
    }
    p
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
            .try_invoke(name, label, input, strategy)
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
    p.try_invoke(name, label, input, strategy)
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
