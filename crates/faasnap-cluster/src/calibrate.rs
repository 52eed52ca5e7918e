//! Calibrating fleet [`ServiceTimes`] against the real platform.
//!
//! The fleet model does not re-simulate every page fault of every
//! invocation — that is what the single-host simulator is for. Instead,
//! each base workload is measured **once** on a detailed
//! [`faasnap_daemon::platform::Platform`] (record phase, then warm /
//! FaaSnap-restore / cached-restore invocations and the boot-path cold
//! cost via [`ModeLatencies::measure`]), and the fleet replays millions
//! of arrivals against those calibrated constants plus the hosts'
//! queueing, warm-pool, and snapshot-registry state.

use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::platform::Platform;
use faasnap_daemon::policy::ModeLatencies;
use sim_storage::profiles::DiskProfile;

use crate::hostsim::ServiceTimes;

/// Bytes per simulated page.
const PAGE_BYTES: u64 = 4096;

/// Measures [`ServiceTimes`] for `name` on platform `p`, recording
/// artifacts under `label` if needed. The hot-restore latency is measured
/// directly with the `Cached` strategy (memory file page-cache resident),
/// and the byte footprints come from the recorded artifacts.
pub fn service_times_for(
    p: &mut Platform,
    name: &str,
    label: &str,
) -> Result<ServiceTimes, String> {
    let input = p
        .registry()
        .function(name)
        .ok_or_else(|| format!("unknown function {name}"))?
        .input_b();
    let l = ModeLatencies::measure(p, name, label, &input)?;
    let snap_hot = p
        .try_invoke(name, label, &input, RestoreStrategy::Cached)?
        .report
        .total_time();
    let art = p
        .registry()
        .artifacts(name, label)
        .ok_or_else(|| format!("{name}: artifacts vanished after measure"))?;
    Ok(ServiceTimes {
        warm: l.warm,
        // A cache-hot restore can in principle measure faster than warm
        // on tiny functions; keep the mode ordering monotone.
        snap_hot: snap_hot.max(l.warm),
        snap_cold: l.snapshot.max(snap_hot),
        cold: l.cold,
        snapshot_bytes: art.snapshot.total_pages() * PAGE_BYTES,
        loading_set_bytes: art.ls.file_pages() * PAGE_BYTES,
    })
}

/// Calibrates every named workload on one fresh platform, returning the
/// `(workload, times)` table [`crate::fleet::ClusterConfig`] consumes.
pub fn calibrate_workloads(
    names: &[&str],
    seed: u64,
) -> Result<Vec<(String, ServiceTimes)>, String> {
    let mut p = Platform::new(DiskProfile::nvme_c5d(), seed);
    let mut out = Vec::with_capacity(names.len());
    for name in names {
        let f = faas_workloads::by_name(name).ok_or_else(|| format!("unknown function {name}"))?;
        p.register(f);
        let times = service_times_for(&mut p, name, "fleet")?;
        out.push((name.to_string(), times));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_times_are_ordered_and_sized() {
        let table = calibrate_workloads(&["hello-world"], 7).unwrap();
        assert_eq!(table.len(), 1);
        let t = table[0].1;
        assert!(
            t.warm <= t.snap_hot,
            "warm {:?} <= hot {:?}",
            t.warm,
            t.snap_hot
        );
        assert!(
            t.snap_hot <= t.snap_cold,
            "hot {:?} <= cold-restore {:?}",
            t.snap_hot,
            t.snap_cold
        );
        assert!(
            t.snap_cold < t.cold,
            "restore {:?} < boot {:?}",
            t.snap_cold,
            t.cold
        );
        assert!(t.snapshot_bytes > 0);
        assert!(t.loading_set_bytes > 0);
        assert!(t.loading_set_bytes <= t.snapshot_bytes);
    }

    #[test]
    fn calibration_is_deterministic() {
        let a = calibrate_workloads(&["hello-world", "json"], 7).unwrap();
        let b = calibrate_workloads(&["hello-world", "json"], 7).unwrap();
        assert_eq!(a, b);
    }
}
