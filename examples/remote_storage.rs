//! Disaggregated-storage deployment (the §6.7 scenario): snapshots live
//! on remote block storage (EBS) instead of a local NVMe SSD, plus the
//! §7.2 tiered layout (small loading-set file local, big memory file
//! remote).
//!
//! ```sh
//! cargo run --release --example remote_storage
//! ```

use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::metrics::TextTable;
use faasnap_daemon::platform::Platform;
use sim_storage::profiles::DiskProfile;

fn run_platform(profile: DiskProfile, name: &str) -> Vec<f64> {
    let mut platform = Platform::new(profile, 1234);
    let f = faas_workloads::by_name(name).expect("catalog");
    platform.register(f.clone());
    platform.record(name, "r", &f.input_a()).expect("record");
    [
        RestoreStrategy::Vanilla,
        RestoreStrategy::Reap,
        RestoreStrategy::faasnap(),
    ]
    .into_iter()
    .map(|s| {
        platform
            .try_invoke(name, "r", &f.input_b(), s)
            .expect("invoke")
            .report
            .total_time()
            .as_millis_f64()
    })
    .collect()
}

fn main() {
    let functions = ["hello-world", "json", "image", "pagerank"];

    let mut table = TextTable::new(
        "snapshot restore latency (ms): local NVMe vs remote EBS",
        &[
            "function",
            "FC nvme",
            "FC ebs",
            "REAP ebs",
            "FaaSnap ebs",
            "FaaSnap vs FC (ebs)",
        ],
    );
    for name in functions {
        let nvme = run_platform(DiskProfile::nvme_c5d(), name);
        let ebs = run_platform(DiskProfile::ebs_io2(), name);
        table.row(vec![
            name.into(),
            format!("{:.0}", nvme[0]),
            format!("{:.0}", ebs[0]),
            format!("{:.0}", ebs[1]),
            format!("{:.0}", ebs[2]),
            format!("{:.2}x", ebs[0] / ebs[2]),
        ]);
    }
    println!("{table}");

    // Tiered layout (§7.2): loading-set file on local SSD, memory file on
    // EBS — "storing relatively small loading set files on local SSD and
    // larger memory files on remote storage".
    let mut platform = Platform::new(DiskProfile::nvme_c5d(), 1234);
    let f = faas_workloads::by_name("image").expect("catalog");
    platform.register(f.clone());
    platform
        .record("image", "tier", &f.input_a())
        .expect("record");
    let ebs = platform.host_mut().add_device(DiskProfile::ebs_io2());
    let mem_file = platform
        .registry()
        .artifacts("image", "tier")
        .unwrap()
        .snapshot
        .mem_file();
    platform.host_mut().fs.set_device(mem_file, ebs);
    let tiered = platform
        .try_invoke("image", "tier", &f.input_b(), RestoreStrategy::faasnap())
        .expect("invoke")
        .report
        .total_time()
        .as_millis_f64();
    println!(
        "tiered layout (image): loading set on NVMe + memory file on EBS -> {tiered:.0} ms\n\
         (remote capacity at near-local latency for the hot path)"
    );
}
