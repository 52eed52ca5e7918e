//! Quickstart: record a snapshot for a function, then invoke it under
//! vanilla Firecracker restore and under FaaSnap, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::platform::Platform;
use sim_storage::profiles::DiskProfile;

fn main() {
    // A platform on a simulated host with the paper's local NVMe SSD.
    let mut platform = Platform::new(DiskProfile::nvme_c5d(), 42);

    // Register the `image` function (FunctionBench JPEG rotation) and run
    // its record phase with input A: this restores a clean snapshot,
    // executes once while recording the working set via mincore scans,
    // sanitizes freed pages, and emits the warm snapshot, the loading-set
    // file, and REAP's working-set file.
    let image = faas_workloads::by_name("image").expect("catalog function");
    platform.register(image.clone());
    platform
        .record("image", "demo", &image.input_a())
        .expect("record phase");

    let artifacts = platform.registry().artifacts("image", "demo").unwrap();
    println!("record phase done:");
    println!(
        "  working set      : {} pages ({} groups)",
        artifacts.ws.len(),
        artifacts.ws.group_count()
    );
    println!(
        "  loading set      : {} regions, {} file pages ({} before merging)",
        artifacts.ls.region_count(),
        artifacts.ls.file_pages(),
        artifacts.ls.unmerged_region_count()
    );
    println!("  REAP working set : {} pages", artifacts.reap_ws.len());
    println!();

    // Test phase: invoke with input B (different, larger input — the
    // realistic case) under each strategy. Caches are dropped before each
    // run, as in the paper's methodology.
    for strategy in [
        RestoreStrategy::Vanilla,
        RestoreStrategy::Reap,
        RestoreStrategy::faasnap(),
        RestoreStrategy::Cached,
    ] {
        let out = platform
            .try_invoke("image", "demo", &image.input_b(), strategy)
            .expect("invoke");
        let r = &out.report;
        println!(
            "{:>12}: total {:>7.1} ms (setup {:>6.1} + invoke {:>6.1}) | faults: {:>5} anon, {:>5} minor, {:>5} major, {:>5} uffd",
            strategy.label(),
            r.total_time().as_millis_f64(),
            r.setup_time.as_millis_f64(),
            r.invocation_time.as_millis_f64(),
            r.anon_faults,
            r.minor_faults,
            r.major_faults,
            r.uffd_faults,
        );
    }
}
