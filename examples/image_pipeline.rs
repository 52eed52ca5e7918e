//! A multimedia FaaS scenario: an image-processing API backend whose
//! inputs vary wildly between requests (the paper's motivating case for
//! working-set drift, §3.1/§6.3).
//!
//! Records with a small input, then serves a stream of requests whose
//! sizes range from 1/4× to 4× the recorded input, comparing how each
//! restore strategy holds up — the Figure 8 story as an application.
//!
//! ```sh
//! cargo run --release --example image_pipeline
//! ```

use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::metrics::TextTable;
use faasnap_daemon::platform::Platform;
use sim_storage::profiles::DiskProfile;

fn main() {
    let mut platform = Platform::new(DiskProfile::nvme_c5d(), 7);
    let image = faas_workloads::by_name("image").expect("catalog function");
    platform.register(image.clone());
    platform
        .record("image", "api", &image.input_a())
        .expect("record");

    let mut table = TextTable::new(
        "image API: per-request latency (ms) vs request size",
        &[
            "request size",
            "Firecracker",
            "REAP",
            "FaaSnap",
            "slowdown FaaSnap/warm",
        ],
    );

    // A request stream: sizes drawn from a realistic spread.
    let request_sizes = [0.25, 0.5, 1.0, 2.0, 3.0, 4.0];
    for (i, &ratio) in request_sizes.iter().enumerate() {
        let input = image.input_scaled(ratio, 0x1000 + i as u64);
        let mut cells = Vec::new();
        for strategy in [
            RestoreStrategy::Vanilla,
            RestoreStrategy::Reap,
            RestoreStrategy::faasnap(),
        ] {
            let out = platform
                .try_invoke("image", "api", &input, strategy)
                .expect("invoke");
            cells.push(out.report.total_time().as_millis_f64());
        }
        let warm = platform
            .try_invoke("image", "api", &input, RestoreStrategy::Warm)
            .expect("invoke")
            .report
            .total_time()
            .as_millis_f64();
        table.row(vec![
            format!("{ratio}x"),
            format!("{:.1}", cells[0]),
            format!("{:.1}", cells[1]),
            format!("{:.1}", cells[2]),
            format!("{:.2}", cells[2] / warm),
        ]);
    }
    println!("{table}");
    println!(
        "FaaSnap keeps cold-start latency close to a warm VM across the whole\n\
         size range, while REAP degrades as requests diverge from the recorded\n\
         working set (compare the REAP and FaaSnap columns at 2x-4x)."
    );
}
