//! The page-level model's error against the paper's own numbers.
//!
//! Every simulated latency the benchmark prints comes from models
//! calibrated against these cells, so each run states the calibration
//! error beside them. The calls are canonical: each function is recorded
//! with input A and tested with input B, as in the paper's protocol.

use faasnap_daemon::Platform;

use crate::measure::Digest;
use crate::page;

/// The functions behind claims C1a and C1b.
pub const FUNCTIONS: [&str; 5] = ["hello-world", "json", "image", "pagerank", "recognition"];

const MIB: f64 = 1024.0 * 1024.0;

/// One simulated value next to its paper reference.
struct Cell {
    sim: f64,
    paper: f64,
}

/// Mean absolute error in percent over the paper cells:
/// - Figure 7, hello-world end to end: Firecracker 189 ms, REAP 70 ms,
///   FaaSnap 70 ms;
/// - Table 3, image: fault waiting FaaSnap 109 ms and REAP 342 ms, fetched
///   bytes FaaSnap 88 MB and REAP 22 MB;
/// - C1a: Firecracker over FaaSnap, geometric mean over [`FUNCTIONS`], 2.0×;
/// - C1b: REAP over FaaSnap, same functions, 1.55×.
///
/// `p` must hold [`FUNCTIONS`] recorded by [`page::record_all`].
pub fn error_pct(p: &mut Platform, seed: u64, digest: &mut Digest) -> Result<f64, String> {
    // total[f][s]: end-to-end ms of function f under STRATEGIES[s].
    let mut total = [[0.0f64; 3]; FUNCTIONS.len()];
    let mut image_wait = [0.0f64; 3];
    let mut image_fetch = [0.0f64; 3];
    for (fi, name) in FUNCTIONS.iter().enumerate() {
        let input = page::input_b(p, name, seed, 0)?;
        for (si, (_, strategy)) in page::strategies().iter().enumerate() {
            let out = p
                .try_invoke(name, page::LABEL, &input, *strategy)
                .map_err(|e| format!("fidelity {name} {strategy}: {e}"))?;
            let r = &out.report;
            digest.add(out.final_memory.checksum());
            digest.add(r.total_time().as_nanos());
            total[fi][si] = r.total_time().as_millis_f64();
            if *name == "image" {
                image_wait[si] = r.fault_wait.as_millis_f64();
                image_fetch[si] = r.fetch_bytes() as f64 / MIB;
            }
        }
    }
    // Indices into `page::strategies()`.
    let (fc, reap, faasnap) = (0, 1, 2);
    let geomean = |num: usize| {
        let logs: f64 = total.iter().map(|t| (t[num] / t[faasnap]).ln()).sum();
        (logs / total.len() as f64).exp()
    };
    let hello = total[0];
    let cells = [
        Cell {
            sim: hello[fc],
            paper: 189.0,
        },
        Cell {
            sim: hello[reap],
            paper: 70.0,
        },
        Cell {
            sim: hello[faasnap],
            paper: 70.0,
        },
        Cell {
            sim: image_wait[faasnap],
            paper: 109.0,
        },
        Cell {
            sim: image_wait[reap],
            paper: 342.0,
        },
        Cell {
            sim: image_fetch[faasnap],
            paper: 88.0,
        },
        Cell {
            sim: image_fetch[reap],
            paper: 22.0,
        },
        Cell {
            sim: geomean(fc),
            paper: 2.0,
        },
        Cell {
            sim: geomean(reap),
            paper: 1.55,
        },
    ];
    let err = cells
        .iter()
        .map(|c| (c.sim - c.paper).abs() / c.paper * 100.0)
        .sum::<f64>()
        / cells.len() as f64;
    digest.add_f64(err);
    Ok(err)
}
