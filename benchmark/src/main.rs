//! Runs one benchmark workload and prints every metric with its name and
//! unit; the last line of standard output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Exits 1 when an output check failed and 2 when the run could not
//! complete (no result line then).

use std::process::ExitCode;

use faasnap_benchmark::{run, Opts, SETUP_REPS, WORKLOADS};

const USAGE: &str =
    "usage: faasnap-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        shrink: 1,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark {}: {e}", opts.workload);
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.traced)
    );
    println!(
        "rounds {} (first {} fixed), set-ups {SETUP_REPS}, calls {}, simulated samples {}",
        report.rounds.0, report.rounds.1, report.calls, report.sim_samples
    );
    println!(
        "attempted {} failed {} digest {:016x}",
        report.attempted, report.failed, report.digest
    );
    let reps: Vec<String> = report.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("set-ups: {} s", reps.join(" "));
    let h = report.host;
    println!(
        "raw host speed: {:.3} ops/s, call p50 {:.3} ms, reference job {:.3} ms (median of {})",
        h.ops_per_s, h.call_ms_p50, h.reference_ms, h.references
    );
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if opts.traced {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}.trace.json", opts.workload);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, faasnap_obs::chrome_trace_json(&report.spans)));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => {
                eprintln!("writing {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
