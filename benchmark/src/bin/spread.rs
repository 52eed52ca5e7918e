//! Runs benchmark workloads repeatedly in alternating order and prints,
//! per workload and end-to-end metric, the median, the quartiles and the
//! spread — the quartile distance as a share of the median — next to the
//! bound `BENCHMARK.json` fixes.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml --bin spread -- \
//!     [--runs N] [--seed S | --vary-seed] [--seconds S] [--workload W]... \
//!     [--bin PATH [--bin PATH]]
//! ```
//!
//! With two `--bin` paths (say, builds of a parent and a change) every
//! run executes both, alternating which goes first, and the report adds
//! the change's median shift and how many pairs it won.

use std::path::PathBuf;
use std::process::Command;

use faasnap_benchmark::WORKLOADS;
use sim_core::json::{self, Value};

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (d[j as usize - 1] * (4.0 - delta) + d[j as usize] * delta) / 4.0;
    }
    out
}

/// Median as Python's `statistics.median`.
fn median(values: &[f64]) -> f64 {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n % 2 == 1 {
        d[n / 2]
    } else {
        (d[n / 2 - 1] + d[n / 2]) / 2.0
    }
}

struct Args {
    runs: usize,
    seed: u64,
    vary_seed: bool,
    seconds: String,
    workloads: Vec<String>,
    bins: Vec<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        runs: 5,
        seed: 42,
        vary_seed: false,
        seconds: "15".into(),
        workloads: Vec::new(),
        bins: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--runs" => a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--vary-seed" => a.vary_seed = true,
            "--seconds" => a.seconds = value()?,
            "--workload" => a.workloads.push(value()?),
            "--bin" => a.bins.push(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.runs < 2 {
        return Err("--runs must be at least 2 for quartiles".into());
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if a.bins.is_empty() {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        a.bins.push(exe.with_file_name("faasnap-benchmark"));
    }
    if a.bins.len() > 2 {
        return Err("at most two --bin paths (parent and change)".into());
    }
    Ok(a)
}

/// Runs one workload once and returns its result line's metrics.
fn run_once(bin: &PathBuf, workload: &str, seed: u64, seconds: &str) -> Result<Value, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", seconds, "--trace", "0"])
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload} seed {seed}: outputs incorrect: {last}"));
    }
    result
        .get("metrics")
        .cloned()
        .ok_or_else(|| format!("{workload}: result has no metrics"))
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err(format!("malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("spread: {e}");
        std::process::exit(2);
    }
}

fn real_main() -> Result<(), String> {
    let a = parse()?;
    let bounds = bounds()?;
    // values[workload][side][metric] = one value per run.
    let mut values = vec![vec![vec![Vec::new(); bounds.len()]; a.bins.len()]; a.workloads.len()];
    for run in 0..a.runs {
        let seed = if a.vary_seed {
            a.seed + run as u64
        } else {
            a.seed
        };
        let mut order: Vec<usize> = (0..a.workloads.len()).collect();
        let mut sides: Vec<usize> = (0..a.bins.len()).collect();
        if run % 2 == 1 {
            order.reverse();
            sides.reverse();
        }
        for &w in &order {
            for &side in &sides {
                let metrics = run_once(&a.bins[side], &a.workloads[w], seed, &a.seconds)?;
                for (mi, (name, _)) in bounds.iter().enumerate() {
                    let v = metrics
                        .get(name)
                        .and_then(|m| m.get("value"))
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{} printed no {name}", a.workloads[w]))?;
                    values[w][side][mi].push(v);
                }
                eprintln!(
                    "run {} of {}: {} side {side} done",
                    run + 1,
                    a.runs,
                    a.workloads[w]
                );
            }
        }
    }
    println!(
        "{} runs per workload, seed {}{}, {} s each",
        a.runs,
        a.seed,
        if a.vary_seed { " upward" } else { "" },
        a.seconds
    );
    for (w, name) in a.workloads.iter().enumerate() {
        println!("\n{name}");
        println!(
            "  {:<18} {:>6} {:>14} {:>14} {:>14} {:>8} {:>7}",
            "metric", "side", "median", "q1", "q3", "spread", "bound"
        );
        for (mi, (metric, bound)) in bounds.iter().enumerate() {
            for (side, per_metric) in values[w].iter().enumerate() {
                let v = &per_metric[mi];
                let q = quartiles(v);
                let med = median(v);
                let spread = if med == 0.0 { 0.0 } else { (q[2] - q[0]) / med };
                println!(
                    "  {metric:<18} {side:>6} {med:>14.6} {:>14.6} {:>14.6} {spread:>8.4} {bound:>7.3}{}",
                    q[0],
                    q[2],
                    if spread * 3.0 > *bound { "  wide" } else { "" }
                );
            }
            if a.bins.len() == 2 {
                let (p, c) = (&values[w][0][mi], &values[w][1][mi]);
                let shift = median(c) / median(p) - 1.0;
                println!(
                    "  {metric:<18} change median {:+.2}% vs side 0; change read higher in {} of {} pairs",
                    shift * 100.0,
                    p.iter().zip(c).filter(|(x, y)| y > x).count(),
                    p.len()
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
