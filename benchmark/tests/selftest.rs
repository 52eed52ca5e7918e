//! Every workload, shrunk 50×, runs twice with no failed operation and
//! identical digests and simulated metrics; a traced run gives the same
//! digest; and the printed names and units are exactly the ones
//! `BENCHMARK.json` lists, so the file and the binary cannot drift.

use faasnap_benchmark::{run, Opts, Report, WORKLOADS};
use sim_core::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(section: &str, key: &str) -> Vec<String> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            m.get(key)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        })
        .collect()
}

fn printed(r: &Report) -> (Vec<String>, Vec<String>) {
    r.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .unzip()
}

fn shrunk(workload: &str, traced: bool) -> Report {
    run(&Opts {
        workload: workload.to_string(),
        seed: 42,
        seconds: 0.0,
        traced,
        shrink: 50,
    })
    .unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn check(workload: &str) {
    let a = shrunk(workload, false);
    let b = shrunk(workload, false);
    let t = shrunk(workload, true);
    for r in [&a, &b, &t] {
        assert!(r.attempted > 0, "{workload} attempted nothing");
        assert_eq!(r.failed, 0, "{workload} had failed operations");
    }
    assert_eq!(a.digest, b.digest, "{workload} is not deterministic");
    assert_eq!(
        a.digest, t.digest,
        "{workload}: tracing changed the outputs"
    );
    let sim = |r: &Report| -> Vec<f64> {
        r.metrics
            .iter()
            .filter(|m| m.name.starts_with("sim_") || m.name == "fidelity_err_pct")
            .map(|m| m.value)
            .collect()
    };
    assert_eq!(sim(&a), sim(&b), "{workload}: simulated metrics differ");
    assert!(
        a.metrics.iter().all(|m| m.value != 0.0),
        "{workload}: an end-to-end metric is 0"
    );
    assert_eq!(
        printed(&a),
        (listed("end_to_end", "name"), listed("end_to_end", "unit")),
        "{workload}: end-to-end metrics differ from BENCHMARK.json"
    );
    assert_eq!(
        printed(&t),
        (listed("per_layer", "name"), listed("per_layer", "unit")),
        "{workload}: per-layer metrics differ from BENCHMARK.json"
    );
}

#[test]
fn workloads_match_benchmark_json() {
    assert_eq!(listed("workloads", "name"), WORKLOADS);
}

#[test]
fn restore() {
    check("restore");
}

#[test]
fn record() {
    check("record");
}

#[test]
fn fanout() {
    check("fanout");
}

#[test]
fn fleet_locality() {
    check("fleet_locality");
}

#[test]
fn fleet_churn() {
    check("fleet_churn");
}
