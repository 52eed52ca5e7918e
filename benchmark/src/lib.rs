//! The repository benchmark: simulator speed, memory and modeled latency
//! of the FaaSnap reproduction, end to end and per layer.
//!
//! A run sets its workload up [`SETUP_REPS`] times, then repeats rounds
//! of public calls as a closed loop with one client on one thread until
//! the time budget is spent and at least the workload's minimum rounds
//! ran. The minimum rounds form a fixed window: their simulated outputs
//! are the digest and the simulated metrics, so both are a pure function
//! of the seed. Host speed covers every round and is stated relative to
//! a reference job timed in the same loop (see [`measure::Reference`]).
//!
//! A traced run alternates traced and untraced rounds. Traced rounds
//! attach the simulator's self-profile, time public sub-calls on the same
//! inputs and record spans; the untraced rounds between them give the
//! tracing overhead. See `README.md` for the workloads and metrics.

pub mod fidelity;
pub mod fleet;
pub mod measure;
pub mod metrics;
pub mod page;

use std::time::Instant;

use faasnap_obs::Tracer;
use sim_core::json::Value;

use measure::{median, percentile, Digest, Reference, Spans};
use metrics::{Ledger, Metric, END_TO_END};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "restore",
    "record",
    "fanout",
    "fleet_locality",
    "fleet_churn",
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What one run does.
#[derive(Clone, Debug)]
pub struct Opts {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every input and host.
    pub seed: u64,
    /// Host time budget of the loop, in seconds.
    pub seconds: f64,
    /// Print per-layer metrics from a traced run instead of end-to-end ones.
    pub traced: bool,
    /// Divides the fixed work (minimum rounds and fleet horizons). Real
    /// runs use 1; the self-test shrinks every workload.
    pub shrink: u32,
}

/// What one run measured.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted: invocations, record+restore pairs, sibling
    /// VMs or fleet requests.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// FNV digest of every simulated output of set-up, the fixed window of
    /// rounds and the fidelity calls.
    pub digest: u64,
    /// End-to-end metrics, or per-layer ones on a traced run.
    pub metrics: Vec<Metric>,
    /// Rounds run, and how many of them form the fixed window.
    pub rounds: (usize, usize),
    /// Top-level calls timed.
    pub calls: usize,
    /// Simulated-latency samples behind `sim_ms_*`.
    pub sim_samples: u64,
    /// Raw host speed, before it is stated relative to the reference job.
    pub host: Host,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The benchmark's spans (empty unless traced).
    pub spans: Tracer,
}

impl Report {
    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut metrics = Value::object();
        for m in &self.metrics {
            metrics.set(
                m.name,
                Value::object().with("value", m.value).with("unit", m.unit),
            );
        }
        Value::object()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_string_compact()
    }
}

/// Raw host speed of a run's top-level calls and of the reference job.
#[derive(Clone, Copy, Debug)]
pub struct Host {
    /// Successful operations per second, every call costed at its kind's
    /// median host time.
    pub ops_per_s: f64,
    /// Geometric mean over call kinds of each kind's median host ms.
    pub call_ms_p50: f64,
    /// Median host ms of the reference job.
    pub reference_ms: f64,
    /// Times the reference job ran.
    pub references: usize,
}

/// One workload: set up once per repetition, then run round after round.
pub(crate) trait Workload: Sized {
    /// Rounds every run completes; they form the fixed window.
    const MIN_ROUNDS: usize;

    /// Builds the workload's state, folding its simulated outputs into
    /// `digest`.
    fn setup(seed: u64, shrink: u32, digest: &mut Digest) -> Result<Self, String>;

    /// Runs round `r`. Failed operations are counted in `cx`; an `Err`
    /// means the benchmark itself cannot continue.
    fn round(&mut self, r: usize, cx: &mut Cx) -> Result<(), String>;
}

/// What a round reports into.
pub(crate) struct Cx {
    /// The benchmark's spans, recording only in traced rounds.
    pub spans: Spans,
    /// This round is traced.
    pub traced: bool,
    /// Per-layer sums of traced rounds.
    pub ledger: Ledger,
    in_window: bool,
    round_ns: u64,
    /// Host ms of every top-level call, by call kind.
    calls_ms: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    requests: u64,
    digest: Digest,
    sim_samples: Vec<f64>,
    fleet_sim: FleetSim,
}

/// Simulated request latencies of the fleet runs in the fixed window.
#[derive(Default)]
struct FleetSim {
    sum_ms: f64,
    served: u64,
    /// Each run's p99.
    p99s_ms: Vec<f64>,
}

impl Cx {
    /// The next request id (tags the spans of one operation).
    pub fn request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    /// Records the host time of one top-level public call of kind `kind`
    /// (one function × strategy or call type).
    pub fn call(&mut self, kind: usize, ns: u64) {
        if self.calls_ms.len() <= kind {
            self.calls_ms.resize(kind + 1, Vec::new());
        }
        self.calls_ms[kind].push(ns as f64 / 1e6);
        self.round_ns += ns;
        if self.traced {
            self.ledger.add("t.top", ns as f64);
        }
    }

    /// Counts operations and how many of them failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Folds a simulated output into the digest (fixed window only).
    pub fn digest(&mut self, v: u64) {
        if self.in_window {
            self.digest.add(v);
        }
    }

    /// One page-level VM's simulated latency (fixed window only).
    pub fn sim_sample(&mut self, ms: f64) {
        if self.in_window {
            self.sim_samples.push(ms);
        }
    }

    /// One fleet run's latency total, request count and p99 (fixed
    /// window only).
    pub fn sim_fleet(&mut self, sum_ms: f64, count: u64, p99_ms: f64) {
        if self.in_window {
            self.fleet_sim.sum_ms += sum_ms;
            self.fleet_sim.served += count;
            self.fleet_sim.p99s_ms.push(p99_ms);
        }
    }
}

/// Runs one workload and measures it.
pub fn run(o: &Opts) -> Result<Report, String> {
    if o.shrink == 0 {
        return Err("shrink must be at least 1".into());
    }
    match o.workload.as_str() {
        "restore" => drive::<page::Restore>(o),
        "record" => drive::<page::Record>(o),
        "fanout" => drive::<page::Fanout>(o),
        "fleet_locality" => drive::<fleet::Fleet<false>>(o),
        "fleet_churn" => drive::<fleet::Fleet<true>>(o),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// How often, in host time, the loop times the reference job.
const REFERENCE_EVERY_S: f64 = 0.25;

/// Per call kind: the number of calls and their median host ms.
fn per_kind(calls_ms: &[Vec<f64>]) -> Vec<(f64, f64)> {
    calls_ms
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| (c.len() as f64, median(c)))
        .collect()
}

fn drive<W: Workload>(o: &Opts) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_digest = None;
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous state first, so only one is ever resident.
        drop(state.take());
        let mut d = Digest::default();
        let t = Instant::now();
        let s = W::setup(o.seed, o.shrink, &mut d)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if *setup_digest.get_or_insert(d.value()) != d.value() {
            return Err("set-up is not deterministic: repetitions disagree".into());
        }
        state = Some(s);
    }
    let mut state = state.ok_or("no set-up ran")?;
    let mut cx = Cx {
        spans: Spans::new(o.traced),
        traced: false,
        ledger: Ledger::default(),
        in_window: true,
        round_ns: 0,
        calls_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        requests: 0,
        digest: Digest::default(),
        sim_samples: Vec::new(),
        fleet_sim: FleetSim::default(),
    };
    cx.digest.add(setup_digest.unwrap_or_default());
    let window = (W::MIN_ROUNDS / o.shrink as usize).max(1);
    let mut reference = Reference::default();
    let mut reference_ms = Vec::new();
    let mut last_reference: Option<Instant> = None;
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    let mut r = 0;
    while r < window || start.elapsed().as_secs_f64() < o.seconds {
        if last_reference.is_none_or(|t| t.elapsed().as_secs_f64() >= REFERENCE_EVERY_S) {
            reference_ms.push(reference.time_ms());
            last_reference = Some(Instant::now());
        }
        cx.in_window = r < window;
        cx.traced = o.traced && r % 2 == 0;
        cx.spans.set_recording(cx.traced);
        cx.round_ns = 0;
        state.round(r, &mut cx)?;
        cx.ledger.round(cx.traced, cx.round_ns);
        r += 1;
        if r == window {
            // Peak memory over set-up and the fixed window: the same work
            // on every run, however many rounds the time budget allows.
            peak_rss_mb = measure::peak_rss_mb();
        }
    }
    drop(state);
    let mut fp = page::record_all(o.seed, &fidelity::FUNCTIONS)?;
    let fidelity_err_pct = fidelity::error_pct(&mut fp, o.seed, &mut cx.digest)?;

    let (sim_mean, sim_p99, sim_samples) = if cx.sim_samples.is_empty() {
        let f = &cx.fleet_sim;
        (
            f.sum_ms / f.served.max(1) as f64,
            median(&f.p99s_ms),
            f.served,
        )
    } else {
        let s = &cx.sim_samples;
        (
            s.iter().sum::<f64>() / s.len() as f64,
            percentile(s, 99.0),
            s.len() as u64,
        )
    };
    let kinds = per_kind(&cx.calls_ms);
    // Every call costed at its kind's median time.
    let call_s: f64 = kinds.iter().map(|(n, ms)| n * ms).sum::<f64>() / 1e3;
    let host = Host {
        ops_per_s: (cx.attempted - cx.failed) as f64 / call_s,
        call_ms_p50: (kinds.iter().map(|(_, ms)| ms.ln()).sum::<f64>() / kinds.len() as f64).exp(),
        reference_ms: median(&reference_ms),
        references: reference_ms.len(),
    };
    let metrics = if o.traced {
        cx.ledger.metrics()
    } else {
        let values = [
            median(&setup_s),
            host.ops_per_s * host.reference_ms / 1e3,
            host.call_ms_p50 / host.reference_ms,
            peak_rss_mb,
            sim_mean,
            sim_p99,
            fidelity_err_pct,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", bad.name));
    }
    Ok(Report {
        attempted: cx.attempted,
        failed: cx.failed,
        digest: cx.digest.value(),
        metrics,
        rounds: (r, window),
        calls: cx.calls_ms.iter().map(Vec::len).sum(),
        sim_samples,
        host,
        setup_s,
        spans: cx.spans.tracer().clone(),
    })
}
