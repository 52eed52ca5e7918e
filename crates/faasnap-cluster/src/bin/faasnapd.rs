//! `faasnapd` — command-line front-end to the FaaSnap platform.
//!
//! The real FaaSnap daemon is an HTTP service driven by a remote load
//! balancer; this CLI exposes the same operations over the simulated
//! host — plus a fleet simulation on top of it — one flow per run:
//!
//! ```sh
//! faasnapd list
//! faasnapd invoke <function> [--strategy faasnap|firecracker|cached|reap|warm]
//!                            [--input a|b] [--ratio <f64>] [--device nvme|ebs]
//!                            [--fork <n>]
//!                            [--trace] [--trace-out <file>] [--metrics-out <file>]
//!                            [--profile-out <file>] [--self-profile-out <file>]
//! faasnapd burst <function> --parallelism <n> [--strategy ...] [--kind same|diff]
//!                           [--device nvme|ebs]
//! faasnapd policy <function> [--device nvme|ebs]
//! faasnapd cluster [--hosts 8] [--seed 42] [--policy all|random|least-loaded|snapshot-locality]
//!                  [--tenants 36] [--rate 40] [--skew 1.2] [--horizon 300]
//!                  [--snapshot-budget <bytes>] [--dedup on|off] [--chunk-bytes <bytes>]
//!                  [--fault-prob 0.02] [--fault-retry-ms 3] [--degrade-prob 0.25] [--degrade-ms 25]
//!                  [--slo-latency-ms 1000] [--slo-burn 2.0]
//!                  [--smoke] [--mega] [--branch]
//!                  [--metrics-out <file>] [--trace-out <file>]
//!                  [--profile-out <file>] [--self-profile-out <file>]
//! ```
//!
//! `invoke --fork N` branches N copy-on-write siblings from the one
//! recorded snapshot; the default, one sibling, is an ordinary restore.
//! Every N takes the same traced path and honours the same `--trace` and
//! `--*-out` flags; only the stdout summary differs (the single VM's
//! time and fault counts, or the siblings' mean/p95/max plus sharing).
//! The workspace lint is the `faasnap-lint` binary, not a subcommand.
//!
//! `--trace-out` writes a Chrome trace-event JSON file loadable in
//! Perfetto (`ui.perfetto.dev`) or `chrome://tracing`; `--metrics-out`
//! writes a Prometheus text-exposition snapshot. `--profile-out` writes
//! folded flamegraph stacks (collapse format — load in speedscope or
//! feed to `inferno-flamegraph`) aggregated from the same spans, with a
//! per-phase self/total sim-time table printed to stdout;
//! `--self-profile-out` writes the engine's own work counters
//! (event-loop deliveries, fault-resolver map operations, store chunk
//! traffic — plus per-scope wall-ns when the `wallclock` feature of
//! `faasnap-obs` is enabled). `cluster --smoke` runs the fixed
//! [`ClusterConfig::smoke`] fleet (no calibration), which the
//! repository's golden tests pin byte-for-byte. `cluster --mega` runs
//! the fixed trace-scale [`ClusterConfig::mega`] fleet (≥10⁶
//! invocations, 1000 hosts, no calibration) and emits only the fleet
//! aggregates. Every subcommand exits with status 2 on a flag it does
//! not read, and `cluster` also on
//! `--hosts/--tenants/--rate/--skew/--horizon` next to `--smoke` or
//! `--mega`, whose fleets fix those values.
//!
//! The fleet runs a burn-rate SLO monitor (latency + cold-start error
//! budgets, long/short windows) on every invocation; it is silent on
//! healthy runs and appends an `slo` section to the JSON document (and
//! `fleet_slo_*` metric families) only when an alert actually fires.
//! `--slo-latency-ms` moves the latency threshold; `--slo-burn` the
//! burn-rate multiple both windows must exceed.
//!
//! Snapshot registries are store-aware: each host's registry charges its
//! `--snapshot-budget` against *unique* chunk bytes in a
//! content-addressed store, so snapshots sharing zero, runtime, or
//! function-family chunks cost far less than their logical size, and
//! eviction frees only chunks no surviving snapshot references.
//! `--branch` turns on snapshot branching: while a snapshot restore is
//! paging a family's chunks from disk, co-located same-family requests
//! branch COW siblings off it instead of re-reading the loading set,
//! adding a `fork` section (and `fleet_fork_*` metric families) when
//! any request actually branched. `--smoke --branch` runs the fixed
//! [`ClusterConfig::fork_smoke`] branching fleet, which the repo's
//! `fork_fleet.json` golden pins byte-for-byte.
//! `--dedup off` makes every chunk tenant-unique — reproducing the old
//! whole-file LRU accounting as an ablation baseline — and
//! `--chunk-bytes` sets the dedup granularity (default 2 MiB).

use faasnap::strategy::RestoreStrategy;
use faasnap_cluster::{
    calibrate, run_cluster, ClusterConfig, FleetFaultProfile, RoutePolicy, StoreParams,
    WorkloadSpec,
};
use faasnap_daemon::config::ExperimentConfig;
use faasnap_daemon::observe::traced_fork;
use faasnap_daemon::platform::{BurstKind, Platform};
use faasnap_daemon::policy::{best_mode_for_period, Costs, ModeLatencies};
use faasnap_obs::{
    chrome_trace_json, folded_stacks, render_phase_table, render_text_tree, Metrics, SelfProfile,
    Tracer,
};
use sim_core::json::Value;
use sim_core::stats::Summary;
use sim_core::time::SimDuration;
use sim_storage::profiles::DiskProfile;

struct Args {
    positional: Vec<String>,
    flags: std::collections::BTreeMap<String, String>,
}

impl Args {
    fn parse() -> Args {
        let mut positional = Vec::new();
        let mut flags = std::collections::BTreeMap::new();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if matches!(name, "trace" | "smoke" | "mega" | "branch") {
                    "true".to_string()
                } else {
                    iter.next()
                        .unwrap_or_else(|| die(&format!("--{name} needs a value")))
                };
                flags.insert(name.to_string(), value);
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str, default: &str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: &str) -> T {
        self.flag(name, default)
            .parse()
            .unwrap_or_else(|_| die(&format!("--{name} must be a number")))
    }

    /// The first given flag among `names`, if any.
    fn first_of<'a>(&self, names: &[&'a str]) -> Option<&'a str> {
        names.iter().copied().find(|n| self.flags.contains_key(*n))
    }

    /// Dies on any flag `cmd` does not read, instead of ignoring it.
    fn reject_unknown(&self, cmd: &str, known: &[&str]) {
        if let Some(name) = self.flags.keys().find(|k| !known.contains(&k.as_str())) {
            die(&format!("{cmd} does not take --{name}"));
        }
    }
}

/// Every flag `faasnapd invoke` reads.
const INVOKE_FLAGS: &[&str] = &[
    "strategy",
    "device",
    "ratio",
    "input",
    "fork",
    "trace",
    "trace-out",
    "metrics-out",
    "profile-out",
    "self-profile-out",
];

/// Every flag `faasnapd burst` reads.
const BURST_FLAGS: &[&str] = &["strategy", "parallelism", "kind", "device"];

/// Every flag `faasnapd cluster` reads.
const CLUSTER_FLAGS: &[&str] = &[
    "hosts",
    "seed",
    "policy",
    "tenants",
    "rate",
    "skew",
    "horizon",
    "snapshot-budget",
    "dedup",
    "chunk-bytes",
    "fault-prob",
    "fault-retry-ms",
    "degrade-prob",
    "degrade-ms",
    "slo-latency-ms",
    "slo-burn",
    "smoke",
    "mega",
    "branch",
    "metrics-out",
    "trace-out",
    "profile-out",
    "self-profile-out",
];

/// The `cluster` flags that shape the demo fleet; the `--smoke` and
/// `--mega` presets fix all of them.
const FLEET_SHAPE_FLAGS: &[&str] = &["hosts", "tenants", "rate", "skew", "horizon"];

fn die(msg: &str) -> ! {
    eprintln!("faasnapd: {msg}");
    std::process::exit(2);
}

fn profile_for(device: &str) -> DiskProfile {
    match device {
        "nvme" => DiskProfile::nvme_c5d(),
        "ebs" => DiskProfile::ebs_io2(),
        other => die(&format!("unknown device {other:?} (nvme|ebs)")),
    }
}

fn write_artifact(path: &str, what: &str, content: &str) {
    std::fs::write(path, content).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
    eprintln!("wrote {what} to {path}");
}

fn platform_for(device: &str, seed: u64) -> Platform {
    let mut p = Platform::new(profile_for(device), seed);
    for f in faas_workloads::all_functions() {
        p.register(f);
    }
    p
}

fn strategy_for(name: &str) -> RestoreStrategy {
    ExperimentConfig::parse_strategy(name).unwrap_or_else(|e| die(&e))
}

fn main() {
    let args = Args::parse();
    match args.positional.first().map(String::as_str) {
        Some("list") => cmd_list(&args),
        Some("invoke") => cmd_invoke(&args),
        Some("burst") => cmd_burst(&args),
        Some("policy") => cmd_policy(&args),
        Some("cluster") => cmd_cluster(&args),
        other => die(&format!(
            "unknown subcommand {:?}; usage: faasnapd <list|invoke|burst|policy|cluster> [args]; see --help in the source header",
            other.unwrap_or_default()
        )),
    }
}

fn cmd_list(args: &Args) {
    args.reject_unknown("list", &[]);
    println!(
        "{:<14} {:<34} {:>9} {:>9}",
        "function", "description", "WS A", "WS B"
    );
    for f in faas_workloads::all_functions() {
        let ws = |i: &faas_workloads::Input| {
            sim_core::units::format_bytes(f.trace(i).distinct_pages() * 4096)
        };
        println!(
            "{:<14} {:<34} {:>9} {:>9}",
            f.name(),
            f.params().description,
            ws(&f.input_a()),
            ws(&f.input_b()),
        );
    }
}

fn function_for(args: &Args) -> faas_workloads::Function {
    let name = args
        .positional
        .get(1)
        .unwrap_or_else(|| die("missing function name"));
    faas_workloads::by_name(name).unwrap_or_else(|| die(&format!("unknown function {name}")))
}

fn input_for(args: &Args, f: &faas_workloads::Function) -> faas_workloads::Input {
    if let Some(ratio) = args.flags.get("ratio") {
        let r: f64 = ratio
            .parse()
            .unwrap_or_else(|_| die("--ratio must be a number"));
        if r <= 0.0 || r.is_nan() {
            die("--ratio must be positive");
        }
        return f.input_scaled(r, 0xC11);
    }
    match args.flag("input", "b").as_str() {
        "a" => f.input_a(),
        "b" => f.input_b(),
        other => die(&format!("unknown input {other:?} (a|b)")),
    }
}

fn cmd_invoke(args: &Args) {
    args.reject_unknown("invoke", INVOKE_FLAGS);
    let f = function_for(args);
    let strategy = strategy_for(&args.flag("strategy", "faasnap"));
    let profile = profile_for(&args.flag("device", "nvme"));
    let input = input_for(args, &f);
    // `--fork N` branches N concurrent restores from the one snapshot;
    // the default, one sibling, is a single independent restore.
    let fork_n: usize = args.num("fork", "1");
    if fork_n == 0 {
        die("--fork must be at least 1");
    }
    println!("recording snapshot for {} (input A)...", f.name());
    let run = traced_fork(f.name(), &input, strategy, profile, 0xFA5D, fork_n)
        .unwrap_or_else(|e| die(&e));
    let fork = &run.fork;
    if let [one] = fork.outcomes.as_slice() {
        let r = &one.report;
        println!(
            "{} under {}: total {} (setup {} + invoke {})",
            f.name(),
            strategy.label(),
            r.total_time(),
            r.setup_time,
            r.invocation_time
        );
        println!(
            "faults: {} anon, {} minor, {} major, {} host-pte, {} uffd; fetched {} pages in {}",
            r.anon_faults,
            r.minor_faults,
            r.major_faults,
            r.host_pte_faults,
            r.uffd_faults,
            r.fetch_pages,
            r.fetch_time
        );
    } else {
        let times: Summary = fork
            .outcomes
            .iter()
            .map(|o| o.report.total_time().as_millis_f64())
            .collect();
        println!(
            "{} x{} fork ({}): mean {:.1} ms, p95 {:.1} ms, max {:.1} ms",
            f.name(),
            fork_n,
            strategy.label(),
            times.mean(),
            times.p95(),
            times.max(),
        );
        println!(
            "sharing: {} disk pages read for {} siblings ({} shared base pages, {} private COW pages)",
            fork.disk_read_pages, fork_n, fork.shared_pages, fork.private_pages
        );
    }
    if args.flags.contains_key("trace") {
        println!("\n{}", render_text_tree(&run.tracer));
    }
    if let Some(path) = args.flags.get("trace-out") {
        write_artifact(path, "Chrome trace", &chrome_trace_json(&run.tracer));
    }
    if let Some(path) = args.flags.get("metrics-out") {
        write_artifact(path, "metrics", &run.metrics.render_prometheus());
    }
    if let Some(path) = args.flags.get("profile-out") {
        println!("\n{}", render_phase_table(&run.tracer));
        write_artifact(path, "folded stacks", &folded_stacks(&run.tracer));
    }
    if let Some(path) = args.flags.get("self-profile-out") {
        write_artifact(path, "self-profile", &run.selfprof.render_report());
    }
}

fn cmd_burst(args: &Args) {
    args.reject_unknown("burst", BURST_FLAGS);
    let f = function_for(args);
    let strategy = strategy_for(&args.flag("strategy", "faasnap"));
    let parallelism: u32 = args
        .flag("parallelism", "16")
        .parse()
        .unwrap_or_else(|_| die("--parallelism must be an integer"));
    if parallelism == 0 {
        die("--parallelism must be at least 1");
    }
    let kind = match args.flag("kind", "same").as_str() {
        "same" => BurstKind::SameSnapshot,
        "diff" => BurstKind::DifferentSnapshots,
        other => die(&format!("unknown burst kind {other:?} (same|diff)")),
    };
    let mut p = platform_for(&args.flag("device", "nvme"), 0xB557);
    p.record(f.name(), "cli", &f.input_a())
        .unwrap_or_else(|e| die(&e));
    let outs = p
        .burst(f.name(), "cli", &f.input_b(), strategy, parallelism, kind)
        .unwrap_or_else(|e| die(&e));
    let times: Summary = outs
        .iter()
        .map(|o| o.report.total_time().as_millis_f64())
        .collect();
    println!(
        "{} x{} ({kind:?}, {}): mean {:.1} ms, p95 {:.1} ms, min {:.1} ms, max {:.1} ms",
        f.name(),
        parallelism,
        strategy.label(),
        times.mean(),
        times.p95(),
        times.min(),
        times.max(),
    );
}

fn cmd_policy(args: &Args) {
    args.reject_unknown("policy", &["device"]);
    let f = function_for(args);
    let mut p = platform_for(&args.flag("device", "nvme"), 0x9011);
    let latencies =
        ModeLatencies::measure(&mut p, f.name(), "cli", &f.input_b()).unwrap_or_else(|e| die(&e));
    println!(
        "{}: warm {}, FaaSnap snapshot {}, cold {}",
        f.name(),
        latencies.warm,
        latencies.snapshot,
        latencies.cold
    );
    for (secs, label) in [
        (10u64, "10s"),
        (60, "1min"),
        (600, "10min"),
        (3600, "1h"),
        (86_400, "24h"),
    ] {
        let mode = best_mode_for_period(
            SimDuration::from_secs(secs),
            SimDuration::from_secs(7 * 86_400),
            SimDuration::from_secs(900),
            latencies,
            Costs::default(),
            1000.0,
        );
        println!("  every {label:>6}: serve via {mode:?}");
    }
}

fn cmd_cluster(args: &Args) {
    args.reject_unknown("cluster", CLUSTER_FLAGS);
    if let (Some(preset), Some(shape)) = (
        args.first_of(&["smoke", "mega"]),
        args.first_of(FLEET_SHAPE_FLAGS),
    ) {
        die(&format!(
            "--{shape} cannot be combined with --{preset}, which fixes the fleet"
        ));
    }
    let hosts: usize = args.num("hosts", "8");
    let seed: u64 = args.num("seed", "42");
    let tenants: usize = args.num("tenants", "36");
    let rate: f64 = args.num("rate", "40");
    let skew: f64 = args.num("skew", "1.2");
    let horizon_s: u64 = args.num("horizon", "300");
    if hosts == 0 || tenants == 0 {
        die("--hosts and --tenants must be at least 1");
    }
    let policies: Vec<RoutePolicy> = match args.flag("policy", "all").as_str() {
        "all" => vec![
            RoutePolicy::Random,
            RoutePolicy::LeastLoaded,
            RoutePolicy::SnapshotLocality,
        ],
        one => vec![RoutePolicy::parse(one).unwrap_or_else(|e| die(&e))],
    };

    let smoke = args.flags.contains_key("smoke");
    // The trace-scale fixed fleet (ClusterConfig::mega): ≥10⁶
    // invocations on 1000 hosts, built-in service times (no
    // calibration), single policy unless --policy all is explicit.
    let mega = args.flags.contains_key("mega");
    if smoke && mega {
        die("--smoke and --mega are mutually exclusive");
    }
    // Store-aware registry knobs. The defaults match HostConfig's, so
    // the smoke fleet stays golden-pinned when no flag is passed.
    let dedup = match args.flag("dedup", "on").as_str() {
        "on" => true,
        "off" => false,
        other => die(&format!("unknown --dedup {other:?} (on|off)")),
    };
    let chunk_bytes: u64 = args.num("chunk-bytes", "2097152");
    if chunk_bytes == 0 {
        die("--chunk-bytes must be nonzero");
    }
    let snapshot_budget: u64 = args.num(
        "snapshot-budget",
        &(faasnap_cluster::HostConfig::default().snapshot_budget_bytes).to_string(),
    );
    let store = StoreParams { dedup, chunk_bytes };
    // Snapshot branching: co-located same-family restores share one
    // in-flight read stream instead of each paging from disk.
    let branch = args.flags.contains_key("branch");
    // A fault profile is armed as soon as any --fault-*/--degrade-*
    // flag appears; unspecified knobs fall back to the mild defaults.
    let fault_profile = if ["fault-prob", "fault-retry-ms", "degrade-prob", "degrade-ms"]
        .iter()
        .any(|f| args.flags.contains_key(*f))
    {
        let prob: f64 = args.num("fault-prob", "0.02");
        let degrade_prob: f64 = args.num("degrade-prob", "0.25");
        if !(0.0..=1.0).contains(&prob) || !(0.0..=1.0).contains(&degrade_prob) {
            die("--fault-prob and --degrade-prob must be in [0, 1]");
        }
        Some(FleetFaultProfile {
            storage_fault_prob: prob,
            retry_penalty: SimDuration::from_millis(args.num("fault-retry-ms", "3")),
            degrade_prob,
            degrade_penalty: SimDuration::from_millis(args.num("degrade-ms", "25")),
        })
    } else {
        None
    };
    // Calibrate per-workload service times against the detailed
    // single-host platform, then replay the fleet against them. The
    // smoke fleet uses the built-in defaults so golden files don't
    // depend on the (slow) calibration runs.
    let workloads = ["hello-world", "json", "compression", "image"];
    let services = if smoke || mega {
        Vec::new()
    } else {
        eprintln!(
            "calibrating {} workloads on the single-host platform...",
            workloads.len()
        );
        let services = calibrate::calibrate_workloads(&workloads, seed).unwrap_or_else(|e| die(&e));
        for (name, t) in &services {
            eprintln!(
                "  {name}: warm {}, snap-hot {}, snap-cold {}, cold {}",
                t.warm, t.snap_hot, t.snap_cold, t.cold
            );
        }
        services
    };

    let obs = if args.flags.contains_key("metrics-out") {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    // The profiler folds the same spans the trace records, so either
    // artifact flag turns the tracer on.
    let tracer = if args.flags.contains_key("trace-out") || args.flags.contains_key("profile-out") {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let selfprof = if args.flags.contains_key("self-profile-out") {
        SelfProfile::enabled()
    } else {
        SelfProfile::disabled()
    };
    let slo_latency_ms: u64 = args.num("slo-latency-ms", "1000");
    let slo_burn: f64 = args.num("slo-burn", "2.0");
    if slo_burn <= 0.0 {
        die("--slo-burn must be positive");
    }

    let mut runs = Vec::new();
    let mut p99_by_policy: Vec<(String, f64)> = Vec::new();
    for policy in policies {
        let mut cfg = if smoke {
            if branch {
                // The fixed branching smoke fleet (golden-pinned).
                ClusterConfig::fork_smoke(policy, seed)
            } else {
                ClusterConfig::smoke(policy, seed)
            }
        } else if mega {
            ClusterConfig::mega(policy, seed)
        } else {
            let mut cfg = ClusterConfig::demo(hosts, policy, seed);
            cfg.workload = WorkloadSpec::zipf(tenants, &workloads, rate, skew);
            cfg.horizon = SimDuration::from_secs(horizon_s);
            cfg.services = services.clone();
            cfg
        };
        cfg.obs = obs.clone();
        cfg.tracer = tracer.clone();
        cfg.selfprof = selfprof.clone();
        cfg.slo.latency_threshold = SimDuration::from_millis(slo_latency_ms);
        cfg.slo.burn_threshold = slo_burn;
        cfg.fault_profile = fault_profile;
        cfg.host.store = store;
        cfg.host.snapshot_budget_bytes = snapshot_budget;
        cfg.host.branch = branch;
        eprintln!(
            "simulating {} on {} hosts, {} tenants for {}...",
            policy.label(),
            cfg.hosts,
            cfg.workload.tenants.len(),
            cfg.horizon
        );
        let m = run_cluster(&cfg);
        p99_by_policy.push((policy.label().to_string(), m.p(99.0)));
        let mut run = m.to_json();
        if mega {
            // 4000 tenant rows and 1000 host rows dwarf the fleet
            // aggregates; the mega driver only consumes the latter.
            run = Value::object()
                .with("policy", run.get("policy").cloned().unwrap_or(Value::Null))
                .with("seed", seed)
                .with("hosts", cfg.hosts as u64)
                .with(
                    "horizon_s",
                    run.get("horizon_s").cloned().unwrap_or(Value::Null),
                )
                .with("fleet", run.get("fleet").cloned().unwrap_or(Value::Null));
        }
        runs.push(run);
    }

    if let Some(path) = args.flags.get("metrics-out") {
        write_artifact(path, "metrics", &obs.render_prometheus());
    }
    if let Some(path) = args.flags.get("trace-out") {
        write_artifact(path, "Chrome trace", &chrome_trace_json(&tracer));
    }
    if let Some(path) = args.flags.get("profile-out") {
        eprintln!("{}", render_phase_table(&tracer));
        write_artifact(path, "folded stacks", &folded_stacks(&tracer));
    }
    if let Some(path) = args.flags.get("self-profile-out") {
        write_artifact(path, "self-profile", &selfprof.render_report());
    }

    let mut doc = Value::object().with("runs", Value::Array(runs));
    if p99_by_policy.len() > 1 {
        let mut cmp = Value::object();
        for (label, p99) in &p99_by_policy {
            cmp = cmp.with(
                format!("{label}_p99_ms").as_str(),
                (p99 * 1000.0).round() / 1000.0,
            );
        }
        doc = doc.with("p99_comparison", cmp);
    }
    println!("{}", doc.to_string_pretty());
}
