//! The page-level workloads: `restore`, `record` and `fanout`. Each one
//! drives `faasnap_daemon::Platform` through its public, fallible entry
//! points and checks every VM's final guest memory against a Warm
//! reference computed in set-up.

use std::collections::BTreeMap;
use std::hint::black_box;

use faas_workloads::{Function, Input};
use faasnap::{InvocationReport, RestoreStrategy};
use faasnap_daemon::{BurstKind, Platform};
use faasnap_obs::{SelfProfile, TraceContext};
use faasnap_store::StoreConfig;
use sim_core::rng::Prng;
use sim_core::time::SimDuration;
use sim_storage::faults::{FaultPlan, FaultProfile, FaultRule, InjectedFaultKind};
use sim_storage::{IoKind, IoStats};

use crate::measure::Digest;
use crate::metrics::Ledger;
use crate::{Cx, Workload};

/// Label the set-up records every function under.
pub const LABEL: &str = "a";

const PAGE_BYTES: f64 = 4096.0;

/// The compared restore strategies, keyed as the per-layer suffixes.
pub fn strategies() -> [(&'static str, RestoreStrategy); 3] {
    [
        ("firecracker", RestoreStrategy::Vanilla),
        ("reap", RestoreStrategy::Reap),
        ("faasnap", RestoreStrategy::faasnap()),
    ]
}

/// A seed for stream `stream`, index `i`, derived from the run seed.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    Prng::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .fork(i)
        .next_u64()
}

fn name_id(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn function(name: &str) -> Result<Function, String> {
    faas_workloads::by_name(name).ok_or_else(|| format!("unknown function {name}"))
}

fn registered<'p>(p: &'p Platform, name: &str) -> Result<&'p Function, String> {
    p.registry()
        .function(name)
        .ok_or_else(|| format!("{name} is not registered"))
}

/// Input A of `name` with content seed `i` of this run.
pub fn input_a(p: &Platform, name: &str, seed: u64, i: usize) -> Result<Input, String> {
    let a = registered(p, name)?.input_a();
    Ok(a.reseeded(derive(seed, name_id(name) ^ 0xA, i as u64)))
}

/// Input B of `name` with content seed `i` of this run.
pub fn input_b(p: &Platform, name: &str, seed: u64, i: usize) -> Result<Input, String> {
    let b = registered(p, name)?.input_b();
    Ok(b.reseeded(derive(seed, name_id(name) ^ 0xB, i as u64)))
}

/// A platform on an NVMe host with `names` registered and recorded under
/// [`LABEL`] with their first input A.
pub fn record_all(seed: u64, names: &[&str]) -> Result<Platform, String> {
    let mut p = Platform::new(
        sim_storage::DiskProfile::nvme_c5d(),
        derive(seed, 0x4057, 0),
    );
    for name in names {
        p.register(function(name)?);
        let a = input_a(&p, name, seed, 0)?;
        p.record(name, LABEL, &a)?;
    }
    Ok(p)
}

/// The Warm-strategy checksum of `name` under `label` with `input`.
fn warm_checksum(p: &mut Platform, name: &str, label: &str, input: &Input) -> Result<u64, String> {
    p.try_invoke(name, label, input, RestoreStrategy::Warm)
        .map(|o| o.final_memory.checksum())
        .map_err(|e| format!("warm reference {name}.{label}: {e}"))
}

/// Disk-traffic deltas of one call.
struct Io(IoStats);

impl Io {
    fn snapshot(p: &Platform) -> Io {
        Io(p.host().disks[0].stats().clone())
    }

    fn since(&self, p: &Platform) -> IoStats {
        let now = p.host().disks[0].stats();
        let mut d = IoStats {
            requests: now.requests - self.0.requests,
            pages: now.pages - self.0.pages,
            ..IoStats::default()
        };
        for k in 0..d.pages_by_kind.len() {
            d.pages_by_kind[k] = now.pages_by_kind[k] - self.0.pages_by_kind[k];
        }
        d
    }
}

/// Folds one VM's report into the per-layer ledger.
fn account_vm(l: &mut Ledger, strategy: &str, r: &InvocationReport) {
    let ns = |d: SimDuration| d.as_nanos() as f64;
    let total = ns(r.total_time());
    l.add_split("vms", strategy, 1.0);
    l.add("mm.pf", r.total_faults() as f64);
    l.add_split("mm.mpf", strategy, r.major_faults as f64);
    l.add("mm.uffd", r.uffd_faults as f64);
    l.add("mm.anon", r.anon_faults as f64);
    let timed = r.fault_hist.count() as f64;
    l.add("mm.timed_faults", timed);
    l.add(
        "mm.slow_faults",
        r.fault_hist.fraction_at_or_above(32.0) * timed,
    );
    l.add_split("sim.total", strategy, total);
    l.add_split("sim.fault_wait", strategy, ns(r.fault_wait));
    l.add_split("sim.setup", strategy, ns(r.setup_time));
    l.add("sim.fetch", ns(r.fetch_time));
    l.add("loader.fetch_bytes", r.fetch_bytes() as f64);
    l.add("runtime.mmap_calls", r.mmap_calls as f64);
    l.add("vm.resident_pages", r.resident_pages as f64);
    if r.faults.injected_total() > 0 {
        l.add("vms.faulted", 1.0);
        l.add("runtime.retries", r.faults.retries_total() as f64);
        l.add("sim.backoff", ns(r.faults.backoff_wait));
        l.add("sim.total.faulted", total);
    }
}

/// Folds one call's disk traffic into the ledger.
fn account_io(l: &mut Ledger, strategy: &str, io: &IoStats) {
    let bytes = |kind| io.pages_of(kind) as f64 * PAGE_BYTES;
    l.add_split("storage.requests", strategy, io.requests as f64);
    l.add("storage.fault_bytes", bytes(IoKind::FaultRead));
    l.add("storage.loader_bytes", bytes(IoKind::LoaderPrefetch));
    l.add(
        "storage.reap_bytes",
        bytes(IoKind::ReapFetch) + bytes(IoKind::ReapMiss),
    );
}

/// Moves the simulator-effort counters of a traced round into the ledger.
fn account_profile(l: &mut Ledger, prof: &SelfProfile) {
    for (counter, key) in [
        ("engine/delivered", "engine.events"),
        ("mm/resolve_calls", "mm.resolve_calls"),
        ("mm/map_ops", "mm.map_ops"),
        ("mm/io_planned", "mm.io_planned"),
        ("mm/readahead_pages", "mm.readahead_pages"),
        ("mm/wait_inflight", "mm.wait_inflight"),
    ] {
        l.add(key, prof.counter(counter) as f64);
    }
    l.max(
        "engine.peak_pending",
        prof.counter("engine/peak_pending") as f64,
    );
}

/// Attaches a fresh self-profile to traced rounds and none to the rest.
fn profile_for(p: &mut Platform, traced: bool) -> SelfProfile {
    let prof = if traced {
        SelfProfile::enabled()
    } else {
        SelfProfile::disabled()
    };
    p.set_self_profile(prof.clone());
    prof
}

/// The storage fault schedule of the `restore` fault slice: latency
/// spikes plus two read errors on each kind of restore read. Two stay
/// within every retry budget (guest faults 4, loader and REAP fetch 3),
/// so each run heals without degrading.
fn bounded_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::with_profile(
        seed,
        FaultProfile {
            latency_spike_prob: 0.2,
            spike: SimDuration::from_micros(400),
            max_injections: 12,
            ..FaultProfile::default()
        },
    );
    for kind in [IoKind::FaultRead, IoKind::LoaderPrefetch, IoKind::ReapFetch] {
        plan.push_rule(FaultRule::on_kind(kind, InjectedFaultKind::ReadError, 2));
    }
    plan
}

// ---------------------------------------------------------------------
// restore
// ---------------------------------------------------------------------

/// The paper's test phase: restores of recorded snapshots under
/// Firecracker, REAP and FaaSnap.
pub struct Restore {
    p: Platform,
    functions: Vec<Function>,
    seed: u64,
    rng: Prng,
    /// Input B per function and content seed.
    inputs: Vec<Vec<Input>>,
    /// Warm checksum per function and content seed.
    refs: Vec<Vec<u64>>,
    calls: u64,
}

impl Restore {
    const FUNCTIONS: [&'static str; 5] =
        ["hello-world", "json", "image", "pagerank", "recognition"];
    /// Every eighth call runs under a bounded storage fault plan.
    const FAULT_EVERY: u64 = 8;
    /// Input-B content seeds per function.
    const SEEDS: usize = 4;
}

impl Workload for Restore {
    const MIN_ROUNDS: usize = 48;

    fn setup(seed: u64, _shrink: u32, digest: &mut Digest) -> Result<Self, String> {
        let mut p = record_all(seed, &Self::FUNCTIONS)?;
        let mut inputs = Vec::new();
        let mut refs = Vec::new();
        for name in Self::FUNCTIONS {
            let ins = (0..Self::SEEDS)
                .map(|i| input_b(&p, name, seed, i))
                .collect::<Result<Vec<_>, _>>()?;
            let sums = ins
                .iter()
                .map(|b| warm_checksum(&mut p, name, LABEL, b))
                .collect::<Result<Vec<_>, _>>()?;
            sums.iter().for_each(|&s| digest.add(s));
            inputs.push(ins);
            refs.push(sums);
        }
        let functions = Self::FUNCTIONS
            .iter()
            .map(|name| registered(&p, name).cloned())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Restore {
            p,
            functions,
            seed,
            rng: Prng::new(derive(seed, 0x4E57, 0)),
            inputs,
            refs,
            calls: 0,
        })
    }

    fn round(&mut self, _r: usize, cx: &mut Cx) -> Result<(), String> {
        let prof = profile_for(&mut self.p, cx.traced);
        for (fi, name) in Self::FUNCTIONS.iter().enumerate() {
            for (si, (key, strategy)) in strategies().into_iter().enumerate() {
                let bi = self.rng.below(Self::SEEDS as u64) as usize;
                let input = &self.inputs[fi][bi];
                self.calls += 1;
                let faulted = self.calls.is_multiple_of(Self::FAULT_EVERY);
                if faulted {
                    self.p
                        .inject_storage_faults(bounded_plan(derive(self.seed, 0xFA17, self.calls)));
                }
                let req = cx.request();
                let f = &self.functions[fi];
                let io = Io::snapshot(&self.p);
                let p = &mut self.p;
                let spans = &cx.spans;
                let ((out, sub), _, _) =
                    spans.time_ctx("request", TraceContext::NONE, req, |ctx| {
                        // Traced rounds time the public sub-calls separately on
                        // the same inputs, for the self-time split.
                        let sub = cx.traced.then(|| {
                            let (_, trace_ns) = spans
                                .time("workloads.trace", ctx, req, || black_box(f.trace(input)));
                            let (_, spec_ns) = spans.time("daemon.build_spec", ctx, req, || {
                                black_box(p.build_spec(name, LABEL, input, strategy))
                            });
                            (trace_ns, spec_ns)
                        });
                        let out = spans.time("daemon.try_invoke", ctx, req, || {
                            p.try_invoke(name, LABEL, input, strategy)
                        });
                        (out, sub)
                    });
                if faulted {
                    self.p.clear_storage_faults();
                }
                let (out, call_ns) = out;
                cx.call(fi * 3 + si, call_ns);
                let ok = match &out {
                    Ok(o) => {
                        o.final_memory.checksum() == self.refs[fi][bi]
                            && !(faulted && o.report.degraded)
                    }
                    Err(_) => false,
                };
                cx.ops(1, u64::from(!ok));
                if let Ok(o) = &out {
                    cx.digest(o.final_memory.checksum());
                    cx.digest(o.report.total_time().as_nanos());
                    cx.digest(o.report.total_faults());
                    if key == "faasnap" {
                        cx.sim_sample(o.report.total_time().as_millis_f64());
                    }
                    if let Some((trace_ns, spec_ns)) = sub {
                        let l = &mut cx.ledger;
                        l.add("t.trace", trace_ns as f64);
                        l.add("t.build_spec_self", spec_ns.saturating_sub(trace_ns) as f64);
                        let self_ns = call_ns.saturating_sub(spec_ns) as f64;
                        l.add("t.invoke_self", self_ns);
                        l.add("t.engine", self_ns);
                        account_vm(l, key, &o.report);
                        account_io(l, key, &io.since(&self.p));
                    }
                }
            }
        }
        account_profile(&mut cx.ledger, &prof);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// record
// ---------------------------------------------------------------------

/// The write path: record phases into the content-addressed snapshot
/// store, each followed by a FaaSnap restore that reads through it.
pub struct Record {
    seed: u64,
    rng: Prng,
    functions: Vec<Function>,
    /// Input A per function and content seed.
    inputs_a: Vec<Vec<Input>>,
    /// Input B per function and content seed.
    inputs_b: Vec<Vec<Input>>,
    /// Warm checksum per function, input-A seed and input-B seed.
    refs: BTreeMap<(usize, usize, usize), u64>,
}

impl Record {
    const FUNCTIONS: [&'static str; 6] = [
        "hello-world",
        "json",
        "image",
        "pyaes",
        "chameleon",
        "compression",
    ];
    /// Records per function per round: the first ingests a base layer,
    /// the second a delta over it.
    const COPIES: usize = 2;
    /// Content seeds per input in this workload's reference table.
    const SEEDS: usize = 2;

    /// Round `r`'s platform: records also go into the snapshot store, and
    /// restores read through the store's chunk layout.
    fn platform(&self, r: usize) -> Platform {
        let host_seed = derive(self.seed, 0x4057, r as u64 + 1);
        let mut p = Platform::new(sim_storage::DiskProfile::nvme_c5d(), host_seed);
        p.enable_snapshot_store(StoreConfig { chunk_pages: 512 });
        p.set_store_backed_reads(true);
        for f in &self.functions {
            p.register(f.clone());
        }
        p
    }
}

impl Workload for Record {
    const MIN_ROUNDS: usize = 6;

    fn setup(seed: u64, _shrink: u32, digest: &mut Digest) -> Result<Self, String> {
        let mut p = Platform::new(
            sim_storage::DiskProfile::nvme_c5d(),
            derive(seed, 0x4057, 0),
        );
        let mut functions = Vec::new();
        let (mut inputs_a, mut inputs_b) = (Vec::new(), Vec::new());
        let mut refs = BTreeMap::new();
        for (fi, name) in Self::FUNCTIONS.iter().enumerate() {
            let f = function(name)?;
            p.register(f.clone());
            functions.push(f);
            let a = (0..Self::SEEDS)
                .map(|i| input_a(&p, name, seed, i))
                .collect::<Result<Vec<_>, _>>()?;
            let b = (0..Self::SEEDS)
                .map(|i| input_b(&p, name, seed, i))
                .collect::<Result<Vec<_>, _>>()?;
            for (ai, input) in a.iter().enumerate() {
                let label = format!("ref{ai}");
                p.record(name, &label, input)?;
                for (bi, input) in b.iter().enumerate() {
                    let sum = warm_checksum(&mut p, name, &label, input)?;
                    digest.add(sum);
                    refs.insert((fi, ai, bi), sum);
                }
            }
            inputs_a.push(a);
            inputs_b.push(b);
        }
        Ok(Record {
            seed,
            rng: Prng::new(derive(seed, 0x4E57, 1)),
            functions,
            inputs_a,
            inputs_b,
            refs,
        })
    }

    fn round(&mut self, r: usize, cx: &mut Cx) -> Result<(), String> {
        // A fresh platform per round keeps memory and per-pair work
        // stationary over the run.
        let mut p = self.platform(r);
        let prof = profile_for(&mut p, cx.traced);
        let mut pairs = Vec::new();
        for copy in 0..Self::COPIES {
            for (fi, f) in self.functions.iter().enumerate() {
                let name = f.name();
                let label = format!("r{r}.{copy}");
                let ai = self.rng.below(Self::SEEDS as u64) as usize;
                let bi = self.rng.below(Self::SEEDS as u64) as usize;
                let (a, b) = (&self.inputs_a[fi][ai], &self.inputs_b[fi][bi]);
                let req = cx.request();
                let spans = &cx.spans;
                let traced = cx.traced;
                let io = Io::snapshot(&p);
                let (res, _, _) = spans.time_ctx("request", TraceContext::NONE, req, |ctx| {
                    let sub_rec = traced.then(|| {
                        let (_, trace_ns) =
                            spans.time("workloads.trace", ctx, req, || black_box(f.trace(a)));
                        let (_, boot_ns) = spans.time("workloads.boot_image", ctx, req, || {
                            black_box(f.boot_image())
                        });
                        (trace_ns, boot_ns)
                    });
                    let (rec, rec_ns) =
                        spans.time("daemon.record", ctx, req, || p.record(name, &label, a));
                    if rec.is_err() {
                        return (Err(()), rec_ns, 0, sub_rec, None);
                    }
                    let strategy = RestoreStrategy::faasnap();
                    let sub_inv = traced.then(|| {
                        let (_, trace_ns) =
                            spans.time("workloads.trace", ctx, req, || black_box(f.trace(b)));
                        let (_, spec_ns) = spans.time("daemon.build_spec", ctx, req, || {
                            black_box(p.build_spec(name, &label, b, strategy))
                        });
                        let store = p.snapshot_store();
                        let (_, layout_ns) = spans.time("store.layout", ctx, req, || {
                            black_box(store.map(|s| s.layout(&format!("{name}.{label}"))))
                        });
                        (trace_ns, spec_ns, layout_ns)
                    });
                    let (out, inv_ns) = spans.time("daemon.try_invoke", ctx, req, || {
                        p.try_invoke(name, &label, b, strategy)
                    });
                    (out.map_err(|_| ()), rec_ns, inv_ns, sub_rec, sub_inv)
                });
                let (out, rec_ns, inv_ns, sub_rec, sub_inv) = res;
                cx.call(fi, rec_ns + inv_ns);
                let ok = matches!(&out, Ok(o) if Some(&o.final_memory.checksum()) == self.refs.get(&(fi, ai, bi)));
                pairs.push((name, label, ok));
                let Ok(o) = out else { continue };
                cx.digest(o.final_memory.checksum());
                cx.digest(o.report.total_time().as_nanos());
                cx.sim_sample(o.report.total_time().as_millis_f64());
                if let (Some((ta, boot)), Some((tb, spec, layout))) = (sub_rec, sub_inv) {
                    let l = &mut cx.ledger;
                    l.add("t.trace", (ta + tb) as f64);
                    l.add("t.boot_image", boot as f64);
                    let rec_self = rec_ns.saturating_sub(ta + boot) as f64;
                    let inv_self = inv_ns.saturating_sub(spec + layout) as f64;
                    l.add("t.record_self", rec_self);
                    l.add("t.build_spec_self", spec.saturating_sub(tb) as f64);
                    l.add("t.layout", layout as f64);
                    l.add("t.invoke_self", inv_self);
                    l.add("t.engine", rec_self + inv_self);
                    l.add("records", 1.0);
                    account_vm(l, "faasnap", &o.report);
                    account_io(l, "faasnap", &io.since(&p));
                }
            }
        }
        let store = p
            .snapshot_store()
            .ok_or("the record platform lost its snapshot store")?;
        if cx.traced {
            let stats = store.store().stats();
            let l = &mut cx.ledger;
            l.add("store.chunks_inserted", stats.chunks_inserted as f64);
            l.add("store.map_ops", stats.map_ops as f64);
            l.add("store.unique_bytes", store.unique_bytes() as f64);
            l.add("store.logical_bytes", store.logical_bytes() as f64);
            l.add("store.samples", 1.0);
            account_profile(l, &prof);
        }
        // Untimed: the store must rebuild every recorded image exactly.
        for (name, label, restored_ok) in pairs {
            let recorded = p
                .registry()
                .artifacts(name, &label)
                .map(|a| a.snapshot.memory().checksum());
            let rebuilt = store
                .materialize(&format!("{name}.{label}"))
                .map(|m| m.checksum())
                .ok();
            let ok = restored_ok && recorded.is_some() && recorded == rebuilt;
            cx.ops(1, u64::from(!ok));
            cx.digest(rebuilt.unwrap_or(0));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// fanout
// ---------------------------------------------------------------------

/// One snapshot restored many ways at once: copy-on-write fork siblings
/// against a same-snapshot burst of independent VMs.
pub struct Fanout {
    p: Platform,
    rng: Prng,
    inputs: Vec<Vec<Input>>,
    /// Warm checksum per function and input (every fork sibling's).
    fork_refs: Vec<Vec<u64>>,
    /// Warm checksums of each burst VM per function and input.
    burst_refs: Vec<Vec<Vec<u64>>>,
}

impl Fanout {
    const FUNCTIONS: [&'static str; 3] = ["hello-world", "json", "image"];
    const SIBLINGS: usize = 16;
    const SEEDS: usize = 2;
}

impl Workload for Fanout {
    const MIN_ROUNDS: usize = 10;

    fn setup(seed: u64, _shrink: u32, digest: &mut Digest) -> Result<Self, String> {
        let mut p = record_all(seed, &Self::FUNCTIONS)?;
        let (mut inputs, mut fork_refs, mut burst_refs) = (Vec::new(), Vec::new(), Vec::new());
        for name in Self::FUNCTIONS {
            let ins = (0..Self::SEEDS)
                .map(|i| input_b(&p, name, seed, i))
                .collect::<Result<Vec<_>, _>>()?;
            let mut fr = Vec::new();
            let mut br = Vec::new();
            for b in &ins {
                fr.push(warm_checksum(&mut p, name, LABEL, b)?);
                let outs = p.burst(
                    name,
                    LABEL,
                    b,
                    RestoreStrategy::Warm,
                    Self::SIBLINGS as u32,
                    BurstKind::SameSnapshot,
                )?;
                br.push(
                    outs.iter()
                        .map(|o| o.final_memory.checksum())
                        .collect::<Vec<_>>(),
                );
            }
            fr.iter().for_each(|&s| digest.add(s));
            br.iter().flatten().for_each(|&s| digest.add(s));
            inputs.push(ins);
            fork_refs.push(fr);
            burst_refs.push(br);
        }
        Ok(Fanout {
            p,
            rng: Prng::new(derive(seed, 0x4E57, 2)),
            inputs,
            fork_refs,
            burst_refs,
        })
    }

    fn round(&mut self, _r: usize, cx: &mut Cx) -> Result<(), String> {
        let prof = profile_for(&mut self.p, cx.traced);
        let n = Self::SIBLINGS;
        for (fi, name) in Self::FUNCTIONS.iter().enumerate() {
            for fork in [true, false] {
                let bi = self.rng.below(Self::SEEDS as u64) as usize;
                let input = &self.inputs[fi][bi];
                let req = cx.request();
                let io = Io::snapshot(&self.p);
                let p = &mut self.p;
                let strategy = RestoreStrategy::faasnap();
                let ((outs, ns), _, _) =
                    cx.spans
                        .time_ctx("request", TraceContext::NONE, req, |ctx| {
                            if fork {
                                let (r, ns) = cx.spans.time("daemon.try_fork", ctx, req, || {
                                    p.try_fork(name, LABEL, input, strategy, n)
                                });
                                (
                                    r.map(|f| (f.outcomes, f.private_pages))
                                        .map_err(|e| e.to_string()),
                                    ns,
                                )
                            } else {
                                let (r, ns) = cx.spans.time("daemon.burst", ctx, req, || {
                                    p.burst(
                                        name,
                                        LABEL,
                                        input,
                                        strategy,
                                        n as u32,
                                        BurstKind::SameSnapshot,
                                    )
                                });
                                (r.map(|o| (o, 0)), ns)
                            }
                        });
                cx.call(fi * 2 + usize::from(fork), ns);
                let Ok((outs, private_pages)) = outs else {
                    cx.ops(n as u64, n as u64);
                    continue;
                };
                let expected = |i: usize| {
                    if fork {
                        Some(self.fork_refs[fi][bi])
                    } else {
                        self.burst_refs[fi][bi].get(i).copied()
                    }
                };
                let matching = outs
                    .iter()
                    .enumerate()
                    .filter(|(i, o)| Some(o.final_memory.checksum()) == expected(*i))
                    .count();
                cx.ops(n as u64, (n - matching) as u64);
                for o in &outs {
                    cx.digest(o.final_memory.checksum());
                    cx.digest(o.report.total_time().as_nanos());
                    cx.sim_sample(o.report.total_time().as_millis_f64());
                }
                if cx.traced {
                    let kind = if fork { "fork" } else { "burst" };
                    let l = &mut cx.ledger;
                    l.add(&format!("t.{kind}"), ns as f64);
                    l.add("t.engine", ns as f64);
                    let io = io.since(&self.p);
                    l.add(&format!("vms.{kind}"), outs.len() as f64);
                    l.add(
                        &format!("storage.bytes.{kind}"),
                        io.pages as f64 * PAGE_BYTES,
                    );
                    l.add("vm.private_pages", private_pages as f64);
                    for o in &outs {
                        account_vm(l, "faasnap", &o.report);
                    }
                    account_io(l, "faasnap", &io);
                }
            }
        }
        account_profile(&mut cx.ledger, &prof);
        Ok(())
    }
}
