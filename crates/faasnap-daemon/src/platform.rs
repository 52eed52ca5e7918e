//! The daemon API: record, invoke, and burst.
//!
//! [`Platform`] owns the simulated host and the function registry and
//! exposes the operations the paper's daemon supports ("creating
//! functions using installed images and kernels, booting VMs for a
//! function, invoking functions on the booted VM, taking snapshots of a
//! VM, restoring snapshots", §5), reduced to the flow the evaluation
//! exercises: record phase → drop caches → test-phase invocation, plus
//! the §6.6 bursty workloads.

use faas_workloads::{Function, Input};
use faasnap::error::RestoreError;
use faasnap::runtime::{ForkOutcome, Host, InvocationOutcome, InvocationSpec};
use faasnap::snapstore::FamilyStore;
use faasnap::strategy::RestoreStrategy;
use faasnap_obs::{Metrics, SelfProfile, TraceContext, Tracer};
use faasnap_store::StoreConfig;
use sim_core::time::SimTime;
use sim_storage::faults::FaultPlan;
use sim_storage::file::DeviceId;
use sim_storage::profiles::DiskProfile;

use crate::registry::FunctionRegistry;

/// Why an invocation produced no outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvokeError {
    /// Registry/staging problem: unknown function or missing artifacts.
    NotFound(String),
    /// The restore stack failed closed (read retries exhausted under
    /// storage faults). The fault report of the failed run is lost with
    /// the VM; the disk's armed [`FaultPlan`] log still holds the
    /// realized injection schedule.
    Restore(RestoreError),
}

impl std::fmt::Display for InvokeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvokeError::NotFound(s) => f.write_str(s),
            InvokeError::Restore(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for InvokeError {}

/// Snapshot sharing mode of a burst (§6.6): "the burst of VMs from the
/// same snapshot and from different snapshots".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BurstKind {
    /// All VMs restore from one snapshot (same application).
    SameSnapshot,
    /// Every VM has its own snapshot files (different applications).
    DifferentSnapshots,
}

/// The FaaSnap daemon bound to a simulated host.
pub struct Platform {
    host: Host,
    registry: FunctionRegistry,
    device: DeviceId,
    /// Content-addressed snapshot store (base+delta per function family),
    /// present once [`Platform::enable_snapshot_store`] ran. Off by
    /// default: enabling it registers an extra file and changes nothing
    /// else until store-backed reads are switched on too.
    snapstore: Option<FamilyStore>,
    store_backed_reads: bool,
}

impl Platform {
    /// Creates a platform on a host with one disk of `profile`.
    pub fn new(profile: DiskProfile, seed: u64) -> Self {
        let host = Host::new(profile, seed);
        let device = host.primary_device();
        Platform {
            host,
            registry: FunctionRegistry::new(),
            device,
            snapstore: None,
            store_backed_reads: false,
        }
    }

    /// Enables the content-addressed snapshot store: every later record
    /// phase also ingests its memory image as a base layer (first record
    /// of a function) or a dirty-chunk delta (subsequent labels of the
    /// same function). Replaces any existing store.
    pub fn enable_snapshot_store(&mut self, cfg: StoreConfig) {
        self.snapstore = Some(FamilyStore::new(cfg, &mut self.host.fs, self.device));
    }

    /// The snapshot store, if enabled.
    pub fn snapshot_store(&self) -> Option<&FamilyStore> {
        self.snapstore.as_ref()
    }

    /// Routes restore reads of recorded memory files through the store's
    /// deduplicated chunk layout (requires the store to be enabled).
    /// Restore *correctness* is unchanged — only the physical I/O pattern
    /// moves to the shared chunk file.
    pub fn set_store_backed_reads(&mut self, on: bool) {
        self.store_backed_reads = on;
    }

    /// The underlying host (for inspection in tests/experiments).
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// Mutable host access (e.g. to add an EBS device).
    pub fn host_mut(&mut self) -> &mut Host {
        &mut self.host
    }

    /// Device snapshots are placed on.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Places future snapshot artifacts on `device` (e.g. remote EBS for
    /// the §6.7 experiment).
    pub fn set_device(&mut self, device: DeviceId) {
        self.device = device;
    }

    /// Attaches a tracer: every later record/invoke emits causal spans
    /// through the runtime and the fault resolver.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.host.tracer = tracer;
    }

    /// The trace handle (disabled unless [`Platform::set_tracer`] ran).
    pub fn tracer(&self) -> &Tracer {
        &self.host.tracer
    }

    /// Attaches a metrics registry.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.host.metrics = metrics;
    }

    /// The metrics handle.
    pub fn metrics(&self) -> &Metrics {
        &self.host.metrics
    }

    /// Attaches an engine self-profiler: later record/invoke calls count
    /// event-loop, fault-resolution, and store work into it.
    pub fn set_self_profile(&mut self, prof: SelfProfile) {
        self.host.selfprof = prof;
    }

    /// The self-profile handle.
    pub fn self_profile(&self) -> &SelfProfile {
        &self.host.selfprof
    }

    /// Arms deterministic storage fault injection on the primary device:
    /// later record/invoke calls run under `plan`'s schedule. The plan
    /// stays armed (and keeps consuming its injection budget) until
    /// [`Platform::clear_storage_faults`].
    pub fn inject_storage_faults(&mut self, plan: FaultPlan) {
        self.host.disks[0].set_fault_plan(plan);
    }

    /// Disarms fault injection, returning the plan (whose log holds the
    /// realized schedule).
    pub fn clear_storage_faults(&mut self) -> Option<FaultPlan> {
        self.host.disks[0].clear_fault_plan()
    }

    /// The realized injection schedule so far, as stable text (empty when
    /// no plan is armed or nothing fired). Byte-comparable across runs.
    pub fn fault_schedule(&self) -> String {
        self.host.disks[0]
            .fault_plan()
            .map(|p| p.schedule())
            .unwrap_or_default()
    }

    /// Registers a function.
    pub fn register(&mut self, function: Function) {
        self.registry.register(function);
    }

    /// The registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Runs the record phase for `name` with `input`, storing artifacts
    /// under `label`.
    pub fn record(&mut self, name: &str, label: &str, input: &Input) -> Result<(), String> {
        let device = self.device;
        let tracer = self.host.tracer.clone();
        let ctx = tracer.begin(
            "platform/record",
            "daemon",
            SimTime::ZERO,
            TraceContext::NONE,
        );
        tracer.tag(ctx, "function", name);
        tracer.tag(ctx, "label", label);
        tracer.push_parent(ctx);
        let result = self
            .registry
            .record(&mut self.host, name, label, input, device);
        tracer.pop_parent();
        tracer.end(ctx, tracer.latest_end().unwrap_or(SimTime::ZERO));
        result?;
        // Ingest the recorded image into the snapshot store: function
        // name = family, so the first label emits the base layer and each
        // later label a dirty-chunk delta over it.
        if let Some(store) = self.snapstore.as_mut() {
            let artifacts = self
                .registry
                .artifacts(name, label)
                .ok_or_else(|| format!("{name}.{label}: artifacts vanished after record"))?;
            store
                .record(
                    &mut self.host.fs,
                    name,
                    &format!("{name}.{label}"),
                    artifacts.snapshot.memory(),
                )
                .map_err(|e| format!("snapshot store ingest {name}.{label}: {e}"))?;
        }
        Ok(())
    }

    /// Test-phase invocation: drops caches (§6.1 hygiene), restores under
    /// `strategy`, and executes the function with `input`.
    pub fn invoke(
        &mut self,
        name: &str,
        label: &str,
        input: &Input,
        strategy: RestoreStrategy,
    ) -> Result<InvocationOutcome, String> {
        self.try_invoke(name, label, input, strategy)
            .map_err(|e| e.to_string())
    }

    /// [`Platform::invoke`] with a typed error: restore failures under
    /// storage faults are distinguishable from registry misses.
    pub fn try_invoke(
        &mut self,
        name: &str,
        label: &str,
        input: &Input,
        strategy: RestoreStrategy,
    ) -> Result<InvocationOutcome, InvokeError> {
        let spec = self.prepare_restore(name, label, input, strategy)?;
        let tracer = self.host.tracer.clone();
        let ctx = tracer.begin(
            "platform/invoke",
            "daemon",
            SimTime::ZERO,
            TraceContext::NONE,
        );
        tracer.tag(ctx, "function", name);
        tracer.tag(ctx, "label", label);
        tracer.tag(ctx, "strategy", strategy.label());
        tracer.push_parent(ctx);
        let result = faasnap::runtime::run(&mut self.host, vec![spec]);
        tracer.pop_parent();
        match result {
            Ok(mut outcomes) => {
                let outcome = outcomes.remove(0);
                tracer.end(ctx, SimTime::ZERO + outcome.report.total_time());
                Ok(outcome)
            }
            Err(e) => {
                tracer.end(ctx, tracer.latest_end().unwrap_or(SimTime::ZERO));
                Err(InvokeError::Restore(e))
            }
        }
    }

    /// Branches `n` concurrent restores from one snapshot (§6.6's
    /// same-snapshot burst taken to its logical end): all siblings share
    /// the frozen base image copy-on-write and the snapshot-keyed page
    /// state, so the working set is read from disk once for the whole
    /// batch. `n = 1` is byte-identical to [`Platform::try_invoke`].
    pub fn try_fork(
        &mut self,
        name: &str,
        label: &str,
        input: &Input,
        strategy: RestoreStrategy,
        n: usize,
    ) -> Result<ForkOutcome, InvokeError> {
        assert!(n >= 1, "a fork needs at least one sibling");
        let spec = self.prepare_restore(name, label, input, strategy)?;
        let tracer = self.host.tracer.clone();
        // A 1-way fork is an ordinary invocation and must trace as one.
        let span = if n > 1 {
            "platform/fork"
        } else {
            "platform/invoke"
        };
        let ctx = tracer.begin(span, "daemon", SimTime::ZERO, TraceContext::NONE);
        tracer.tag(ctx, "function", name);
        tracer.tag(ctx, "label", label);
        tracer.tag(ctx, "strategy", strategy.label());
        if n > 1 {
            tracer.tag(ctx, "siblings", n as u64);
        }
        tracer.push_parent(ctx);
        let result = faasnap::runtime::fork(&mut self.host, spec, n);
        tracer.pop_parent();
        match result {
            Ok(fork) => {
                let end = fork
                    .outcomes
                    .iter()
                    .map(|o| o.report.total_time())
                    .max()
                    .unwrap_or_default();
                tracer.end(ctx, SimTime::ZERO + end);
                Ok(fork)
            }
            Err(e) => {
                tracer.end(ctx, tracer.latest_end().unwrap_or(SimTime::ZERO));
                Err(InvokeError::Restore(e))
            }
        }
    }

    /// [`Platform::try_fork`] with a stringly error (CLI surface).
    pub fn fork(
        &mut self,
        name: &str,
        label: &str,
        input: &Input,
        strategy: RestoreStrategy,
        n: usize,
    ) -> Result<ForkOutcome, String> {
        self.try_fork(name, label, input, strategy, n)
            .map_err(|e| e.to_string())
    }

    /// Builds a test-phase spec without running it.
    pub fn build_spec(
        &self,
        name: &str,
        label: &str,
        input: &Input,
        strategy: RestoreStrategy,
    ) -> Result<InvocationSpec, String> {
        let f = self
            .registry
            .function(name)
            .ok_or_else(|| format!("unknown function {name}"))?;
        let trace = f.trace(input);
        let artifacts = self
            .registry
            .artifacts(name, label)
            .ok_or_else(|| format!("{name}: no artifacts recorded under label {label}"))?;
        Ok(artifacts.spec(strategy, trace))
    }

    /// Builds the spec of a test-phase restore, backs its memory file
    /// with the snapshot store's chunk layout when store-backed reads are
    /// on (so restore reads hit the deduplicated extents), and drops the
    /// page cache (§6.1 hygiene).
    fn prepare_restore(
        &mut self,
        name: &str,
        label: &str,
        input: &Input,
        strategy: RestoreStrategy,
    ) -> Result<InvocationSpec, InvokeError> {
        let spec = self
            .build_spec(name, label, input, strategy)
            .map_err(InvokeError::NotFound)?;
        if self.store_backed_reads {
            if let Some(store) = self.snapstore.as_ref() {
                if let (Some(artifacts), Ok(layout)) = (
                    self.registry.artifacts(name, label),
                    store.layout(&format!("{name}.{label}")),
                ) {
                    self.host
                        .map_chunked_file(artifacts.snapshot.mem_file(), layout);
                }
            }
        }
        self.host.drop_caches();
        Ok(spec)
    }

    /// Runs a burst of `parallelism` simultaneous invocations (§6.6). For
    /// [`BurstKind::SameSnapshot`] all VMs share the artifacts recorded
    /// under `label`; for [`BurstKind::DifferentSnapshots`] each VM `i`
    /// uses artifacts recorded under `label.i` (recording them on demand).
    /// Each VM receives `input` with a distinct content seed.
    pub fn burst(
        &mut self,
        name: &str,
        label: &str,
        input: &Input,
        strategy: RestoreStrategy,
        parallelism: u32,
        kind: BurstKind,
    ) -> Result<Vec<InvocationOutcome>, String> {
        assert!(parallelism > 0);
        let mut specs = Vec::with_capacity(parallelism as usize);
        match kind {
            BurstKind::SameSnapshot => {
                for i in 0..parallelism {
                    let vm_input = input.reseeded(input.seed ^ (0x1000 + i as u64));
                    specs.push(self.build_spec(name, label, &vm_input, strategy)?);
                }
            }
            BurstKind::DifferentSnapshots => {
                for i in 0..parallelism {
                    let inst = format!("{label}.{i}");
                    if self.registry.artifacts(name, &inst).is_none() {
                        // Record an independent snapshot (its own files),
                        // following the standard protocol: the record
                        // phase always uses the function's input A.
                        let rec_input = self
                            .registry
                            .function(name)
                            .ok_or_else(|| format!("unknown function {name}"))?
                            .input_a()
                            .reseeded(input.seed ^ (0x2000 + i as u64));
                        self.record(name, &inst, &rec_input)?;
                    }
                    let vm_input = input.reseeded(input.seed ^ (0x3000 + i as u64));
                    specs.push(self.build_spec(name, &inst, &vm_input, strategy)?);
                }
            }
        }
        self.host.drop_caches();
        faasnap::runtime::run(&mut self.host, specs).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimDuration;

    fn platform() -> Platform {
        let mut p = Platform::new(DiskProfile::nvme_c5d(), 7);
        p.register(faas_workloads::by_name("hello-world").unwrap());
        p
    }

    #[test]
    fn record_then_invoke() {
        let mut p = platform();
        let f = faas_workloads::by_name("hello-world").unwrap();
        p.record("hello-world", "a", &f.input_a()).unwrap();
        let out = p
            .invoke("hello-world", "a", &f.input_b(), RestoreStrategy::faasnap())
            .unwrap();
        assert!(out.report.total_time() > SimDuration::ZERO);
        assert!(out.report.total_faults() > 0);
    }

    #[test]
    fn invoke_without_record_fails() {
        let mut p = platform();
        let f = faas_workloads::by_name("hello-world").unwrap();
        let err = p
            .invoke("hello-world", "a", &f.input_b(), RestoreStrategy::Vanilla)
            .unwrap_err();
        assert!(err.contains("no artifacts"));
    }

    #[test]
    fn unknown_function_fails() {
        let mut p = platform();
        let input = Input::new(1.0, 0, 1);
        assert!(p
            .invoke("ghost", "a", &input, RestoreStrategy::Vanilla)
            .is_err());
    }

    #[test]
    fn same_snapshot_burst_shares_cache() {
        let mut p = platform();
        let f = faas_workloads::by_name("hello-world").unwrap();
        p.record("hello-world", "a", &f.input_a()).unwrap();
        let outs = p
            .burst(
                "hello-world",
                "a",
                &f.input_b(),
                RestoreStrategy::faasnap(),
                4,
                BurstKind::SameSnapshot,
            )
            .unwrap();
        assert_eq!(outs.len(), 4);
        // Read-once lock: the total prefetch traffic should be roughly one
        // loading set, not four (some double-reads from racing faults are
        // fine).
        let ls_pages = p
            .registry()
            .artifacts("hello-world", "a")
            .unwrap()
            .ls
            .file_pages();
        let loader_pages = p.host().disks[0]
            .stats()
            .pages_of(sim_storage::device::IoKind::LoaderPrefetch);
        assert!(
            loader_pages < ls_pages * 2,
            "loader read {loader_pages} pages for a {ls_pages}-page loading set"
        );
    }

    #[test]
    fn different_snapshot_burst_records_instances() {
        let mut p = platform();
        let f = faas_workloads::by_name("hello-world").unwrap();
        let outs = p
            .burst(
                "hello-world",
                "d",
                &f.input_b(),
                RestoreStrategy::Vanilla,
                3,
                BurstKind::DifferentSnapshots,
            )
            .unwrap();
        assert_eq!(outs.len(), 3);
        assert!(p.registry().artifacts("hello-world", "d.0").is_some());
        assert!(p.registry().artifacts("hello-world", "d.2").is_some());
        // Distinct memory files per instance.
        let f0 = p
            .registry()
            .artifacts("hello-world", "d.0")
            .unwrap()
            .snapshot
            .mem_file();
        let f1 = p
            .registry()
            .artifacts("hello-world", "d.1")
            .unwrap()
            .snapshot
            .mem_file();
        assert_ne!(f0, f1);
    }

    #[test]
    fn snapshot_store_dedups_instance_records() {
        let mut p = platform();
        p.enable_snapshot_store(faasnap_store::StoreConfig { chunk_pages: 64 });
        let f = faas_workloads::by_name("hello-world").unwrap();
        p.record("hello-world", "a", &f.input_a()).unwrap();
        let base_unique = p.snapshot_store().unwrap().unique_bytes();
        assert!(base_unique > 0);
        // A second instance of the same function: the delta must cost far
        // less than a second full base.
        p.record(
            "hello-world",
            "b",
            &f.input_a().reseeded(f.input_a().seed ^ 0x77),
        )
        .unwrap();
        let store = p.snapshot_store().unwrap();
        let added = store.unique_bytes() - base_unique;
        assert!(
            added * 2 < base_unique,
            "delta {added} bytes vs base {base_unique}"
        );
        assert!(store.dedup_ratio() > 1.0);
        store.store().debug_validate().unwrap();
        // The store's materialization is byte-equivalent to the recorded
        // snapshot memory.
        let mat = store.materialize("hello-world.b").unwrap();
        let orig = p
            .registry()
            .artifacts("hello-world", "b")
            .unwrap()
            .snapshot
            .memory()
            .checksum();
        assert_eq!(mat.checksum(), orig);
    }

    #[test]
    fn store_backed_reads_preserve_restore_correctness() {
        let f = faas_workloads::by_name("hello-world").unwrap();
        let run = |store_backed: bool| {
            let mut p = platform();
            if store_backed {
                p.enable_snapshot_store(faasnap_store::StoreConfig { chunk_pages: 64 });
                p.set_store_backed_reads(true);
            }
            p.record("hello-world", "a", &f.input_a()).unwrap();
            let out = p
                .invoke("hello-world", "a", &f.input_b(), RestoreStrategy::faasnap())
                .unwrap();
            out.final_memory.checksum()
        };
        // The guest sees identical memory either way; only the physical
        // I/O pattern differs.
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn burst_determinism() {
        let run = || {
            let mut p = platform();
            let f = faas_workloads::by_name("hello-world").unwrap();
            p.record("hello-world", "a", &f.input_a()).unwrap();
            p.burst(
                "hello-world",
                "a",
                &f.input_b(),
                RestoreStrategy::faasnap(),
                3,
                BurstKind::SameSnapshot,
            )
            .unwrap()
            .iter()
            .map(|o| o.report.total_time().as_nanos())
            .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
