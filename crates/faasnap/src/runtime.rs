//! The discrete-event invocation runtime.
//!
//! One [`Host`] (disks, page cache, in-flight I/O registry, CPU pool) can
//! run any number of VMs concurrently (bursty workloads share the cache
//! and the disk queue, §6.6). Each VM executes its function trace under a
//! [`RestoreStrategy`]; the runtime translates vCPU steps into fault
//! plans, disk I/O, loader prefetches, REAP handler services, and — in
//! the record phase — `mincore` working-set scans.
//!
//! Two fallible entry points drive it: [`run`] restores a batch of
//! independent VMs (one invocation, or a §6.6 burst) and [`fork`]
//! branches `n` copy-on-write siblings from one snapshot. A read that
//! exhausts its retry budget fails the batch closed with a
//! [`RestoreError`]; callers that cannot fail panic at their own call
//! site.
//!
//! Every disk read issued while the engine runs — a guest fault's
//! demand read, async readahead, a loader chunk, a REAP miss — is
//! submitted by one helper and completes as one `ReadDone` event that
//! names its consumer. One step puts the served pages in the page
//! cache, and every site, REAP's blocking working-set fetch at setup
//! included, retries under the per-site budget of
//! [`RetrySite::max_attempts`].
//!
//! Time lines up with the paper's measurement boundaries:
//!
//! - `t = 0`: the invocation request reaches the daemon. The FaaSnap
//!   loader starts prefetching *immediately* (§4.2: the loader lives in
//!   the daemon "so that it can start prefetching immediately when the
//!   daemon receives the invocation request").
//! - `setup_time`: VMM start + state restore + mapping setup (+ REAP's
//!   blocking working-set fetch). The vCPU starts here.
//! - `done`: the function replies; `invocation_time = done − setup_time`.

use std::rc::Rc;

use faasnap_obs::{Metrics, SelfProfile, TraceContext, Tracer};
use sim_core::engine::{Engine, Scheduler, World};
use sim_core::json::Value;
use sim_core::time::{SimDuration, SimTime};
use sim_mm::addr::{PageNum, PageRange};
use sim_mm::costs::FaultCosts;
use sim_mm::fault::{FaultKind, FaultOutcome, FaultResolver};
use sim_mm::page_table::{PageState, PageTable};
use sim_mm::share::SharedPages;
use sim_mm::userfaultfd::UffdRegistry;
use sim_mm::vma::{AddressSpace, Resolved};
use sim_storage::chunked::{merge_completions, ChunkedFile};
use sim_storage::device::{Disk, IoCompletion, IoKind, IoRequest};
use sim_storage::faults::{InjectedFault, InjectedFaultKind};
use sim_storage::file::{DeviceId, FileId, SimFs};
use sim_storage::profiles::DiskProfile;
use sim_vm::boot::BootModel;
use sim_vm::guest_kernel::GuestKernel;
use sim_vm::guest_memory::GuestMemory;
use sim_vm::overlay::{CowMemory, GuestMem, VmMemory};
use sim_vm::trace::Trace;
use sim_vm::vcpu::{Step, Vcpu};

use crate::error::{RestoreError, RetrySite};
use crate::loader::LoaderPlan;
use crate::loadingset::LoadingSet;
use crate::mapper;
use crate::reap::ReapHandler;
use crate::record::{MincoreRecorder, UffdTracker};
use crate::report::{FaultReport, InvocationReport, RetryRecord};
use crate::strategy::{FaasnapConfig, RestoreStrategy};
use crate::wset::{ReapWorkingSet, WorkingSet};

/// Interval of the daemon's RSS poll during the record phase (§5 polls
/// procfs; 2 ms keeps scan pacing responsive at negligible cost).
const MINCORE_POLL_INTERVAL: SimDuration = SimDuration::from_millis(2);

/// Base of the deterministic exponential backoff between read retries.
const RETRY_BACKOFF_BASE_US: u64 = 200;

/// Spends failed attempt `attempt` (0 is the first read) of the read of
/// `file` at `page` against `site`'s [`RetrySite::max_attempts`]: the
/// next attempt, or the typed error once the budget is spent.
fn next_attempt(
    site: RetrySite,
    file: FileId,
    page: u64,
    attempt: u32,
) -> Result<u32, RestoreError> {
    let next = attempt + 1;
    if next >= site.max_attempts() {
        return Err(RestoreError::ReadRetriesExhausted {
            site,
            file,
            page,
            attempts: next,
        });
    }
    Ok(next)
}

/// The retry policy of every read site. Past `site`'s budget it returns
/// the typed error (the loader and REAP's fetch degrade instead of
/// failing); otherwise it books retry `attempt + 1` in the metrics and
/// `faults` and returns it with its instant, one deterministic (sim-time)
/// backoff after `ready`.
fn retry(
    metrics: &Metrics,
    faults: &mut FaultReport,
    site: RetrySite,
    file: FileId,
    page: u64,
    attempt: u32,
    ready: SimTime,
) -> Result<(u32, SimTime), RestoreError> {
    let next = next_attempt(site, file, page, attempt)?;
    let wait = SimDuration::from_micros(RETRY_BACKOFF_BASE_US << attempt.min(10));
    let at = ready + wait;
    metrics.counter_inc("faasnap_retry_total", &[("site", site.label())]);
    faults.record_retry(
        RetryRecord {
            site,
            file,
            page,
            attempt: next,
            at_ns: at.as_nanos(),
        },
        wait,
    );
    Ok((next, at))
}

/// How a checked disk read ended, from its consumer's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum IoFate {
    /// Every requested page transferred (latency spikes land here: slow
    /// but complete).
    Ok,
    /// No usable data: hard read error, or a corruption that the
    /// consumer's checksum detected and discarded.
    Failed,
    /// Only the first `served` pages transferred.
    Short { served: u64 },
}

fn fate_of(fault: Option<InjectedFault>) -> IoFate {
    match fault {
        None => IoFate::Ok,
        Some(f) => match f.kind {
            InjectedFaultKind::LatencySpike => IoFate::Ok,
            InjectedFaultKind::ReadError | InjectedFaultKind::Corruption => IoFate::Failed,
            InjectedFaultKind::ShortRead => IoFate::Short {
                served: f.served_pages,
            },
        },
    }
}

/// Processor-sharing CPU pool: compute segments stretch when more
/// runnable vCPUs than cores exist (the 64-way burst bottleneck of §6.6).
#[derive(Clone, Debug)]
pub struct CpuPool {
    cores: u32,
    active: u32,
}

impl CpuPool {
    /// Creates a pool with `cores` physical cores (c5d.metal has 96).
    pub fn new(cores: u32) -> Self {
        assert!(cores > 0);
        CpuPool { cores, active: 0 }
    }

    /// Current slowdown factor for a newly started compute segment.
    pub fn stretch(&self) -> f64 {
        if self.active <= self.cores {
            1.0
        } else {
            self.active as f64 / self.cores as f64
        }
    }

    fn begin(&mut self) {
        self.active += 1;
    }

    fn end(&mut self) {
        debug_assert!(self.active > 0);
        self.active -= 1;
    }

    /// Currently runnable tasks.
    pub fn active(&self) -> u32 {
        self.active
    }
}

/// Shared host state.
#[derive(Clone, Debug)]
pub struct Host {
    /// Simulated file registry.
    pub fs: SimFs,
    /// Block devices, indexed by `DeviceId`.
    pub disks: Vec<Disk>,
    /// Snapshot-keyed shared page state: the page cache and in-flight
    /// read registry keyed by canonical chunk identity, shared by all
    /// VMs (fork siblings share hits and deduplicate reads through it).
    pub pages: SharedPages,
    /// Fault cost model.
    pub costs: FaultCosts,
    /// Boot/setup timing model.
    pub boot: BootModel,
    /// CPU pool.
    pub cpu: CpuPool,
    /// Trace handle shared by every layer on this host (disabled by
    /// default: emissions cost one `Option` branch).
    pub tracer: Tracer,
    /// Metrics registry shared by every layer on this host.
    pub metrics: Metrics,
    /// Self-profiling handle (simulator-effort counters) shared by every
    /// layer on this host.
    pub selfprof: SelfProfile,
    seed: u64,
    vmgenid: u64,
}

impl Host {
    /// Creates a host with one disk of the given profile and the paper's
    /// 192 GB / 96-core c5d.metal shape.
    pub fn new(profile: DiskProfile, seed: u64) -> Self {
        Host {
            fs: SimFs::new(),
            disks: vec![Disk::new(profile, seed ^ 0xD15C)],
            pages: SharedPages::new(40 * 1024 * 1024), // 160 GB of page cache
            costs: FaultCosts::default(),
            boot: BootModel::default(),
            cpu: CpuPool::new(96),
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            selfprof: SelfProfile::disabled(),
            seed,
            vmgenid: 0,
        }
    }

    /// Adds another device (e.g. remote EBS next to the local NVMe).
    pub fn add_device(&mut self, profile: DiskProfile) -> DeviceId {
        let id = DeviceId(self.disks.len() as u32);
        self.disks
            .push(Disk::new(profile, self.seed ^ 0xD15C ^ id.0 as u64));
        id
    }

    /// The primary device.
    pub fn primary_device(&self) -> DeviceId {
        DeviceId(0)
    }

    /// Drops the entire page cache (between-test hygiene, §6.1).
    pub fn drop_caches(&mut self) {
        self.pages.drop_cache();
    }

    /// Issues a fresh VM generation ID — the §7.4 mitigation for clones
    /// restored from one snapshot ("using a special device to provide
    /// unique VM IDs to the restored VMs"): guests reseed their PRNGs
    /// from it, so identical restored states never share randomness.
    pub fn next_vmgenid(&mut self) -> u64 {
        self.vmgenid += 1;
        self.vmgenid
    }

    /// Derives a fresh deterministic seed.
    pub fn next_seed(&mut self) -> u64 {
        self.seed = self
            .seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.seed
    }

    fn disk_of_file(&mut self, file: FileId) -> &mut Disk {
        let dev = self.fs.meta(file).device;
        &mut self.disks[dev.0 as usize]
    }

    /// Backs a logical file with a chunk-store extent map: subsequent
    /// reads of it resolve through the store's physical layout.
    pub fn map_chunked_file(&mut self, file: FileId, map: ChunkedFile) {
        self.pages.share_mut().map_file(file, map);
    }

    /// Submits a read, resolving store-backed files through their chunk
    /// maps (per-chunk physical requests, merged completion: latest chunk
    /// wins, first injected fault wins). Files without a map — every file
    /// today unless [`Host::map_chunked_file`] was called — submit
    /// directly, unchanged. Call sites keep passing *logical* requests:
    /// [`SharedPages`] canonicalizes cache and in-flight keys through the
    /// same maps, so siblings whose files share chunks share hits too.
    pub fn submit_checked(&mut self, now: SimTime, io: IoRequest) -> IoCompletion {
        let plan = match self.pages.share().chunked(io.file) {
            Some(map) => map.plan(&io),
            None => return self.disk_of_file(io.file).submit_checked(now, io),
        };
        let mut parts = Vec::with_capacity(plan.len());
        for phys in plan {
            parts.push(self.disk_of_file(phys.file).submit_checked(now, phys));
        }
        merge_completions(now, parts)
    }
}

/// Everything needed to run one invocation.
#[derive(Clone, Debug)]
pub struct InvocationSpec {
    /// Restore strategy.
    pub strategy: RestoreStrategy,
    /// The function's execution trace for this input.
    pub trace: Trace,
    /// Guest memory contents at restore (the snapshot's frozen state).
    pub memory: GuestMemory,
    /// The snapshot memory file.
    pub mem_file: FileId,
    /// Non-zero regions of the memory file (from the post-record scan).
    pub nonzero_regions: Vec<PageRange>,
    /// The loading set (FaaSnap strategies).
    pub ls: Option<LoadingSet>,
    /// The loading-set file (FaaSnap with `loading_set_file`).
    pub ls_file: Option<FileId>,
    /// The grouped working set (FaaSnap ablations, warm residency).
    pub ws: Option<WorkingSet>,
    /// REAP's working set (REAP strategy).
    pub reap_ws: Option<ReapWorkingSet>,
    /// REAP's compact working-set file.
    pub reap_ws_file: Option<FileId>,
    /// Enable freed-page sanitization in the guest kernel (record phase).
    pub sanitize: bool,
    /// Record working sets during this run (record phase).
    pub record: bool,
    /// Working-set group size used when recording (§4.3).
    pub record_group_size: u64,
    /// RSS growth threshold pacing mincore scans when recording (§5).
    pub record_scan_threshold: u64,
    /// Verify mapping correctness at each fault (cheap; off for Warm).
    pub verify_mappings: bool,
    /// Optional seeded fault-resolution delay injection (sim-mm's half
    /// of the fault plan). `None` draws nothing and perturbs nothing.
    pub mm_delay: Option<MmDelaySpec>,
}

/// Parameters for injected fault-resolution delays during one
/// invocation: each resolved fault's handling cost is inflated by
/// `extra` with probability `prob`, at most `budget` times, on a
/// private stream derived from `seed`.
#[derive(Clone, Copy, Debug)]
pub struct MmDelaySpec {
    /// Injector stream seed.
    pub seed: u64,
    /// Per-fault inflation probability.
    pub prob: f64,
    /// Extra handling cost per injected delay.
    pub extra: SimDuration,
    /// Maximum number of injections.
    pub budget: u64,
}

impl InvocationSpec {
    /// A minimal spec for `strategy` over a bare snapshot.
    pub fn new(
        strategy: RestoreStrategy,
        trace: Trace,
        memory: GuestMemory,
        mem_file: FileId,
    ) -> Self {
        let nonzero_regions = memory.nonzero_regions();
        InvocationSpec {
            strategy,
            trace,
            memory,
            mem_file,
            nonzero_regions,
            ls: None,
            ls_file: None,
            ws: None,
            reap_ws: None,
            reap_ws_file: None,
            sanitize: false,
            record: false,
            record_group_size: crate::wset::GROUP_SIZE,
            record_scan_threshold: crate::wset::GROUP_SIZE,
            verify_mappings: !matches!(strategy, RestoreStrategy::Warm),
            mm_delay: None,
        }
    }
}

/// The result of one invocation: measurements plus final state (the
/// record phase snapshots the final memory).
#[derive(Clone, Debug)]
pub struct InvocationOutcome {
    /// Measurements.
    pub report: InvocationReport,
    /// Guest memory at completion.
    pub final_memory: GuestMemory,
    /// Recorded working set (if `record`).
    pub ws: Option<WorkingSet>,
    /// Recorded REAP working set (if `record`).
    pub reap_ws: Option<ReapWorkingSet>,
}

// ---------------------------------------------------------------------
// Events and per-VM state
// ---------------------------------------------------------------------

/// One guest memory access, carried through fault handling.
#[derive(Clone, Copy, Debug)]
struct Access {
    page: PageNum,
    write: bool,
    /// Content installed on a write.
    token: u64,
}

/// The consumer of a checked read: what its completion does.
#[derive(Clone, Copy, Debug)]
enum Reader {
    /// The kernel's demand read for a blocked guest access, which
    /// completes `overhead` after the data arrives. `attempt` counts the
    /// access's failed reads so far.
    Fault {
        access: Access,
        started: SimTime,
        overhead: SimDuration,
        attempt: u32,
    },
    /// Async readahead, which no vCPU waits on. `guest_start` is the
    /// guest page backing the read's first file page.
    Readahead { guest_start: PageNum },
    /// The loader's read of plan chunk `idx`: the whole chunk on the
    /// first attempt, its uncovered suffix on retries.
    Loader { idx: usize, attempt: u32 },
    /// The REAP handler's read for a blocked out-of-set access.
    ReapMiss {
        access: Access,
        started: SimTime,
        attempt: u32,
    },
}

#[derive(Debug)]
enum Ev {
    /// Setup finished: the vCPU starts executing.
    StartVcpu { vm: usize },
    /// Resume the vCPU (after an I/O-backed fault completed).
    Resume { vm: usize },
    /// The loader begins prefetching (at request arrival).
    StartLoader { vm: usize },
    /// A compute segment finished.
    ComputeDone { vm: usize },
    /// A fixed-cost fault, or the REAP handler's service of a fault (its
    /// read included), finished: apply the access and resume the vCPU.
    FaultDone {
        vm: usize,
        access: Access,
        kind: FaultKind,
        started: SimTime,
        ctx: TraceContext,
    },
    /// Re-enter fault handling for a blocked access whose read failed,
    /// after deterministic backoff.
    FaultRetry {
        vm: usize,
        access: Access,
        attempt: u32,
    },
    /// A page-lock wait on an in-flight read finished. `attempt` is the
    /// waiter's own access attempt: a wake from a *cancelled* (failed)
    /// read re-faults with it bumped, so waiters consume retry budget
    /// too and a fail-forever read fails every waiter closed instead of
    /// livelocking the sibling group.
    InflightDone {
        vm: usize,
        access: Access,
        started: SimTime,
        attempt: u32,
        ctx: TraceContext,
    },
    /// A checked read issued for `reader` finished (perhaps
    /// unsuccessfully).
    ReadDone {
        vm: usize,
        io: IoRequest,
        fate: IoFate,
        ctx: TraceContext,
        reader: Reader,
    },
    /// Re-issue the uncovered part of loader chunk `idx` after backoff.
    LoaderRetry { vm: usize, idx: usize, attempt: u32 },
    /// Record-phase RSS poll tick.
    MincorePoll { vm: usize },
}

struct VmRun {
    vcpu: Vcpu,
    mem: VmMemory,
    kernel: GuestKernel,
    aspace: AddressSpace,
    pt: PageTable,
    uffd: UffdRegistry,
    resolver: FaultResolver,
    mem_file: FileId,
    ls: Option<LoadingSet>,
    ls_file: Option<FileId>,
    loader_plan: LoaderPlan,
    loader_next: usize,
    loader_started: Option<SimTime>,
    reap: Option<ReapHandler>,
    invoke_start: SimTime,
    done_at: Option<SimTime>,
    /// Set when the restore failed closed (retries exhausted): the vCPU
    /// stalls and the invocation surfaces a typed error instead of a
    /// result built on missing bytes.
    error: Option<RestoreError>,
    report: InvocationReport,
    mincore_rec: Option<MincoreRecorder>,
    uffd_track: Option<UffdTracker>,
    verify_mappings: bool,
    /// Root span covering request arrival to reply.
    ctx_invocation: TraceContext,
    /// Span covering vCPU execution (opened at `StartVcpu`).
    ctx_function: TraceContext,
    /// Span covering the loader's concurrent prefetch, open while
    /// chunks remain.
    ctx_loader: Option<TraceContext>,
}

struct SimWorld<'h> {
    host: &'h mut Host,
    vms: Vec<VmRun>,
}

/// Runs a batch of invocations that all arrive at `t = 0` on one host,
/// surfacing restore failures (retry exhaustion under storage faults) as
/// typed errors. The first failed VM's error is returned; a failed batch
/// produces no outcomes (fail closed — no partially-restored results).
pub fn run(
    host: &mut Host,
    specs: Vec<InvocationSpec>,
) -> Result<Vec<InvocationOutcome>, RestoreError> {
    Ok(run_specs(host, specs, None)?.0)
}

/// The result of an N-way fork: per-sibling outcomes plus sharing
/// accounting for the whole batch.
#[derive(Clone, Debug)]
pub struct ForkOutcome {
    /// Per-sibling invocation outcomes, in sibling order.
    pub outcomes: Vec<InvocationOutcome>,
    /// Disk pages transferred by the whole fork (all siblings, all I/O).
    pub disk_read_pages: u64,
    /// Non-zero pages of the shared base image (stored once for all
    /// siblings).
    pub shared_pages: u64,
    /// Private copied-on-write pages, summed over all siblings.
    pub private_pages: u64,
}

/// Branches `n` concurrent restores from one snapshot. Every sibling
/// shares the frozen base image read-only (dirty pages copy on write
/// into a private anonymous overlay) and the snapshot-keyed page state,
/// so the working set is read from disk once for the whole batch instead
/// of once per sibling. `n = 1` is byte-identical to [`run`] of the one
/// spec: same seed draws, same event order, same trace, same metrics.
pub fn fork(host: &mut Host, spec: InvocationSpec, n: usize) -> Result<ForkOutcome, RestoreError> {
    assert!(n >= 1, "a fork needs at least one sibling");
    let read_before: u64 = host.disks.iter().map(|d| d.stats().pages).sum();
    let base = Rc::new(spec.memory.clone());
    // The fork span (and its metrics below) only exist for real forks:
    // a 1-way fork stays indistinguishable from an independent restore.
    let fork_ctx = if n > 1 {
        let ctx = host
            .tracer
            .begin("fork", "vm", SimTime::ZERO, host.tracer.current_parent());
        host.tracer.tag(ctx, "siblings", n as u64);
        host.tracer.push_parent(ctx);
        Some(ctx)
    } else {
        None
    };
    let specs: Vec<InvocationSpec> = (0..n).map(|_| spec.clone()).collect();
    let result = run_specs(host, specs, Some(&base));
    if let Some(ctx) = fork_ctx {
        host.tracer.pop_parent();
        let end = host.tracer.latest_end().unwrap_or(SimTime::ZERO);
        host.tracer.end(ctx, end);
    }
    let (outcomes, private_pages) = result?;
    let read_after: u64 = host.disks.iter().map(|d| d.stats().pages).sum();
    let disk_read_pages = read_after - read_before;
    let shared_pages = base.nonzero_count();
    if n > 1 {
        host.metrics
            .counter_add("faasnap_fork_siblings_total", &[], n as u64);
        host.metrics
            .counter_add("faasnap_fork_disk_read_pages_total", &[], disk_read_pages);
        host.metrics
            .counter_add("faasnap_fork_shared_pages_total", &[], shared_pages);
        host.metrics
            .counter_add("faasnap_fork_private_pages_total", &[], private_pages);
    }
    Ok(ForkOutcome {
        outcomes,
        disk_read_pages,
        shared_pages,
        private_pages,
    })
}

/// Shared engine loop behind both entry points. With `fork_base`, every
/// VM's memory is a copy-on-write overlay over that image; the second
/// return value is the total private (copied) page count.
fn run_specs(
    host: &mut Host,
    specs: Vec<InvocationSpec>,
    fork_base: Option<&Rc<GuestMemory>>,
) -> Result<(Vec<InvocationOutcome>, u64), RestoreError> {
    // Each run has its own clock starting at zero: device queues and the
    // in-flight registry (which hold absolute times) start idle.
    for disk in &mut host.disks {
        disk.reset_queue();
    }
    host.pages.clear_inflight();

    let mut engine: Engine<Ev> = Engine::new();
    let mut vms = Vec::with_capacity(specs.len());

    for (i, spec) in specs.into_iter().enumerate() {
        let seed = host.next_seed();
        let (vm, setup_time) = prepare_vm(host, spec, seed, i, fork_base);
        // The loader starts at request arrival; the vCPU after setup.
        if !vm.loader_plan.is_empty() {
            engine
                .scheduler()
                .schedule(SimTime::ZERO, Ev::StartLoader { vm: i });
        }
        engine
            .scheduler()
            .schedule(SimTime::ZERO + setup_time, Ev::StartVcpu { vm: i });
        if vm.mincore_rec.is_some() {
            engine.scheduler().schedule(
                SimTime::ZERO + MINCORE_POLL_INTERVAL,
                Ev::MincorePoll { vm: i },
            );
        }
        vms.push(vm);
    }

    let mut world = SimWorld { host, vms };
    {
        let _scope = world.host.selfprof.scope("runtime/engine_run");
        engine.run(&mut world);
    }

    let SimWorld { host, vms } = world;
    let estats = engine.stats();
    host.selfprof.harvest([
        ("engine/delivered", estats.delivered),
        ("engine/scheduled", estats.scheduled),
    ]);
    host.selfprof
        .max("engine/peak_pending", estats.peak_pending);
    let mut outcomes = Vec::with_capacity(vms.len());
    let mut private_pages: u64 = 0;
    for mut vm in vms {
        if let Some(err) = vm.error.take() {
            return Err(err);
        }
        assert!(
            vm.done_at.is_some(),
            "vCPU never finished — deadlocked simulation?"
        );
        // Footprint accounting (§7.3): anonymous residency plus the
        // page-cache pages of this VM's backing files.
        vm.report.resident_pages = vm.pt.rss_pages();
        vm.report.cache_pages = host.pages.resident_of(vm.mem_file)
            + vm.ls_file.map(|f| host.pages.resident_of(f)).unwrap_or(0);
        vm.report.faults.injected_mm_delays = vm.resolver.injected_delays();
        if let VmMemory::Cow(c) = &vm.mem {
            private_pages += c.private_pages();
        }
        outcomes.push(InvocationOutcome {
            report: vm.report,
            final_memory: vm.mem.into_guest_memory(),
            ws: vm.mincore_rec.map(|r| r.finish()),
            reap_ws: vm.uffd_track.map(|t| t.finish()),
        });
    }
    Ok((outcomes, private_pages))
}

// ---------------------------------------------------------------------
// VM preparation (strategy-specific setup)
// ---------------------------------------------------------------------

fn prepare_vm(
    host: &mut Host,
    spec: InvocationSpec,
    seed: u64,
    idx: usize,
    fork_base: Option<&Rc<GuestMemory>>,
) -> (VmRun, SimDuration) {
    let total_pages = spec.memory.total_pages();
    let mut aspace = AddressSpace::new();
    let mut pt = PageTable::new(total_pages);
    let mut uffd = UffdRegistry::new();
    let mut kernel = GuestKernel::new();
    kernel.set_sanitize_freed(spec.sanitize);
    let mut resolver = FaultResolver::new(host.costs.clone(), seed);
    resolver.set_tracer(host.tracer.clone());
    resolver.set_self_profile(host.selfprof.clone());
    if let Some(d) = spec.mm_delay {
        resolver.set_delay_injection(d.seed, d.prob, d.extra, d.budget);
    }
    let strategy_label = spec.strategy.label();
    let mut report = InvocationReport::default();
    let mut reap = None;
    let mut loader_plan = LoaderPlan::default();

    let mut setup = SimDuration::ZERO;
    match spec.strategy {
        RestoreStrategy::Warm => {
            // Live VM: anonymous memory, previously touched pages resident.
            mapper::map_warm(&mut aspace, total_pages);
            for r in &spec.nonzero_regions {
                pt.set_range(*r, PageState::Mapped);
            }
            if let Some(ws) = &spec.ws {
                for &p in ws.pages() {
                    pt.install(p);
                }
            }
        }
        RestoreStrategy::Vanilla => {
            mapper::map_vanilla(&mut aspace, total_pages, spec.mem_file);
            setup = host.boot.snapshot_setup_base() + host.costs.mmap_calls(1);
        }
        RestoreStrategy::Cached => {
            mapper::map_vanilla(&mut aspace, total_pages, spec.mem_file);
            setup = host.boot.snapshot_setup_base() + host.costs.mmap_calls(1);
            // Pre-load the memory file into the page cache (reference
            // setting; the warm-up itself is not measured, §6.1).
            host.pages.insert_range(spec.mem_file, 0, total_pages);
        }
        RestoreStrategy::Reap => {
            mapper::map_vanilla(&mut aspace, total_pages, spec.mem_file);
            uffd.register(PageRange::new(0, total_pages));
            // Blocking fetch: one sequential O_DIRECT read of the compact
            // working-set file (bypasses the page cache), then bulk
            // UFFDIO_COPY installs. Failed reads retry with deterministic
            // backoff; exhaustion (or missing artifacts) degrades to pure
            // userfaultfd demand paging — slower, never incorrect.
            let mut fetch = SimDuration::ZERO;
            // The fetch runs before the engine starts and bypasses the page
            // cache, so it submits directly: no window goes in flight, and
            // an injected fault is booked without a trace event (the
            // invocation span does not exist yet).
            match (spec.reap_ws.as_ref(), spec.reap_ws_file) {
                (Some(ws), Some(ws_file)) => {
                    let io = IoRequest {
                        file: ws_file,
                        page: 0,
                        pages: ws.len(),
                        kind: IoKind::ReapFetch,
                    };
                    let (mut issue, mut attempt) = (SimTime::ZERO, 0);
                    loop {
                        let (done, fate) = if ws.is_empty() {
                            (SimTime::ZERO, IoFate::Ok)
                        } else {
                            let completion = host.submit_checked(issue, io);
                            if let Some(f) = completion.fault {
                                book_injection(&host.metrics, &mut report.faults, f);
                            }
                            (completion.done, fate_of(completion.fault))
                        };
                        if fate == IoFate::Ok {
                            fetch = ReapHandler::fetch_time(ws.len(), done - SimTime::ZERO);
                            for &p in ws.pages() {
                                pt.set_state(p, PageState::HostPte);
                            }
                            report.fetch_pages = ws.len();
                            break;
                        }
                        // An O_DIRECT whole-file read is all-or-nothing:
                        // short reads re-issue the full request too.
                        match retry(
                            &host.metrics,
                            &mut report.faults,
                            RetrySite::ReapFetch,
                            ws_file,
                            0,
                            attempt,
                            done,
                        ) {
                            Ok(next) => (attempt, issue) = next,
                            Err(_) => {
                                report.degraded = true;
                                host.metrics.counter_inc(
                                    "faasnap_degraded_total",
                                    &[("mode", "reap-no-prefetch")],
                                );
                                fetch = done - SimTime::ZERO;
                                break;
                            }
                        }
                    }
                }
                _ => {
                    // No recorded working set (e.g. the record phase was
                    // aborted): every fault goes to the handler.
                    report.degraded = true;
                }
            }
            setup = host.boot.snapshot_setup_base() + host.costs.mmap_calls(1) + fetch;
            report.fetch_time = fetch;
            reap = Some(ReapHandler::new(seed ^ 0x5EA9));
        }
        RestoreStrategy::FaaSnap(mut config) => {
            config.validate().expect("invalid FaaSnap config");
            // Robustness: if the loading-set artifacts are missing or
            // corrupt (e.g. the file was evicted from snapshot storage),
            // degrade gracefully — per-region needs the loading set, the
            // ablation loaders need the working set; strip whatever is
            // unavailable and fall back toward vanilla demand paging.
            if config.loading_set_file && (spec.ls.is_none() || spec.ls_file.is_none()) {
                config.loading_set_file = false;
                config.per_region_mapping = false;
                report.degraded = true;
            }
            if config.concurrent_paging && !config.loading_set_file && spec.ws.is_none() {
                config.concurrent_paging = false;
                config.per_region_mapping = false;
                report.degraded = true;
            }
            let mmaps = setup_faasnap_mapping(&mut aspace, &spec, total_pages, config);
            setup = host.boot.snapshot_setup_base() + host.costs.mmap_calls(mmaps);
            loader_plan = build_loader_plan(&spec, config);
            report.fetch_pages = loader_plan.total_pages();
        }
    }
    report.setup_time = setup;
    report.mmap_calls = aspace.mmap_calls();
    report.vm_generation_id = host.next_vmgenid();

    // Root span: request arrival (t = 0) to reply. One display track per
    // VM so bursts render as parallel lanes in Perfetto.
    let ctx_invocation = host.tracer.begin(
        "invocation",
        "vm",
        SimTime::ZERO,
        host.tracer.current_parent(),
    );
    host.tracer.set_track(ctx_invocation, idx as u64 + 1);
    host.tracer.tag(ctx_invocation, "strategy", strategy_label);
    host.tracer
        .tag(ctx_invocation, "vm_generation_id", report.vm_generation_id);
    let ctx_setup = host
        .tracer
        .complete("setup", "vm", SimTime::ZERO, setup, ctx_invocation);
    host.tracer.tag(ctx_setup, "mmap_calls", report.mmap_calls);

    // A fork sibling maps the shared base copy-on-write; an ordinary
    // restore owns its image outright.
    let mem = match fork_base {
        None => VmMemory::Flat(spec.memory),
        Some(base) => VmMemory::Cow(CowMemory::new(base.clone())),
    };
    let vm = VmRun {
        vcpu: Vcpu::new(spec.trace),
        mem,
        kernel,
        aspace,
        pt,
        uffd,
        resolver,
        mem_file: spec.mem_file,
        ls: spec.ls,
        ls_file: spec.ls_file,
        loader_plan,
        loader_next: 0,
        loader_started: None,
        reap,
        invoke_start: SimTime::ZERO + setup,
        done_at: None,
        error: None,
        report,
        mincore_rec: spec.record.then(|| {
            MincoreRecorder::with_params(
                total_pages,
                WorkingSet::with_group_size(spec.record_group_size),
                spec.record_scan_threshold,
            )
        }),
        uffd_track: spec.record.then(|| UffdTracker::new(total_pages)),
        verify_mappings: spec.verify_mappings,
        ctx_invocation,
        ctx_function: TraceContext::NONE,
        ctx_loader: None,
    };
    (vm, setup)
}

fn setup_faasnap_mapping(
    aspace: &mut AddressSpace,
    spec: &InvocationSpec,
    total_pages: u64,
    config: FaasnapConfig,
) -> u64 {
    if !config.per_region_mapping {
        mapper::map_vanilla(aspace, total_pages, spec.mem_file);
        return 1;
    }
    // `prepare_vm` already degraded the config if the loading-set
    // artifacts are absent, so this match only misses on caller bugs —
    // and then the safe fallback is the no-loading-set mapping.
    let empty = LoadingSet::default();
    let (ls, ls_file) = match (spec.ls.as_ref(), spec.ls_file) {
        (Some(ls), Some(ls_file)) if config.loading_set_file => (ls, ls_file),
        _ => (&empty, spec.mem_file),
    };
    if config.hierarchical_mmap {
        mapper::map_faasnap_hierarchical(
            aspace,
            total_pages,
            &spec.nonzero_regions,
            ls,
            spec.mem_file,
            ls_file,
        )
    } else {
        mapper::map_faasnap_flat(
            aspace,
            total_pages,
            &spec.nonzero_regions,
            ls,
            spec.mem_file,
            ls_file,
        )
    }
}

fn build_loader_plan(spec: &InvocationSpec, config: FaasnapConfig) -> LoaderPlan {
    if !config.concurrent_paging {
        return LoaderPlan::default();
    }
    if config.loading_set_file {
        return match (spec.ls.as_ref(), spec.ls_file) {
            (Some(ls), Some(ls_file)) => LoaderPlan::from_loading_set(ls, ls_file),
            _ => LoaderPlan::default(),
        };
    }
    let Some(ws) = spec.ws.as_ref() else {
        return LoaderPlan::default();
    };
    if config.per_region_mapping {
        LoaderPlan::group_order(ws, &spec.memory, spec.mem_file)
    } else {
        LoaderPlan::address_order(ws, &spec.memory, spec.mem_file)
    }
}

// ---------------------------------------------------------------------
// Event handling
// ---------------------------------------------------------------------

impl World for SimWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::StartVcpu { vm } => {
                let v = &mut self.vms[vm];
                v.ctx_function = self
                    .host
                    .tracer
                    .begin("function", "vm", now, v.ctx_invocation);
                self.drive_vcpu(vm, now, sched)
            }
            Ev::StartLoader { vm } => {
                let v = &mut self.vms[vm];
                v.loader_started = Some(now);
                let ctx =
                    self.host
                        .tracer
                        .begin("loader/prefetch", "loader", now, v.ctx_invocation);
                self.host.tracer.tag(ctx, "chunks", v.loader_plan.len());
                self.host
                    .tracer
                    .tag(ctx, "pages", v.loader_plan.total_pages());
                v.ctx_loader = Some(ctx);
                self.loader_issue_next(vm, now, sched);
            }
            Ev::ComputeDone { vm } => {
                self.host.cpu.end();
                self.drive_vcpu(vm, now, sched);
            }
            Ev::FaultDone {
                vm,
                access,
                kind,
                started,
                ctx,
            } => {
                self.finish_access(vm, access, kind, started, now, ctx);
                self.drive_vcpu(vm, now, sched);
            }
            Ev::FaultRetry {
                vm,
                access,
                attempt,
            } => {
                // Re-resolve from scratch: a concurrent read may have
                // populated the cache meanwhile, in which case the access
                // completes without touching the disk again.
                if self.vms[vm].error.is_none() {
                    self.reenter(vm, access, attempt, now, sched);
                }
            }
            Ev::Resume { vm } => self.drive_vcpu(vm, now, sched),
            Ev::InflightDone {
                vm,
                access,
                started,
                attempt,
                ctx,
            } => {
                if self.vms[vm].error.is_some() {
                    return;
                }
                // If the read this waiter was parked on failed, its page
                // locks were cancelled and the cache was never populated:
                // re-fault from scratch instead of installing a page with
                // no backing bytes. Waiting on a failed read spends one of
                // the waiter's own attempts, with no backoff and no retry
                // booked — otherwise siblings alternating between issuing
                // and waiting on each other's failing reads would reset
                // their budgets forever.
                match self.vms[vm].aspace.resolve(access.page) {
                    Some(Resolved::File { file, file_page })
                        if !self.host.pages.contains(file, file_page) =>
                    {
                        self.host.tracer.end(ctx, now);
                        match next_attempt(RetrySite::GuestFault, file, file_page, attempt) {
                            Ok(next) => self.reenter(vm, access, next, now, sched),
                            Err(e) => self.fail_vm(vm, now, e),
                        }
                    }
                    _ => {
                        self.finish_access(vm, access, FaultKind::Major, started, now, ctx);
                        self.drive_vcpu(vm, now, sched);
                    }
                }
            }
            Ev::ReadDone {
                vm,
                io,
                fate,
                ctx,
                reader,
            } => self.read_done(vm, io, fate, ctx, reader, now, sched),
            Ev::LoaderRetry { vm, idx, attempt } => {
                let v = &self.vms[vm];
                if v.done_at.is_some() || v.error.is_some() || v.loader_next >= v.loader_plan.len()
                {
                    // The invocation ended (or the loader was abandoned)
                    // while this retry was pending: just let the loader
                    // wind down (closes its span).
                    self.loader_issue_next(vm, now, sched);
                    return;
                }
                let chunk = *v.loader_plan.chunk(idx);
                // Resume at the first page of the chunk still uncovered
                // (guest faults or other VMs may have filled some of it).
                let end = chunk.page + chunk.pages;
                let mut p = chunk.page;
                while p < end
                    && (self.host.pages.contains(chunk.file, p)
                        || self.host.pages.completion_of(chunk.file, p).is_some())
                {
                    p += 1;
                }
                if p >= end {
                    self.loader_issue_next(vm, now, sched);
                    return;
                }
                let io = IoRequest {
                    file: chunk.file,
                    page: p,
                    pages: end - p,
                    kind: IoKind::LoaderPrefetch,
                };
                self.loader_read(vm, idx, io, attempt, now, sched);
            }
            Ev::MincorePoll { vm } => {
                let v = &mut self.vms[vm];
                if v.done_at.is_some() || v.error.is_some() {
                    return;
                }
                if let Some(rec) = &mut v.mincore_rec {
                    rec.poll(v.pt.rss_pages(), &v.aspace, &v.pt, &self.host.pages);
                }
                sched.schedule(now + MINCORE_POLL_INTERVAL, Ev::MincorePoll { vm });
            }
        }
    }
}

impl SimWorld<'_> {
    /// Applies the completed access and updates stats.
    fn finish_access(
        &mut self,
        vm: usize,
        access: Access,
        kind: FaultKind,
        started: SimTime,
        now: SimTime,
        ctx: TraceContext,
    ) {
        self.host.tracer.end(ctx, now);
        self.host
            .metrics
            .counter_inc("faasnap_faults_total", &[("class", kind.label())]);
        self.host
            .metrics
            .observe("faasnap_fault_wait_us", &[], now - started);
        let v = &mut self.vms[vm];
        v.pt.install(access.page);
        v.report.record_fault(kind, now - started);
        if access.write {
            v.mem.write(access.page, access.token);
        }
    }

    /// Runs the vCPU until it blocks (fault/compute) or finishes.
    fn drive_vcpu(&mut self, vm: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        if self.vms[vm].error.is_some() {
            return;
        }
        loop {
            let step = self.vms[vm].vcpu.next_step();
            match step {
                Step::Done => {
                    let v = &mut self.vms[vm];
                    v.done_at = Some(now);
                    v.report.invocation_time = now - v.invoke_start;
                    self.host
                        .tracer
                        .tag(v.ctx_function, "faults", v.report.total_faults());
                    self.host.tracer.end(v.ctx_function, now);
                    self.host.tracer.end(v.ctx_invocation, now);
                    // Stop the loader: prefetching past the reply only
                    // wastes disk bandwidth other VMs need.
                    v.loader_next = v.loader_plan.len();
                    // Final mincore scan (the daemon scans once more after
                    // the invocation completes).
                    if let Some(rec) = &mut v.mincore_rec {
                        rec.scan(&v.aspace, &v.pt, &self.host.pages);
                    }
                    return;
                }
                Step::Compute(d) => {
                    let stretch = self.host.cpu.stretch();
                    self.host.cpu.begin();
                    sched.schedule(now + d.mul_f64(stretch), Ev::ComputeDone { vm });
                    return;
                }
                Step::Free { range } => {
                    let v = &mut self.vms[vm];
                    let cost = v.kernel.free_pages(&mut v.mem, range);
                    if !cost.is_zero() {
                        let stretch = self.host.cpu.stretch();
                        self.host.cpu.begin();
                        sched.schedule(now + cost.mul_f64(stretch), Ev::ComputeDone { vm });
                        return;
                    }
                }
                Step::Access { page, write, token } => {
                    let access = Access { page, write, token };
                    if self.handle_access(vm, access, 0, now, sched) {
                        return; // blocked on a fault
                    }
                }
            }
        }
    }

    /// Re-enters fault handling for a blocked access, resuming the vCPU
    /// if the access no longer blocks.
    fn reenter(
        &mut self,
        vm: usize,
        access: Access,
        attempt: u32,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        if !self.handle_access(vm, access, attempt, now, sched) {
            self.drive_vcpu(vm, now, sched);
        }
    }

    /// Handles one access; returns true if the vCPU blocked. `attempt`
    /// counts the access's failed reads so far.
    fn handle_access(
        &mut self,
        vm: usize,
        access: Access,
        attempt: u32,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) -> bool {
        let page = access.page;
        let v = &mut self.vms[vm];
        let (outcome, ctx) = v.resolver.resolve_traced(
            page,
            &v.aspace,
            &mut v.pt,
            &mut self.host.pages,
            &v.uffd,
            now,
            v.ctx_function,
        );
        // Record-phase fault tracking: every first host-visible fault.
        if !matches!(outcome, FaultOutcome::NoFault) {
            if let Some(t) = &mut v.uffd_track {
                t.on_fault(page);
            }
            if v.verify_mappings {
                verify_mapping(v, page);
            }
        }
        match outcome {
            FaultOutcome::NoFault => {
                if access.write {
                    v.mem.write(page, access.token);
                }
                return false;
            }
            FaultOutcome::Resolved { cost, kind } => {
                let ev = Ev::FaultDone {
                    vm,
                    access,
                    kind,
                    started: now,
                    ctx,
                };
                sched.schedule(now + cost, ev);
            }
            FaultOutcome::WaitInflight { ready_at, cost } => {
                let ev = Ev::InflightDone {
                    vm,
                    access,
                    started: now,
                    attempt,
                    ctx,
                };
                sched.schedule(ready_at + cost, ev);
            }
            FaultOutcome::NeedsIo {
                io,
                overhead,
                async_io,
            } => {
                let reader = Reader::Fault {
                    access,
                    started: now,
                    overhead,
                    attempt,
                };
                self.read(vm, now, now, io, ctx, reader, sched);
                // Linux async readahead: the next window of a sequential
                // stream is read without blocking the faulting task.
                if let Some(aio) = async_io {
                    self.readahead(vm, aio, page + io.pages, now, sched);
                }
            }
            FaultOutcome::Userfault { file, file_page } => {
                let handler = v.reap.as_mut().expect("uffd fault without handler");
                if self.host.pages.contains(file, file_page) {
                    let svc = handler.serve_cached(now, &self.host.costs);
                    let ev = Ev::FaultDone {
                        vm,
                        access,
                        kind: FaultKind::Uffd,
                        started: now,
                        ctx,
                    };
                    sched.schedule(svc.resume_at, ev);
                } else {
                    // The handler preads exactly the faulting page from the
                    // memory file (Figure 2's > 128 µs population: most
                    // out-of-set misses pay a full random disk read).
                    let issue_at = handler.serve_uncached(now, &self.host.costs);
                    v.report.guest_fault_read_pages += 1;
                    v.report.fault_block_requests += 1;
                    let io = IoRequest {
                        file,
                        page: file_page,
                        pages: 1,
                        kind: IoKind::ReapMiss,
                    };
                    let reader = Reader::ReapMiss {
                        access,
                        started: now,
                        attempt,
                    };
                    self.read(vm, now, issue_at, io, ctx, reader, sched);
                }
            }
        }
        true
    }

    /// Submits a checked read for `vm`, issued at `at`: books any injected
    /// fault at `now` (the fault instant), marks the window in flight
    /// until the read completes, and schedules the completion for
    /// `reader`.
    #[allow(clippy::too_many_arguments)]
    fn read(
        &mut self,
        vm: usize,
        now: SimTime,
        at: SimTime,
        io: IoRequest,
        ctx: TraceContext,
        reader: Reader,
        sched: &mut Scheduler<Ev>,
    ) {
        let completion = self.host.submit_checked(at, io);
        if let Some(f) = completion.fault {
            self.record_injection(vm, now, f);
        }
        self.host
            .pages
            .insert_window(io.file, io.page, io.pages, completion.done);
        let fate = fate_of(completion.fault);
        sched.schedule(
            completion.done,
            Ev::ReadDone {
                vm,
                io,
                fate,
                ctx,
                reader,
            },
        );
    }

    /// Completes a checked read: puts the served pages in the page cache
    /// and cancels the page locks of the unserved tail (its waiters
    /// re-fault), then hands the outcome to the read's consumer.
    #[allow(clippy::too_many_arguments)]
    fn read_done(
        &mut self,
        vm: usize,
        io: IoRequest,
        fate: IoFate,
        ctx: TraceContext,
        reader: Reader,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let served = match fate {
            IoFate::Ok => io.pages,
            IoFate::Short { served } => served,
            IoFate::Failed => 0,
        };
        let pages = &mut self.host.pages;
        pages.insert_range(io.file, io.page, served);
        pages.complete_window(io.file, io.page, served, now);
        pages.cancel_window(io.file, io.page + served, io.pages - served, now);
        // A blocked access whose read failed retries after backoff, or
        // fails the invocation closed; `ready` is when its backoff starts.
        let (site, access, attempt, ready) = match reader {
            // A short read still completes the access: the faulting page
            // is always within the served prefix (readahead starts at it).
            Reader::Fault {
                access,
                started,
                overhead,
                ..
            } if fate != IoFate::Failed => {
                let v = &mut self.vms[vm];
                v.report.guest_fault_read_pages += served;
                v.report.fault_block_requests += 1;
                // Kernel-side handling overhead on top of the disk wait.
                let done = now + overhead;
                self.finish_access(vm, access, FaultKind::Major, started, done, ctx);
                sched.schedule(done, Ev::Resume { vm });
                return;
            }
            Reader::Fault {
                access,
                overhead,
                attempt,
                ..
            } => (RetrySite::GuestFault, access, attempt, now + overhead),
            // The handler reads one page, so anything but a full read is
            // a failure (a one-page short read is injected as an error).
            Reader::ReapMiss {
                access, started, ..
            } if fate == IoFate::Ok => {
                let resume_at = match self.vms[vm].reap.as_mut() {
                    Some(handler) => handler.complete_with_io(started, now, &self.host.costs),
                    None => now,
                };
                let ev = Ev::FaultDone {
                    vm,
                    access,
                    kind: FaultKind::Uffd,
                    started,
                    ctx,
                };
                sched.schedule(resume_at, ev);
                return;
            }
            Reader::ReapMiss {
                access, attempt, ..
            } => (RetrySite::ReapMiss, access, attempt, now),
            Reader::Readahead { guest_start } => {
                self.host.tracer.end(ctx, now);
                // Failed async readahead is dropped, never retried (as the
                // kernel does): no vCPU waits on it, and any page it
                // covered re-faults on demand.
                if fate != IoFate::Failed {
                    self.readahead_done(vm, io, served, guest_start, now, sched);
                }
                return;
            }
            Reader::Loader { idx, attempt } => {
                self.host.tracer.end(ctx, now);
                self.loader_done(vm, idx, io, served, attempt, now, sched);
                return;
            }
        };
        self.host.tracer.end(ctx, now);
        let faults = &mut self.vms[vm].report.faults;
        match retry(
            &self.host.metrics,
            faults,
            site,
            io.file,
            io.page,
            attempt,
            ready,
        ) {
            Ok((attempt, at)) => {
                let ev = Ev::FaultRetry {
                    vm,
                    access,
                    attempt,
                };
                sched.schedule(at, ev);
            }
            Err(e) => self.fail_vm(vm, now, e),
        }
    }

    /// Issues an async readahead window, which no vCPU waits on.
    /// `guest_start` is the guest page backing `io.page`.
    fn readahead(
        &mut self,
        vm: usize,
        io: IoRequest,
        guest_start: PageNum,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let parent = self.vms[vm].ctx_function;
        let ctx = self.host.tracer.begin("readahead/async", "mm", now, parent);
        self.host.tracer.tag(ctx, "pages", io.pages);
        let reader = Reader::Readahead { guest_start };
        self.read(vm, now, now, io, ctx, reader, sched);
    }

    /// Accounts a completed readahead window and, if the guest is
    /// streaming through it, chains the next one.
    fn readahead_done(
        &mut self,
        vm: usize,
        io: IoRequest,
        served: u64,
        guest_start: PageNum,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let v = &mut self.vms[vm];
        v.report.guest_fault_read_pages += served;
        v.report.fault_block_requests += 1;
        // Readahead marker: if the guest has consumed up to (at least)
        // one window behind this one, it is streaming — chain the next
        // async window to stay ahead (Linux grows and re-arms async
        // readahead the same way). A shortened window breaks the chain
        // (the gap re-faults on demand).
        let marker = guest_start.saturating_sub(io.pages);
        if served < io.pages || v.done_at.is_some() || v.pt.state(marker) != PageState::Mapped {
            return;
        }
        // The chain only continues while the stream stays within one
        // mapping: the next guest page must still resolve to the expected
        // file offset, or the readahead state is stale (crossed a VMA
        // boundary, e.g. into a different loading-set region).
        let (file, file_start) = (io.file, io.page + io.pages);
        let guest_start = guest_start + io.pages;
        if guest_start >= v.pt.total_pages() {
            return;
        }
        match v.aspace.resolve(guest_start) {
            Some(Resolved::File { file: f, file_page }) if f == file && file_page == file_start => {
            }
            _ => return,
        }
        // Clamp to the mapping extent and trim at cached or in-flight
        // pages.
        let room = v.aspace.contiguous_extent(guest_start, io.pages);
        let mut pages = 0;
        for fp in file_start..file_start + room {
            if self.host.pages.contains(file, fp)
                || self.host.pages.completion_of(file, fp).is_some()
            {
                break;
            }
            pages += 1;
        }
        if pages == 0 {
            return;
        }
        let io = IoRequest {
            file,
            page: file_start,
            pages,
            kind: IoKind::FaultRead,
        };
        self.readahead(vm, io, guest_start, now, sched);
    }

    /// Advances the loader: skips chunks that are already fully cached
    /// (the read-once lock under same-snapshot bursts, §6.6), then issues
    /// the next read.
    fn loader_issue_next(&mut self, vm: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        loop {
            let v = &self.vms[vm];
            let idx = v.loader_next;
            if idx >= v.loader_plan.len() {
                // Prefetch complete (or abandoned at reply): close the span.
                if let Some(ctx) = self.vms[vm].ctx_loader.take() {
                    self.host.tracer.end(ctx, now);
                }
                return;
            }
            let chunk = *v.loader_plan.chunk(idx);
            self.vms[vm].loader_next += 1;
            // Read-once: skip fully cached or in-flight chunks.
            let covered = (chunk.page..chunk.page + chunk.pages).all(|p| {
                self.host.pages.contains(chunk.file, p)
                    || self.host.pages.completion_of(chunk.file, p).is_some()
            });
            if covered {
                self.host
                    .metrics
                    .counter_inc("faasnap_prefetch_skipped_chunks_total", &[]);
                continue;
            }
            self.loader_read(vm, idx, chunk, 0, now, sched);
            return;
        }
    }

    /// Issues one loader read (a whole chunk, or its uncovered suffix on
    /// a retry).
    fn loader_read(
        &mut self,
        vm: usize,
        idx: usize,
        io: IoRequest,
        attempt: u32,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let parent = self.vms[vm].ctx_loader.unwrap_or(TraceContext::NONE);
        let ctx = self
            .host
            .tracer
            .begin("loader/chunk", "loader", now, parent);
        self.host.tracer.tag(ctx, "file_page", io.page);
        self.host.tracer.tag(ctx, "pages", io.pages);
        let reader = Reader::Loader { idx, attempt };
        self.read(vm, now, now, io, ctx, reader, sched);
        self.host
            .metrics
            .counter_add("faasnap_prefetch_bytes_total", &[], io.pages * 4096);
        self.host
            .metrics
            .counter_inc("faasnap_prefetch_chunks_total", &[]);
    }

    /// Handles a finished loader read. A failed or short read keeps its
    /// served prefix and retries after backoff — its record names the
    /// first unserved page — or, once the budget is spent, degrades.
    /// Prefetch failure is never fatal: if the loading-set file itself is
    /// unreadable, the whole-file memory mapping is overlaid (MAP_FIXED)
    /// so every remaining page demand-pages from the memory file with
    /// byte-identical contents; otherwise the loader is simply abandoned
    /// and the guest's own faults finish the job.
    #[allow(clippy::too_many_arguments)]
    fn loader_done(
        &mut self,
        vm: usize,
        idx: usize,
        io: IoRequest,
        served: u64,
        attempt: u32,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let v = &mut self.vms[vm];
        if served == io.pages {
            if let Some(start) = v.loader_started {
                v.report.fetch_time = now - start;
            }
            self.loader_issue_next(vm, now, sched);
            return;
        }
        let faults = &mut v.report.faults;
        let page = io.page + served;
        let retried = retry(
            &self.host.metrics,
            faults,
            RetrySite::Loader,
            io.file,
            page,
            attempt,
            now,
        );
        if let Ok((attempt, at)) = retried {
            sched.schedule(at, Ev::LoaderRetry { vm, idx, attempt });
            return;
        }
        v.report.degraded = true;
        let mode = if v.ls_file == Some(io.file) {
            mapper::map_vanilla(&mut v.aspace, v.pt.total_pages(), v.mem_file);
            "vanilla-fallback"
        } else {
            "prefetch-abandoned"
        };
        v.loader_next = v.loader_plan.len();
        self.host
            .metrics
            .counter_inc("faasnap_degraded_total", &[("mode", mode)]);
        self.loader_issue_next(vm, now, sched);
    }

    /// Marks an invocation as failed closed: the vCPU never resumes, the
    /// loader stops, and [`run`] or [`fork`] surfaces the error.
    fn fail_vm(&mut self, vm: usize, now: SimTime, err: RestoreError) {
        if self.vms[vm].error.is_some() {
            return;
        }
        let site = match &err {
            RestoreError::ReadRetriesExhausted { site, .. } => site.label(),
            RestoreError::RecordIncomplete { .. } => "record",
        };
        self.host
            .metrics
            .counter_inc("faasnap_restore_failed_total", &[("site", site)]);
        let v = &mut self.vms[vm];
        v.error = Some(err);
        v.loader_next = v.loader_plan.len();
        let (ctx_f, ctx_i) = (v.ctx_function, v.ctx_invocation);
        self.host.tracer.end(ctx_f, now);
        self.host.tracer.end(ctx_i, now);
    }

    /// Accounts one observed fault injection (report + metrics + trace).
    /// Only ever called when an injection actually fired, so healthy runs
    /// emit no new metric series or trace events.
    fn record_injection(&mut self, vm: usize, now: SimTime, f: InjectedFault) {
        book_injection(&self.host.metrics, &mut self.vms[vm].report.faults, f);
        if self.host.tracer.is_enabled() {
            self.host.tracer.instant(
                "fault_injected",
                "fault",
                now,
                self.vms[vm].ctx_invocation,
                vec![("kind", Value::from(f.kind.label()))],
            );
        }
    }
}

/// Books one observed fault injection in `faults` and the metrics.
fn book_injection(metrics: &Metrics, faults: &mut FaultReport, f: InjectedFault) {
    faults.record_injection(f.kind);
    metrics.counter_inc("faasnap_fault_injected_total", &[("kind", f.kind.label())]);
}

/// Verifies the mapping serves the right bytes for a faulting page:
/// memory-file mappings must preserve offsets, loading-set mappings must
/// match the recorded file layout, and anonymous mappings may only cover
/// pages whose snapshot content is zero.
fn verify_mapping(v: &VmRun, page: PageNum) {
    match v.aspace.resolve(page) {
        Some(Resolved::File { file, file_page }) if file == v.mem_file => {
            assert_eq!(
                file_page, page,
                "memory-file mapping must be offset-preserving (page {page})"
            );
        }
        Some(Resolved::File { file, file_page }) => {
            let ls =
                v.ls.as_ref()
                    .expect("non-memfile mapping implies a loading set");
            assert_eq!(Some(file), v.ls_file, "unexpected backing file");
            assert_eq!(
                ls.file_page_of(page),
                Some(file_page),
                "loading-set mapping must match the recorded layout (page {page})"
            );
        }
        Some(Resolved::Anonymous) => {
            assert_eq!(
                v.mem.read(page),
                0,
                "page {page} mapped anonymously but snapshot content is non-zero"
            );
        }
        None => panic!("fault on unmapped page {page}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadingset::MERGE_GAP;
    use sim_storage::file::FileKind;
    use sim_vm::trace::TraceOp;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    /// A tiny snapshot: non-zero pages in [100, 300), zero elsewhere.
    fn tiny_world() -> (Host, GuestMemory, FileId) {
        let mut host = Host::new(DiskProfile::nvme_c5d(), 11);
        let mut mem = GuestMemory::new(2048);
        for p in 100..300 {
            mem.write(p, p * 13 + 1);
        }
        let dev = host.primary_device();
        let f = host
            .fs
            .create("tiny.mem", FileKind::SnapshotMemory, 2048, dev);
        (host, mem, f)
    }

    fn run_one(host: &mut Host, spec: InvocationSpec) -> InvocationOutcome {
        run(host, vec![spec]).unwrap().remove(0)
    }

    fn touch_trace(start: u64, len: u64, write: bool) -> Trace {
        let mut t = Trace::new();
        t.push(TraceOp::Touch {
            range: PageRange::with_len(start, len),
            stride: 1,
            write,
            per_page_compute: us(1),
            token_seed: if write { 5 } else { 0 },
        });
        t
    }

    #[test]
    fn warm_run_no_setup_no_faults_on_resident_pages() {
        let (mut host, mem, f) = tiny_world();
        let mut spec =
            InvocationSpec::new(RestoreStrategy::Warm, touch_trace(100, 50, false), mem, f);
        spec.verify_mappings = false;
        let out = run_one(&mut host, spec);
        assert_eq!(out.report.setup_time, SimDuration::ZERO);
        assert_eq!(out.report.total_faults(), 0, "resident pages do not fault");
        // 50 pages x 1us compute.
        let ms = out.report.invocation_time.as_millis_f64();
        assert!((0.04..0.07).contains(&ms), "invoke {ms}ms");
    }

    #[test]
    fn warm_faults_anon_on_new_pages() {
        let (mut host, mem, f) = tiny_world();
        let mut spec =
            InvocationSpec::new(RestoreStrategy::Warm, touch_trace(1000, 20, true), mem, f);
        spec.verify_mappings = false;
        let out = run_one(&mut host, spec);
        assert_eq!(out.report.anon_faults, 20);
        assert_eq!(out.report.major_faults, 0);
    }

    #[test]
    fn vanilla_majors_then_cached_minors() {
        let (mut host, mem, f) = tiny_world();
        let spec = InvocationSpec::new(
            RestoreStrategy::Vanilla,
            touch_trace(100, 100, false),
            mem.clone(),
            f,
        );
        let out = run_one(&mut host, spec);
        assert!(out.report.major_faults > 0);
        assert!(out.report.guest_fault_read_pages >= 100);
        // Second run without dropping caches: everything is cached.
        let spec2 = InvocationSpec::new(
            RestoreStrategy::Vanilla,
            touch_trace(100, 100, false),
            mem,
            f,
        );
        let out2 = run_one(&mut host, spec2);
        assert_eq!(out2.report.major_faults, 0);
        assert_eq!(out2.report.minor_faults, 100);
        assert!(out2.report.total_time() < out.report.total_time());
    }

    #[test]
    fn cached_strategy_pre_warms() {
        let (mut host, mem, f) = tiny_world();
        host.drop_caches();
        let spec = InvocationSpec::new(
            RestoreStrategy::Cached,
            touch_trace(100, 200, false),
            mem,
            f,
        );
        let out = run_one(&mut host, spec);
        assert_eq!(out.report.major_faults, 0);
        assert_eq!(out.report.minor_faults, 200);
    }

    #[test]
    fn vanilla_write_to_zero_page_reads_disk() {
        // The semantic gap (§3.2): guest anonymous allocation becomes a
        // file-backed read under whole-file mapping.
        let (mut host, mem, f) = tiny_world();
        host.drop_caches();
        let spec = InvocationSpec::new(
            RestoreStrategy::Vanilla,
            touch_trace(1000, 10, true),
            mem,
            f,
        );
        let out = run_one(&mut host, spec);
        assert!(
            out.report.major_faults > 0,
            "zero-page writes still read the file"
        );
    }

    #[test]
    fn faasnap_write_to_zero_page_is_anonymous() {
        let (mut host, mem, f) = tiny_world();
        host.drop_caches();
        // Build artifacts: ws = the nonzero pages; heap pages zero.
        let mut ws = WorkingSet::new();
        ws.extend(&(100..300).collect::<Vec<_>>());
        let ls = LoadingSet::build(&ws, &mem, MERGE_GAP);
        let dev = host.primary_device();
        let ls_file = host
            .fs
            .create("tiny.ls", FileKind::LoadingSet, ls.file_pages(), dev);
        let mut spec = InvocationSpec::new(
            RestoreStrategy::faasnap(),
            touch_trace(1000, 10, true),
            mem,
            f,
        );
        spec.ls = Some(ls);
        spec.ls_file = Some(ls_file);
        spec.ws = Some(ws);
        let out = run_one(&mut host, spec);
        assert_eq!(
            out.report.anon_faults, 10,
            "heap writes are anonymous faults"
        );
        assert_eq!(out.report.guest_fault_read_pages, 0);
        assert!(!out.report.degraded);
    }

    #[test]
    fn reap_prefetch_gives_host_pte_faults() {
        let (mut host, mem, f) = tiny_world();
        host.drop_caches();
        let mut reap_ws = ReapWorkingSet::new();
        for p in 100..200 {
            reap_ws.record(p);
        }
        let dev = host.primary_device();
        let ws_file = host.fs.create("tiny.ws", FileKind::WorkingSet, 100, dev);
        let mut spec =
            InvocationSpec::new(RestoreStrategy::Reap, touch_trace(100, 150, false), mem, f);
        spec.reap_ws = Some(reap_ws);
        spec.reap_ws_file = Some(ws_file);
        let out = run_one(&mut host, spec);
        assert_eq!(out.report.host_pte_faults, 100, "prefetched pages");
        assert_eq!(
            out.report.uffd_faults, 50,
            "pages outside the WS go to user space"
        );
        assert_eq!(out.report.fetch_pages, 100);
        assert!(out.report.setup_time > host.boot.snapshot_setup_base());
    }

    #[test]
    fn cpu_pool_stretch() {
        let mut pool = CpuPool::new(2);
        assert_eq!(pool.stretch(), 1.0);
        pool.begin();
        pool.begin();
        assert_eq!(pool.stretch(), 1.0);
        pool.begin();
        assert_eq!(pool.stretch(), 1.5);
        assert_eq!(pool.active(), 3);
        pool.end();
        pool.end();
        pool.end();
        assert_eq!(pool.active(), 0);
    }

    #[test]
    fn burst_shares_cache_across_vms() {
        let (mut host, mem, f) = tiny_world();
        host.drop_caches();
        let mk = |mem: &GuestMemory| {
            InvocationSpec::new(
                RestoreStrategy::Vanilla,
                touch_trace(100, 200, false),
                mem.clone(),
                f,
            )
        };
        let outs = run(&mut host, vec![mk(&mem), mk(&mem), mk(&mem)]).unwrap();
        let total_majors: u64 = outs.iter().map(|o| o.report.major_faults).sum();
        let total_minors_waits: u64 = outs
            .iter()
            .map(|o| o.report.minor_faults + o.report.major_faults)
            .sum();
        // All 600 accesses fault, but disk pages are read far fewer than
        // 600 times thanks to sharing (in-flight waits + cache hits).
        assert_eq!(total_minors_waits, 600);
        let read_pages = host.disks[0].stats().pages_of(IoKind::FaultRead);
        assert!(
            read_pages < 450,
            "cache sharing should dedupe reads, got {read_pages}"
        );
        assert!(total_majors > 0);
    }

    #[test]
    fn fork_siblings_share_reads_and_keep_private_writes() {
        let (mut host, mem, f) = tiny_world();
        host.drop_caches();
        let spec =
            InvocationSpec::new(RestoreStrategy::Vanilla, touch_trace(100, 50, true), mem, f);
        let fork = fork(&mut host, spec, 4).unwrap();
        assert_eq!(fork.outcomes.len(), 4);
        // All siblings fault the same 50 pages, but the disk serves far
        // fewer than 4x: in-flight waits and cache hits dedupe reads.
        let read_pages = host.disks[0].stats().pages_of(IoKind::FaultRead);
        assert!(
            read_pages < 4 * 50,
            "siblings share reads, got {read_pages}"
        );
        assert_eq!(fork.shared_pages, 200, "base image stored once");
        assert!(
            fork.private_pages >= 4 * 50,
            "every sibling copies its dirty pages, got {}",
            fork.private_pages
        );
        for o in &fork.outcomes {
            for p in 100..150 {
                assert_eq!(o.final_memory.read(p), Trace::token_for(5, p));
            }
            assert_eq!(o.final_memory.read(150), 150 * 13 + 1, "clean page intact");
        }
    }

    #[test]
    fn fork_of_one_matches_independent_run() {
        let mk = |mem: &GuestMemory, f: FileId| {
            InvocationSpec::new(
                RestoreStrategy::Vanilla,
                touch_trace(100, 80, false),
                mem.clone(),
                f,
            )
        };
        let (mut host, mem, f) = tiny_world();
        host.drop_caches();
        let solo = run_one(&mut host, mk(&mem, f));
        // A fresh identical host, so seed and vmgenid draws line up.
        let (mut host2, mem2, f2) = tiny_world();
        host2.drop_caches();
        let fork = fork(&mut host2, mk(&mem2, f2), 1).unwrap();
        let sib = &fork.outcomes[0];
        assert_eq!(solo.report.total_faults(), sib.report.total_faults());
        assert_eq!(solo.report.invocation_time, sib.report.invocation_time);
        assert_eq!(solo.report.setup_time, sib.report.setup_time);
        assert_eq!(solo.final_memory, sib.final_memory);
        assert_eq!(
            host.disks[0].stats(),
            host2.disks[0].stats(),
            "identical I/O stream"
        );
    }

    #[test]
    fn loader_populates_cache_for_late_vcpu() {
        // With a long setup and a small loading set, the loader finishes
        // before the vCPU starts: all guest faults become minors.
        let (mut host, mem, f) = tiny_world();
        host.drop_caches();
        let mut ws = WorkingSet::new();
        ws.extend(&(100..300).collect::<Vec<_>>());
        let ls = LoadingSet::build(&ws, &mem, MERGE_GAP);
        let dev = host.primary_device();
        let ls_file = host
            .fs
            .create("tiny.ls", FileKind::LoadingSet, ls.file_pages(), dev);
        let mut spec = InvocationSpec::new(
            RestoreStrategy::faasnap(),
            touch_trace(100, 200, false),
            mem,
            f,
        );
        spec.ls = Some(ls);
        spec.ls_file = Some(ls_file);
        spec.ws = Some(ws);
        let out = run_one(&mut host, spec);
        assert_eq!(
            out.report.major_faults, 0,
            "loader beat the 50ms setup window"
        );
        assert_eq!(out.report.minor_faults, 200);
        assert!(out.report.fetch_time > SimDuration::ZERO);
    }

    #[test]
    fn record_mode_produces_working_sets() {
        let (mut host, mem, f) = tiny_world();
        host.drop_caches();
        let mut spec = InvocationSpec::new(
            RestoreStrategy::Vanilla,
            touch_trace(100, 50, false),
            mem,
            f,
        );
        spec.record = true;
        let out = run_one(&mut host, spec);
        let ws = out.ws.expect("working set recorded");
        let reap = out.reap_ws.expect("REAP set recorded");
        assert_eq!(reap.len(), 50, "every first fault recorded");
        assert!(ws.len() >= 50, "mincore WS includes readahead");
    }

    #[test]
    fn guest_writes_visible_in_final_memory() {
        let (mut host, mem, f) = tiny_world();
        let spec = InvocationSpec::new(RestoreStrategy::Vanilla, touch_trace(100, 5, true), mem, f);
        let out = run_one(&mut host, spec);
        for p in 100..105 {
            assert_eq!(out.final_memory.read(p), Trace::token_for(5, p));
        }
        assert_eq!(
            out.final_memory.read(105),
            105 * 13 + 1,
            "untouched page intact"
        );
    }

    #[test]
    fn restored_clones_get_unique_generation_ids() {
        // §7.4: "a special device to provide unique VM IDs to the
        // restored VMs" so clones from one snapshot diverge their PRNGs.
        let (mut host, mem, f) = tiny_world();
        let mk = || {
            InvocationSpec::new(
                RestoreStrategy::Vanilla,
                touch_trace(100, 5, false),
                mem.clone(),
                f,
            )
        };
        let a = run_one(&mut host, mk());
        let b = run_one(&mut host, mk());
        assert_ne!(a.report.vm_generation_id, b.report.vm_generation_id);
        assert!(a.report.vm_generation_id > 0);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let (mut host, mem, f) = tiny_world();
            let spec = InvocationSpec::new(
                RestoreStrategy::Vanilla,
                touch_trace(100, 100, false),
                mem,
                f,
            );
            run_one(&mut host, spec).report.total_time().as_nanos()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "mapped anonymously but snapshot content is non-zero")]
    fn mapping_verification_catches_stale_scans() {
        let (mut host, mem, f) = tiny_world();
        let mut spec =
            InvocationSpec::new(RestoreStrategy::Vanilla, touch_trace(100, 5, false), mem, f);
        // Sabotage: map the file with a shifted offset.
        spec.nonzero_regions.clear();
        let out_aspace_bug = spec.clone();
        let _ = out_aspace_bug;
        // Build a custom broken world by mapping manually through the
        // public API: easiest is to shift the whole-file mapping by
        // replacing mem_file offsets — emulate by running with a spec
        // whose memory was shifted relative to the file.
        let mut shifted = GuestMemory::new(2048);
        for p in 100..300 {
            shifted.write(p + 1, p * 13 + 1);
        }
        spec.memory = shifted;
        // Now page 101 is non-zero in "RAM" but the file offset check
        // can't catch that (offsets still align); instead the anonymous
        // check fires on a page the mapper thinks is zero. Use FaaSnap
        // mapping to trigger it.
        spec.strategy = RestoreStrategy::faasnap();
        spec.nonzero_regions = vec![PageRange::new(100, 300)]; // stale scan
        let mut ws = WorkingSet::new();
        ws.extend(&[100]);
        let ls = LoadingSet::build(&ws, &spec.memory, 0);
        let dev = host.primary_device();
        let ls_file = host
            .fs
            .create("x.ls", FileKind::LoadingSet, 1.max(ls.file_pages()), dev);
        spec.ls = Some(ls);
        spec.ls_file = Some(ls_file);
        spec.ws = Some(ws);
        // Touching page 300 (zero per stale scan, non-zero in RAM).
        spec.trace = touch_trace(300, 1, false);
        run_one(&mut host, spec);
    }
}
