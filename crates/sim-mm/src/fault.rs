//! Guest page fault classification and resolution planning.
//!
//! [`FaultResolver::resolve`] is the model of `kvm_mmu_page_fault` plus the
//! host fault path. Given a faulting guest page it returns a
//! [`FaultOutcome`] describing *what must happen* — an immediate cost for
//! anonymous/minor/host-PTE faults, a disk I/O plus overhead for majors, or
//! delivery to user space for `userfaultfd`-registered ranges. The DES
//! runtime executes the plan (schedules the disk completion, inserts the
//! readahead window into the page cache, resumes the vCPU).
//!
//! The classification order mirrors the kernel:
//!
//! 1. page fully mapped → no fault;
//! 2. host PTE present (REAP-prefetched) → cheap fault;
//! 3. `userfaultfd`-registered → user-space delivery;
//! 4. anonymous VMA → zero-fill fault;
//! 5. file-backed, cached → minor fault;
//! 6. file-backed, uncached → major fault with readahead.
//!
//! Each fault looks its page's VMA up once. The major-fault window is
//! clamped by that VMA's extent, and the resolved backing location goes
//! back to the caller beside the plan, so the runtime's mapping
//! verification checks the same resolution instead of looking it up
//! again. Only a host-PTE fault resolves no mapping.

use faasnap_obs::{SelfProfile, TraceContext, Tracer};
use sim_core::detmap::DetMap;
use sim_core::rng::Prng;
use sim_core::time::{SimDuration, SimTime};
use sim_storage::device::{IoKind, IoRequest};
use sim_storage::file::FileId;
use sim_storage::readahead::ReadaheadState;

use crate::addr::PageNum;
use crate::costs::FaultCosts;
use crate::page_table::{PageState, PageTable};
use crate::share::{Cover, SharedPages};
use crate::userfaultfd::UffdRegistry;
use crate::vma::{AddressSpace, Resolved, Vma};

/// The class of a handled fault, for accounting (Figure 2, Figure 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Anonymous zero-fill.
    Anon,
    /// Served from the page cache.
    Minor,
    /// Required a disk read.
    Major,
    /// Host PTE already present (prefetched via `UFFDIO_COPY`).
    HostPte,
    /// Delivered to a user-space `userfaultfd` handler.
    Uffd,
}

impl FaultKind {
    /// Trace span name for a fault of this class.
    pub fn span_name(self) -> &'static str {
        match self {
            FaultKind::Anon => "fault/anon",
            FaultKind::Minor => "fault/minor",
            FaultKind::Major => "fault/major",
            FaultKind::HostPte => "fault/host_pte",
            FaultKind::Uffd => "fault/uffd",
        }
    }

    /// Metric label value (`class="..."`) for a fault of this class.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Anon => "anon",
            FaultKind::Minor => "minor",
            FaultKind::Major => "major",
            FaultKind::HostPte => "host_pte",
            FaultKind::Uffd => "uffd",
        }
    }
}

/// The plan for resolving one fault.
#[derive(Clone, Debug)]
pub enum FaultOutcome {
    /// The page is already fully mapped; no host-visible fault occurs.
    NoFault,
    /// Fault resolves after `cost` with no I/O. The page is installed.
    Resolved {
        /// Handling time.
        cost: SimDuration,
        /// Fault class (`Anon`, `Minor`, or `HostPte`).
        kind: FaultKind,
    },
    /// Major fault: the runtime must submit `io`, wait for completion,
    /// add `overhead`, insert the read window into the page cache, and
    /// install the faulting page. For sequential streams the kernel also
    /// issues `async_io` — the *next* window, read without blocking the
    /// faulting task (Linux async readahead), which is what makes
    /// streaming reads bandwidth-bound instead of latency-bound.
    NeedsIo {
        /// Disk read covering the faulting page and its readahead window.
        io: IoRequest,
        /// Kernel-side handling overhead on top of the disk wait.
        overhead: SimDuration,
        /// Optional non-blocking read of the following window.
        async_io: Option<IoRequest>,
    },
    /// The page is already being read (loader prefetch, another VM, or an
    /// earlier readahead window): sleep on the page lock until `ready_at`,
    /// then pay `cost` to install. Counted as a major fault whose disk
    /// wait overlaps someone else's read.
    WaitInflight {
        /// Completion instant of the in-flight read.
        ready_at: sim_core::time::SimTime,
        /// Install cost after the read completes.
        cost: SimDuration,
    },
    /// The fault must be delivered to the user-space handler registered
    /// for this range (REAP). The runtime routes it to the handler model.
    Userfault {
        /// Backing file of the faulting page (the snapshot memory file).
        file: FileId,
        /// Page within the backing file.
        file_page: u64,
    },
}

/// Seeded fault-resolution delay injection (sim-mm's half of the fault
/// plan): each resolved fault's handling cost is inflated by `extra`
/// with probability `prob`, up to `budget` injections. The injector owns
/// its own rng stream so arming it never perturbs cost sampling.
#[derive(Clone, Debug)]
struct DelayInjection {
    prob: f64,
    extra: SimDuration,
    budget: u64,
    injected: u64,
    rng: Prng,
}

/// Per-address-space fault resolver: owns readahead state per backing
/// file and the RNG used for cost sampling.
#[derive(Clone, Debug)]
pub struct FaultResolver {
    costs: FaultCosts,
    readahead: DetMap<FileId, ReadaheadState>,
    rng: Prng,
    /// Maximum readahead window in pages (Linux default 32 = 128 KiB).
    max_ra_pages: u64,
    initial_ra_pages: u64,
    /// Trace handle; disabled by default so `resolve` stays cost-free.
    tracer: Tracer,
    /// Self-profiling handle (resolution/map-op counters); disabled by
    /// default.
    selfprof: SelfProfile,
    /// Optional injected resolution delays; absent on healthy resolvers.
    delay: Option<DelayInjection>,
}

impl FaultResolver {
    /// Creates a resolver with the given cost model and RNG seed.
    pub fn new(costs: FaultCosts, seed: u64) -> Self {
        FaultResolver {
            costs,
            readahead: DetMap::new(),
            rng: Prng::new(seed),
            max_ra_pages: 32,
            initial_ra_pages: 4,
            tracer: Tracer::disabled(),
            selfprof: SelfProfile::disabled(),
            delay: None,
        }
    }

    /// Arms fault-resolution delay injection: each handled fault's cost
    /// (or major-fault overhead) is inflated by `extra` with probability
    /// `prob`, at most `budget` times. Deterministic for a given seed.
    pub fn set_delay_injection(&mut self, seed: u64, prob: f64, extra: SimDuration, budget: u64) {
        self.delay = Some(DelayInjection {
            prob,
            extra,
            budget,
            injected: 0,
            rng: Prng::new(seed ^ 0xDE1A_FA17_0000_5EED),
        });
    }

    /// Disarms delay injection.
    pub fn clear_delay_injection(&mut self) {
        self.delay = None;
    }

    /// Number of delays injected so far.
    pub fn injected_delays(&self) -> u64 {
        self.delay.as_ref().map_or(0, |d| d.injected)
    }

    /// Inflates a resolution cost if the injector fires. With no injector
    /// armed this is the identity and draws nothing.
    fn inject_delay(&mut self, cost: SimDuration) -> SimDuration {
        if let Some(inj) = self.delay.as_mut() {
            if inj.injected < inj.budget && inj.rng.chance(inj.prob) {
                inj.injected += 1;
                return cost + inj.extra;
            }
        }
        cost
    }

    /// Attaches a tracer so [`FaultResolver::resolve_traced`] emits
    /// `fault/*` spans.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a self-profiling handle so `resolve` counts resolutions
    /// and page-table/cache map operations under `mm/*`.
    pub fn set_self_profile(&mut self, selfprof: SelfProfile) {
        self.selfprof = selfprof;
    }

    /// The cost model in use.
    pub fn costs(&self) -> &FaultCosts {
        &self.costs
    }

    /// Plans the resolution of a guest access to `page`, and returns the
    /// plan with the backing location of `page` it resolved: `None` when
    /// it looked no mapping up (no fault, or a host-PTE fault).
    ///
    /// For `Resolved` outcomes the page table is updated here; for
    /// `NeedsIo` and `Userfault` the runtime installs the page when the
    /// plan completes.
    pub fn resolve(
        &mut self,
        page: PageNum,
        aspace: &AddressSpace,
        pt: &mut PageTable,
        pages: &mut SharedPages,
        uffd: &UffdRegistry,
    ) -> (FaultOutcome, Option<Resolved>) {
        let (outcome, resolved) = self.plan(page, aspace, pt, pages, uffd);
        if self.selfprof.is_enabled() {
            self.selfprof.inc("mm/resolve_calls");
            // Map-op estimates per outcome: a state lookup, plus the
            // install and (for majors) the window scan over cached pages.
            let (name, map_ops) = match &outcome {
                FaultOutcome::NoFault => ("mm/no_fault", 1),
                FaultOutcome::Resolved { .. } => ("mm/resolved", 2),
                FaultOutcome::NeedsIo { io, .. } => {
                    self.selfprof.add("mm/readahead_pages", io.pages);
                    ("mm/io_planned", 2 + io.pages)
                }
                FaultOutcome::WaitInflight { .. } => ("mm/wait_inflight", 2),
                FaultOutcome::Userfault { .. } => ("mm/userfault", 1),
            };
            self.selfprof.inc(name);
            self.selfprof.add("mm/map_ops", map_ops);
        }
        (outcome, resolved)
    }

    fn plan(
        &mut self,
        page: PageNum,
        aspace: &AddressSpace,
        pt: &mut PageTable,
        pages: &mut SharedPages,
        uffd: &UffdRegistry,
    ) -> (FaultOutcome, Option<Resolved>) {
        if !pt.faults_on(page) {
            return (FaultOutcome::NoFault, None);
        }

        // Prefetched pages fault cheaply even under uffd registration: the
        // host PTE exists, so no user-space event fires.
        if pt.state(page) == PageState::HostPte {
            pt.install(page);
            let cost = self.costs.host_pte_fault(&mut self.rng);
            let outcome = FaultOutcome::Resolved {
                cost: self.inject_delay(cost),
                kind: FaultKind::HostPte,
            };
            return (outcome, None);
        }

        let vma = aspace
            .lookup(page)
            .unwrap_or_else(|| panic!("guest fault on unmapped page {page}"));
        let resolved = vma.resolve(page);

        let outcome = match resolved {
            Resolved::File { file, file_page } if uffd.covers(page) => {
                FaultOutcome::Userfault { file, file_page }
            }
            // uffd over an anonymous range: the handler still serves the
            // fault; it has no backing file page. REAP always registers
            // over a file mapping, so treat this as a bug.
            Resolved::Anonymous if uffd.covers(page) => {
                panic!("userfaultfd over anonymous mapping is not modeled")
            }
            Resolved::Anonymous => {
                pt.install(page);
                let cost = self.costs.anon_fault(&mut self.rng);
                FaultOutcome::Resolved {
                    cost: self.inject_delay(cost),
                    kind: FaultKind::Anon,
                }
            }
            Resolved::File { file, file_page } => {
                if pages.touch(file, file_page) {
                    pt.install(page);
                    let cost = self.costs.minor_fault(&mut self.rng);
                    FaultOutcome::Resolved {
                        cost: self.inject_delay(cost),
                        kind: FaultKind::Minor,
                    }
                } else if let Some(ready_at) = pages.completion_of(file, file_page) {
                    // Sleep on the page lock; the read in flight will
                    // populate the cache. Install cost on wake.
                    let cost = self.costs.minor_fault(&mut self.rng);
                    FaultOutcome::WaitInflight {
                        ready_at,
                        cost: self.inject_delay(cost),
                    }
                } else {
                    let (io, async_io) = self.plan_major(page, file, file_page, vma, aspace, pages);
                    let overhead = self.costs.major_overhead(&mut self.rng);
                    FaultOutcome::NeedsIo {
                        io,
                        overhead: self.inject_delay(overhead),
                        async_io,
                    }
                }
            }
        };
        (outcome, Some(resolved))
    }

    /// [`FaultResolver::resolve`] plus span emission: opens a `fault/*`
    /// span at `now` under `parent` describing the planned resolution.
    /// The returned context is carried on the completion event and ended
    /// by the runtime when the fault is installed; it is
    /// [`TraceContext::NONE`] for `NoFault` or when tracing is disabled,
    /// so untraced callers pay nothing. The resolved backing location is
    /// returned as by `resolve`.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve_traced(
        &mut self,
        page: PageNum,
        aspace: &AddressSpace,
        pt: &mut PageTable,
        pages: &mut SharedPages,
        uffd: &UffdRegistry,
        now: SimTime,
        parent: TraceContext,
    ) -> (FaultOutcome, Option<Resolved>, TraceContext) {
        let (outcome, resolved) = self.resolve(page, aspace, pt, pages, uffd);
        if !self.tracer.is_enabled() {
            return (outcome, resolved, TraceContext::NONE);
        }
        let ctx = match &outcome {
            FaultOutcome::NoFault => TraceContext::NONE,
            FaultOutcome::Resolved { kind, .. } => {
                self.tracer.begin(kind.span_name(), "mm", now, parent)
            }
            FaultOutcome::NeedsIo { io, .. } => {
                let ctx = self.tracer.begin("fault/major", "mm", now, parent);
                self.tracer.tag(ctx, "ra_pages", io.pages);
                ctx
            }
            FaultOutcome::WaitInflight { .. } => {
                let ctx = self.tracer.begin("fault/major", "mm", now, parent);
                self.tracer.tag(ctx, "wait", "inflight");
                ctx
            }
            FaultOutcome::Userfault { .. } => self.tracer.begin("fault/uffd", "mm", now, parent),
        };
        if !ctx.is_none() {
            self.tracer.tag(ctx, "page", page);
        }
        (outcome, resolved, ctx)
    }

    /// Computes the readahead window for a major fault: starts at the
    /// faulting file page, clamped to the extent of `vma` (the faulting
    /// page's mapping) and trimmed at the first already-cached page so the
    /// device read stays contiguous. For sequential streams (grown window)
    /// it also plans the *next* window as a non-blocking async read.
    fn plan_major(
        &mut self,
        page: PageNum,
        file: FileId,
        file_page: u64,
        vma: &Vma,
        aspace: &AddressSpace,
        pages_state: &SharedPages,
    ) -> (IoRequest, Option<IoRequest>) {
        let (init, max) = (self.initial_ra_pages, self.max_ra_pages);
        let ra = self
            .readahead
            .or_insert_with(file, || ReadaheadState::new(init, max));
        let (start, len) = ra.on_miss(file_page);
        debug_assert_eq!(start, file_page);
        let sequential_stream = ra.window_pages() > init;

        // Clamp to the contiguous extent of the mapping so the window
        // never crosses into a different VMA (FaaSnap's per-region
        // mappings naturally bound readahead to each region).
        let vma_limit = (vma.range.end - page).min(len).max(1);

        // Trim at the first cached page after the faulting one to keep the
        // read contiguous.
        let pages =
            1 + pages_state.leading_run(file, file_page + 1, vma_limit - 1, Cover::Cached, false);

        let io = IoRequest {
            file,
            page: file_page,
            pages,
            kind: IoKind::FaultRead,
        };

        // Async readahead: only when the stream looks sequential and the
        // sync window was not clipped (a clip means we ran into cached
        // pages or a mapping boundary — no stream to pipeline).
        let mut async_io = None;
        if sequential_stream && pages == len {
            let a_start = file_page + pages;
            // The async window is clamped by the mapping at the guest page
            // after the sync window: still `vma` unless the sync window
            // ended exactly at its end.
            let next = page + pages;
            let room = if next < vma.range.end {
                vma.range.end - next
            } else {
                aspace.lookup(next).map_or(0, |v| v.range.end - next)
            }
            .min(len);
            let a_pages =
                pages_state.leading_run(file, a_start, room, Cover::CachedOrInflight, false);
            if a_pages > 0 {
                async_io = Some(IoRequest {
                    file,
                    page: a_start,
                    pages: a_pages,
                    kind: IoKind::FaultRead,
                });
            }
        }
        (io, async_io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PageRange;
    use crate::vma::Backing;

    fn setup(
        total: u64,
    ) -> (
        AddressSpace,
        PageTable,
        SharedPages,
        UffdRegistry,
        FaultResolver,
    ) {
        let aspace = AddressSpace::new();
        let pt = PageTable::new(total);
        let pages = SharedPages::new(1 << 20);
        let uffd = UffdRegistry::new();
        let r = FaultResolver::new(FaultCosts::default(), 42);
        (aspace, pt, pages, uffd, r)
    }

    #[test]
    fn mapped_page_no_fault() {
        let (mut a, mut pt, mut c, u, mut r) = setup(100);
        a.map_fixed(PageRange::new(0, 100), Backing::Anonymous);
        pt.install(5);
        assert!(matches!(
            r.resolve(5, &a, &mut pt, &mut c, &u),
            (FaultOutcome::NoFault, None)
        ));
    }

    #[test]
    fn anon_fault_resolves_and_installs() {
        let (mut a, mut pt, mut c, u, mut r) = setup(100);
        a.map_fixed(PageRange::new(0, 100), Backing::Anonymous);
        match r.resolve(7, &a, &mut pt, &mut c, &u).0 {
            FaultOutcome::Resolved {
                kind: FaultKind::Anon,
                cost,
            } => {
                assert!(cost.as_micros_f64() < 15.0);
            }
            other => panic!("expected anon fault, got {other:?}"),
        }
        assert!(!pt.faults_on(7));
    }

    #[test]
    fn minor_fault_from_cache() {
        let (mut a, mut pt, mut c, u, mut r) = setup(100);
        a.map_fixed(
            PageRange::new(0, 100),
            Backing::File {
                file: FileId(1),
                offset_page: 0,
            },
        );
        c.insert(FileId(1), 10);
        match r.resolve(10, &a, &mut pt, &mut c, &u).0 {
            FaultOutcome::Resolved {
                kind: FaultKind::Minor,
                ..
            } => {}
            other => panic!("expected minor fault, got {other:?}"),
        }
        assert!(!pt.faults_on(10));
    }

    #[test]
    fn major_fault_plans_readahead_io() {
        let (mut a, mut pt, mut c, u, mut r) = setup(100);
        a.map_fixed(
            PageRange::new(0, 100),
            Backing::File {
                file: FileId(1),
                offset_page: 0,
            },
        );
        match r.resolve(10, &a, &mut pt, &mut c, &u).0 {
            FaultOutcome::NeedsIo { io, overhead, .. } => {
                assert_eq!(io.file, FileId(1));
                assert_eq!(io.page, 10);
                assert_eq!(io.pages, 4, "initial readahead window");
                assert_eq!(io.kind, IoKind::FaultRead);
                assert!(overhead.as_micros_f64() > 1.0);
            }
            other => panic!("expected major fault, got {other:?}"),
        }
        // Page not installed until the runtime completes the IO.
        assert!(pt.faults_on(10));
    }

    #[test]
    fn major_window_clamped_to_vma() {
        let (mut a, mut pt, mut c, u, mut r) = setup(100);
        a.map_fixed(
            PageRange::new(0, 12),
            Backing::File {
                file: FileId(1),
                offset_page: 0,
            },
        );
        match r.resolve(10, &a, &mut pt, &mut c, &u).0 {
            FaultOutcome::NeedsIo { io, .. } => assert_eq!(io.pages, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn major_window_trimmed_at_cached_page() {
        let (mut a, mut pt, mut c, u, mut r) = setup(100);
        a.map_fixed(
            PageRange::new(0, 100),
            Backing::File {
                file: FileId(1),
                offset_page: 0,
            },
        );
        c.insert(FileId(1), 13);
        match r.resolve(10, &a, &mut pt, &mut c, &u).0 {
            FaultOutcome::NeedsIo { io, .. } => {
                assert_eq!(io.pages, 3, "trim before cached page 13")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn file_offset_translation_in_major() {
        let (mut a, mut pt, mut c, u, mut r) = setup(100);
        a.map_fixed(
            PageRange::new(50, 60),
            Backing::File {
                file: FileId(2),
                offset_page: 7,
            },
        );
        match r.resolve(55, &a, &mut pt, &mut c, &u).0 {
            FaultOutcome::NeedsIo { io, .. } => {
                assert_eq!(io.file, FileId(2));
                assert_eq!(io.page, 12);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sequential_majors_grow_window() {
        let (mut a, mut pt, mut c, u, mut r) = setup(1000);
        a.map_fixed(
            PageRange::new(0, 1000),
            Backing::File {
                file: FileId(1),
                offset_page: 0,
            },
        );
        let sizes: Vec<u64> = [0u64, 4, 12]
            .iter()
            .map(|&p| match r.resolve(p, &a, &mut pt, &mut c, &u).0 {
                FaultOutcome::NeedsIo { io, .. } => io.pages,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(sizes, vec![4, 8, 16]);
    }

    #[test]
    fn async_window_clamped_by_the_next_mapping() {
        let (mut a, mut pt, mut c, u, mut r) = setup(100);
        let file = |id| Backing::File {
            file: FileId(id),
            offset_page: 0,
        };
        a.map_fixed(PageRange::new(0, 12), file(1));
        a.map_fixed(PageRange::new(12, 14), file(2));
        assert!(matches!(
            r.resolve(0, &a, &mut pt, &mut c, &u).0,
            FaultOutcome::NeedsIo { async_io: None, .. }
        ));
        // The grown 8-page window ends exactly at the first mapping's end,
        // so the async window is clamped by the mapping after it.
        match r.resolve(4, &a, &mut pt, &mut c, &u).0 {
            FaultOutcome::NeedsIo { io, async_io, .. } => {
                assert_eq!((io.page, io.pages), (4, 8));
                let aio = async_io.expect("sequential stream reads ahead");
                assert_eq!((aio.file, aio.page, aio.pages), (FileId(1), 12, 2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resolution_is_returned_beside_the_plan() {
        let (mut a, mut pt, mut c, mut u, mut r) = setup(100);
        a.map_fixed(PageRange::new(0, 100), Backing::Anonymous);
        a.map_fixed(
            PageRange::new(50, 100),
            Backing::File {
                file: FileId(1),
                offset_page: 10,
            },
        );
        u.register(PageRange::new(90, 100));
        pt.set_state(60, PageState::HostPte);
        let file_page = |file_page| {
            Some(Resolved::File {
                file: FileId(1),
                file_page,
            })
        };
        assert_eq!(
            r.resolve(7, &a, &mut pt, &mut c, &u).1,
            Some(Resolved::Anonymous)
        );
        assert_eq!(r.resolve(55, &a, &mut pt, &mut c, &u).1, file_page(15));
        assert_eq!(r.resolve(95, &a, &mut pt, &mut c, &u).1, file_page(55));
        // Installed pages and host PTEs resolve no mapping.
        assert_eq!(r.resolve(7, &a, &mut pt, &mut c, &u).1, None);
        assert_eq!(r.resolve(60, &a, &mut pt, &mut c, &u).1, None);
    }

    #[test]
    fn uffd_fault_routed_to_user_space() {
        let (mut a, mut pt, mut c, mut u, mut r) = setup(100);
        a.map_fixed(
            PageRange::new(0, 100),
            Backing::File {
                file: FileId(1),
                offset_page: 0,
            },
        );
        u.register(PageRange::new(0, 100));
        match r.resolve(33, &a, &mut pt, &mut c, &u).0 {
            FaultOutcome::Userfault { file, file_page } => {
                assert_eq!(file, FileId(1));
                assert_eq!(file_page, 33);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn host_pte_fast_path_beats_uffd() {
        let (mut a, mut pt, mut c, mut u, mut r) = setup(100);
        a.map_fixed(
            PageRange::new(0, 100),
            Backing::File {
                file: FileId(1),
                offset_page: 0,
            },
        );
        u.register(PageRange::new(0, 100));
        pt.set_state(20, PageState::HostPte);
        match r.resolve(20, &a, &mut pt, &mut c, &u).0 {
            FaultOutcome::Resolved {
                kind: FaultKind::HostPte,
                cost,
            } => {
                assert!(cost.as_micros_f64() < 10.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inflight_read_blocks_instead_of_duplicating() {
        let (mut a, mut pt, mut c, u, mut r) = setup(100);
        a.map_fixed(
            PageRange::new(0, 100),
            Backing::File {
                file: FileId(1),
                offset_page: 0,
            },
        );
        let ready = sim_core::time::SimTime::from_nanos(50_000);
        c.insert_window(FileId(1), 8, 8, ready);
        match r.resolve(10, &a, &mut pt, &mut c, &u).0 {
            FaultOutcome::WaitInflight { ready_at, cost } => {
                assert_eq!(ready_at, ready);
                assert!(cost.as_micros_f64() < 15.0);
            }
            other => panic!("expected WaitInflight, got {other:?}"),
        }
        // A page outside the window still plans its own IO.
        assert!(matches!(
            r.resolve(40, &a, &mut pt, &mut c, &u).0,
            FaultOutcome::NeedsIo { .. }
        ));
    }

    #[test]
    fn delay_injection_inflates_costs_deterministically() {
        let extra = SimDuration::from_micros(250);
        let run = |armed: bool| {
            let (mut a, mut pt, mut c, u, mut r) = setup(100);
            a.map_fixed(PageRange::new(0, 100), Backing::Anonymous);
            if armed {
                r.set_delay_injection(7, 1.0, extra, 2);
            }
            let costs: Vec<SimDuration> = (0..4)
                .map(|p| match r.resolve(p, &a, &mut pt, &mut c, &u).0 {
                    FaultOutcome::Resolved { cost, .. } => cost,
                    other => panic!("{other:?}"),
                })
                .collect();
            (costs, r.injected_delays())
        };
        let (clean, n0) = run(false);
        let (injected, n1) = run(true);
        assert_eq!(n0, 0);
        assert_eq!(n1, 2, "budget caps injections");
        // Cost sampling uses its own stream, so armed and clean runs draw
        // identical base costs; the first two differ by exactly `extra`.
        assert_eq!(injected[0], clean[0] + extra);
        assert_eq!(injected[1], clean[1] + extra);
        assert_eq!(injected[2], clean[2]);
        assert_eq!(injected[3], clean[3]);
        // Same seed twice is identical.
        assert_eq!(run(true), run(true));
    }

    #[test]
    fn delay_injection_zero_prob_never_fires() {
        let (mut a, mut pt, mut c, u, mut r) = setup(100);
        a.map_fixed(PageRange::new(0, 100), Backing::Anonymous);
        r.set_delay_injection(7, 0.0, SimDuration::from_micros(250), u64::MAX);
        for p in 0..50 {
            r.resolve(p, &a, &mut pt, &mut c, &u);
        }
        assert_eq!(r.injected_delays(), 0);
        r.clear_delay_injection();
        assert_eq!(r.injected_delays(), 0);
    }

    #[test]
    fn self_profile_counts_resolutions() {
        let (mut a, mut pt, mut c, u, mut r) = setup(100);
        a.map_fixed(
            PageRange::new(0, 100),
            Backing::File {
                file: FileId(1),
                offset_page: 0,
            },
        );
        let prof = SelfProfile::enabled();
        r.set_self_profile(prof.clone());
        // Major (plans a 4-page window), then the same page again → NoFault
        // after install, then a cached page → minor.
        match r.resolve(10, &a, &mut pt, &mut c, &u).0 {
            FaultOutcome::NeedsIo { .. } => pt.install(10),
            other => panic!("{other:?}"),
        }
        r.resolve(10, &a, &mut pt, &mut c, &u);
        c.insert(FileId(1), 50);
        r.resolve(50, &a, &mut pt, &mut c, &u);
        assert_eq!(prof.counter("mm/resolve_calls"), 3);
        assert_eq!(prof.counter("mm/io_planned"), 1);
        assert_eq!(prof.counter("mm/readahead_pages"), 4);
        assert_eq!(prof.counter("mm/no_fault"), 1);
        assert_eq!(prof.counter("mm/resolved"), 1);
        assert_eq!(prof.counter("mm/map_ops"), 1 + 2 + (2 + 4));
    }

    #[test]
    #[should_panic(expected = "unmapped page")]
    fn unmapped_fault_panics() {
        let (a, mut pt, mut c, u, mut r) = setup(100);
        r.resolve(5, &a, &mut pt, &mut c, &u);
    }
}
