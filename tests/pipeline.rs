//! End-to-end record → test pipeline invariants.

use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::platform::Platform;
use sim_storage::profiles::DiskProfile;

fn recorded_platform(name: &str) -> (Platform, faas_workloads::Function) {
    let mut p = Platform::new(DiskProfile::nvme_c5d(), 0x9192);
    let f = faas_workloads::by_name(name).unwrap();
    p.register(f.clone());
    p.record(name, "t", &f.input_a()).unwrap();
    (p, f)
}

#[test]
fn host_page_recording_supersets_fault_recording() {
    // §4.4: mincore-based recording includes readahead pages, so it must
    // contain every page REAP's fault tracking saw, and usually more.
    let (p, _) = recorded_platform("image");
    let a = p.registry().artifacts("image", "t").unwrap();
    let ws = a.ws.page_set();
    for page in a.reap_ws.pages() {
        assert!(
            ws.contains(page),
            "fault-recorded page {page} missing from mincore WS"
        );
    }
    assert!(
        a.ws.len() > a.reap_ws.len(),
        "readahead should add pages: {} vs {}",
        a.ws.len(),
        a.reap_ws.len()
    );
}

#[test]
fn loading_set_excludes_sanitized_pages() {
    // Freed+sanitized heap pages are zero in the warm snapshot and must
    // not appear in the loading set even though they are in the WS.
    let (p, f) = recorded_platform("mmap");
    let a = p.registry().artifacts("mmap", "t").unwrap();
    // mmap frees its whole 512 MB buffer: the loading set must be tiny
    // (runtime only), while REAP's working set holds the full buffer.
    assert!(
        a.ls.file_pages() < 20_000,
        "mmap loading set should be runtime-sized, got {} pages",
        a.ls.file_pages()
    );
    assert!(
        a.reap_ws.len() > 100_000,
        "REAP's working set holds the written buffer, got {}",
        a.reap_ws.len()
    );
    let _ = f;
}

#[test]
fn loading_set_pages_are_nonzero_or_merged_gaps() {
    let (p, _) = recorded_platform("json");
    let a = p.registry().artifacts("json", "t").unwrap();
    let ws = a.ws.page_set();
    let mem = a.snapshot.memory();
    for r in a.ls.regions() {
        for page in r.guest.iter() {
            // Every covered page is either a proper loading-set page
            // (non-zero AND in the WS) or a merged gap page.
            let proper = mem.is_nonzero(page) && ws.contains(&page);
            let gap_ok = r.guest.len() > 1; // merged region may hold gaps
            assert!(proper || gap_ok, "page {page} unexpectedly in loading set");
        }
    }
}

#[test]
fn region_merge_matches_paper_shape() {
    // §4.6: merging collapses hello-world's fragmented loading set into
    // far fewer mappable regions at a bounded data cost. (The paper
    // reports >1000 → <100 at +5 %; our synthetic scatter yields a few
    // hundred → ~100 at a somewhat higher but still bounded overhead —
    // see EXPERIMENTS.md.)
    let (p, _) = recorded_platform("hello-world");
    let a = p.registry().artifacts("hello-world", "t").unwrap();
    assert!(
        a.ls.unmerged_region_count() > 3 * a.ls.region_count(),
        "merging should collapse regions by >3x: {} -> {}",
        a.ls.unmerged_region_count(),
        a.ls.region_count()
    );
    assert!(
        a.ls.region_count() < 130,
        "expected <130 merged regions, got {}",
        a.ls.region_count()
    );
    // The paper reports +5 % data for hello-world; our synthetic runtime
    // scatter has wider intra-library gaps, so the overhead is larger
    // (documented as a deviation in EXPERIMENTS.md). It must stay well
    // under doubling the file, or merging would hurt more than it helps.
    assert!(
        a.ls.merge_overhead() < 1.0,
        "merge data overhead {:.0}% too high",
        a.ls.merge_overhead() * 100.0
    );
}

#[test]
fn performance_ordering_holds() {
    // The paper's headline ordering for an input-B test: FaaSnap beats
    // Firecracker and REAP; Warm beats everything; FaaSnap is within a
    // modest factor of Cached.
    let (mut p, f) = recorded_platform("image");
    let ms = |p: &mut Platform, s| {
        p.invoke("image", "t", &f.input_b(), s)
            .unwrap()
            .report
            .total_time()
            .as_millis_f64()
    };
    let warm = ms(&mut p, RestoreStrategy::Warm);
    let vanilla = ms(&mut p, RestoreStrategy::Vanilla);
    let cached = ms(&mut p, RestoreStrategy::Cached);
    let reap = ms(&mut p, RestoreStrategy::Reap);
    let faasnap = ms(&mut p, RestoreStrategy::faasnap());
    assert!(warm < faasnap, "warm {warm} < faasnap {faasnap}");
    assert!(
        faasnap < vanilla,
        "faasnap {faasnap} < firecracker {vanilla}"
    );
    assert!(faasnap < reap, "faasnap {faasnap} < reap {reap}");
    assert!(
        faasnap < cached * 1.25,
        "faasnap {faasnap} ~ cached {cached}"
    );
}

#[test]
fn fault_class_signatures_per_strategy() {
    let (mut p, f) = recorded_platform("image");
    // Cached: no majors (everything pre-cached).
    let cached = p
        .invoke("image", "t", &f.input_b(), RestoreStrategy::Cached)
        .unwrap();
    assert_eq!(cached.report.major_faults, 0);
    assert_eq!(cached.report.uffd_faults, 0);
    // Vanilla: no uffd, no host-pte.
    let vanilla = p
        .invoke("image", "t", &f.input_b(), RestoreStrategy::Vanilla)
        .unwrap();
    assert_eq!(vanilla.report.uffd_faults, 0);
    assert_eq!(vanilla.report.host_pte_faults, 0);
    assert!(vanilla.report.major_faults > 0);
    // REAP: host-pte for prefetched pages, uffd outside the set, no plain
    // minors/majors (everything routes through uffd or the PTE fast path).
    let reap = p
        .invoke("image", "t", &f.input_b(), RestoreStrategy::Reap)
        .unwrap();
    assert!(reap.report.host_pte_faults > 0);
    assert!(
        reap.report.uffd_faults > 0,
        "input B must fault outside REAP's WS"
    );
    assert_eq!(reap.report.major_faults, 0);
    // FaaSnap: anonymous faults (fresh buffers) + minors (prefetched) and
    // usually a few majors where the guest outruns the loader; never uffd.
    let fs = p
        .invoke("image", "t", &f.input_b(), RestoreStrategy::faasnap())
        .unwrap();
    assert!(fs.report.anon_faults > 0);
    assert!(fs.report.minor_faults > 0);
    assert_eq!(fs.report.uffd_faults, 0);
}

#[test]
fn degraded_restore_falls_back_to_vanilla() {
    let (p, f) = recorded_platform("json");
    let mut spec = p
        .build_spec("json", "t", &f.input_b(), RestoreStrategy::faasnap())
        .unwrap();
    // Simulate lost loading-set artifacts.
    spec.ls = None;
    spec.ws = None;
    let mut host = faasnap::runtime::Host::new(DiskProfile::nvme_c5d(), 7);
    // Re-register the memory file on the fresh host's fs.
    let dev = host.primary_device();
    let pages = spec.memory.total_pages();
    let mem_file = host.fs.create(
        "json.mem",
        sim_storage::file::FileKind::SnapshotMemory,
        pages,
        dev,
    );
    spec.mem_file = mem_file;
    let out = faasnap::runtime::run(&mut host, vec![spec])
        .unwrap()
        .remove(0);
    assert!(out.report.degraded, "missing artifacts must flag degraded");
    assert!(
        out.report.major_faults > 0,
        "degraded run demand-pages from disk"
    );
    assert_eq!(out.report.fetch_pages, 0, "no loader without artifacts");
}

#[test]
fn setup_times_reflect_strategy_work() {
    let (mut p, f) = recorded_platform("read-list");
    let warm = p
        .invoke("read-list", "t", &f.input_a(), RestoreStrategy::Warm)
        .unwrap();
    assert_eq!(warm.report.setup_time.as_nanos(), 0, "warm has no setup");
    let vanilla = p
        .invoke("read-list", "t", &f.input_a(), RestoreStrategy::Vanilla)
        .unwrap();
    let reap = p
        .invoke("read-list", "t", &f.input_a(), RestoreStrategy::Reap)
        .unwrap();
    // REAP's setup includes the blocking 526 MB working-set fetch (§6.2:
    // "the setup step takes a long time to load and install the working
    // set" for read-list and mmap).
    assert!(
        reap.report.setup_time.as_millis_f64() > vanilla.report.setup_time.as_millis_f64() + 300.0,
        "REAP setup {} must dwarf vanilla {}",
        reap.report.setup_time,
        vanilla.report.setup_time
    );
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn record_phase_outputs_are_pinned() {
    // The mincore scan order defines working-set groups (§4.3) and the
    // fault order defines REAP's prefetch order, so both are pinned
    // exactly: a faster scan must return the same pages in the same order.
    let (p, _) = recorded_platform("json");
    let a = p.registry().artifacts("json", "t").unwrap();
    let ws = fnv1a(
        a.ws.pages_with_groups()
            .flat_map(|(pg, g)| [pg, u64::from(g)]),
    );
    let reap = fnv1a(a.reap_ws.pages().iter().copied());
    assert_eq!(
        (a.ws.len(), ws, a.reap_ws.len(), reap),
        (
            4602,
            17_451_011_878_197_614_553,
            3229,
            5_196_561_534_067_540_856
        ),
        "record-phase outputs drifted"
    );
}
