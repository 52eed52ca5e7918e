//! Bursty-workload (§6.6) and remote-storage (§6.7) integration tests.

use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::platform::{BurstKind, Platform};
use sim_storage::device::IoKind;
use sim_storage::profiles::DiskProfile;

fn platform(seed: u64, profile: DiskProfile) -> (Platform, faas_workloads::Function) {
    let mut p = Platform::new(profile, seed);
    let f = faas_workloads::by_name("json").unwrap();
    p.register(f.clone());
    p.record("json", "t", &f.input_a()).unwrap();
    (p, f)
}

fn mean_total_s(outs: &[faasnap::runtime::InvocationOutcome]) -> f64 {
    outs.iter()
        .map(|o| o.report.total_time().as_secs_f64())
        .sum::<f64>()
        / outs.len() as f64
}

#[test]
fn same_snapshot_burst_reads_loading_set_once() {
    let (mut p, f) = platform(0xB1, DiskProfile::nvme_c5d());
    let outs = p
        .burst(
            "json",
            "t",
            &f.input_b(),
            RestoreStrategy::faasnap(),
            8,
            BurstKind::SameSnapshot,
        )
        .unwrap();
    assert_eq!(outs.len(), 8);
    let ls_pages = p.registry().artifacts("json", "t").unwrap().ls.file_pages();
    let loader_pages = p.host().disks[0].stats().pages_of(IoKind::LoaderPrefetch);
    assert!(
        loader_pages < ls_pages + ls_pages / 2,
        "read-once lock violated: {loader_pages} loader pages for {ls_pages}-page LS"
    );
}

#[test]
fn reap_burst_bypasses_cache_and_rereads() {
    // §6.6: "REAP bypasses the page cache" — every VM fetches its own copy
    // of the working set even from the same snapshot.
    let (mut p, f) = platform(0xB2, DiskProfile::nvme_c5d());
    let n = 6u64;
    p.burst(
        "json",
        "t",
        &f.input_b(),
        RestoreStrategy::Reap,
        n as u32,
        BurstKind::SameSnapshot,
    )
    .unwrap();
    let ws_pages = p.registry().artifacts("json", "t").unwrap().reap_ws.len();
    let fetch_pages = p.host().disks[0].stats().pages_of(IoKind::ReapFetch);
    assert_eq!(fetch_pages, ws_pages * n, "each VM fetches the full WS");
}

#[test]
fn different_snapshots_slower_than_same_for_firecracker() {
    // §6.6: "When using different snapshots, Firecracker performance
    // degrades quickly" — no cache sharing across distinct memory files.
    let (mut p, f) = platform(0xB3, DiskProfile::nvme_c5d());
    let same = p
        .burst(
            "json",
            "t",
            &f.input_b(),
            RestoreStrategy::Vanilla,
            16,
            BurstKind::SameSnapshot,
        )
        .unwrap();
    let (mut p2, f2) = platform(0xB3, DiskProfile::nvme_c5d());
    let diff = p2
        .burst(
            "json",
            "t",
            &f2.input_b(),
            RestoreStrategy::Vanilla,
            16,
            BurstKind::DifferentSnapshots,
        )
        .unwrap();
    assert!(
        mean_total_s(&diff) > mean_total_s(&same),
        "diff {:.3}s should exceed same {:.3}s",
        mean_total_s(&diff),
        mean_total_s(&same)
    );
}

#[test]
fn faasnap_beats_reap_under_bursts() {
    let (mut p, f) = platform(0xB4, DiskProfile::nvme_c5d());
    let fs = p
        .burst(
            "json",
            "t",
            &f.input_b(),
            RestoreStrategy::faasnap(),
            16,
            BurstKind::SameSnapshot,
        )
        .unwrap();
    let (mut p2, f2) = platform(0xB4, DiskProfile::nvme_c5d());
    let reap = p2
        .burst(
            "json",
            "t",
            &f2.input_b(),
            RestoreStrategy::Reap,
            16,
            BurstKind::SameSnapshot,
        )
        .unwrap();
    assert!(mean_total_s(&fs) < mean_total_s(&reap));
}

#[test]
fn burst_correctness_every_vm_completes_identically() {
    let (mut p, f) = platform(0xB5, DiskProfile::nvme_c5d());
    // Same input seed for every VM => identical final memory.
    let mut outs = Vec::new();
    for _ in 0..3 {
        let spec = p
            .build_spec("json", "t", &f.input_b(), RestoreStrategy::faasnap())
            .unwrap();
        outs.push(spec);
    }
    p.host_mut().drop_caches();
    let results = faasnap::runtime::run(p.host_mut(), outs).unwrap();
    let sum = results[0].final_memory.checksum();
    for r in &results {
        assert_eq!(r.final_memory.checksum(), sum);
        assert!(r.report.total_time().as_nanos() > 0);
    }
}

#[test]
fn ebs_slower_than_nvme_but_faasnap_still_wins() {
    // §6.7: baseline Firecracker ~33 % slower on EBS; FaaSnap remains
    // ~2x faster than Firecracker and faster than REAP.
    let (mut nv, f) = platform(0xB6, DiskProfile::nvme_c5d());
    let (mut eb, fe) = platform(0xB6, DiskProfile::ebs_io2());
    let nv_fc = nv
        .invoke("json", "t", &f.input_b(), RestoreStrategy::Vanilla)
        .unwrap()
        .report
        .total_time()
        .as_millis_f64();
    let eb_fc = eb
        .invoke("json", "t", &fe.input_b(), RestoreStrategy::Vanilla)
        .unwrap()
        .report
        .total_time()
        .as_millis_f64();
    assert!(eb_fc > nv_fc * 1.1, "EBS vanilla {eb_fc} vs NVMe {nv_fc}");
    let eb_fs = eb
        .invoke("json", "t", &fe.input_b(), RestoreStrategy::faasnap())
        .unwrap()
        .report
        .total_time()
        .as_millis_f64();
    let eb_reap = eb
        .invoke("json", "t", &fe.input_b(), RestoreStrategy::Reap)
        .unwrap()
        .report
        .total_time()
        .as_millis_f64();
    assert!(
        eb_fs < eb_fc,
        "FaaSnap {eb_fs} < Firecracker {eb_fc} on EBS"
    );
    assert!(eb_fs < eb_reap, "FaaSnap {eb_fs} < REAP {eb_reap} on EBS");
}

#[test]
fn mixed_devices_loading_set_local_memory_remote() {
    // §7.2 future work: "storing relatively small loading set files on
    // local SSD and larger memory files on remote storage". Implemented:
    // move the memory file to EBS, keep the loading-set file on NVMe.
    // hello-world's execution is dominated by its loading set, so moving
    // only the memory file to EBS should cost little, while moving the
    // loading-set file too visibly slows the prefetch.
    let mut p = Platform::new(DiskProfile::nvme_c5d(), 0xB7);
    let f = faas_workloads::by_name("hello-world").unwrap();
    p.register(f.clone());
    p.record("hello-world", "t", &f.input_a()).unwrap();
    let ebs = p.host_mut().add_device(DiskProfile::ebs_io2());
    let mem_file = p
        .registry()
        .artifacts("hello-world", "t")
        .unwrap()
        .snapshot
        .mem_file();
    p.host_mut().fs.set_device(mem_file, ebs);

    let run = |p: &mut Platform| {
        let mut cell = sim_core::stats::Summary::new();
        for _ in 0..3 {
            let out = p
                .invoke("hello-world", "t", &f.input_a(), RestoreStrategy::faasnap())
                .unwrap();
            cell.record(out.report.total_time().as_millis_f64());
        }
        cell.mean()
    };
    let mixed = run(&mut p);
    // Compare with everything remote.
    let ls_file = p.registry().artifacts("hello-world", "t").unwrap().ls_file;
    p.host_mut().fs.set_device(ls_file, ebs);
    let all_remote = run(&mut p);
    assert!(
        mixed <= all_remote * 1.02,
        "local loading set should not hurt: mixed {mixed} vs remote {all_remote}"
    );
}
