//! Drivers for every table and figure in the paper's evaluation.

use faasnap::strategy::RestoreStrategy;
use faasnap_daemon::metrics::{MeasuredCell, TextTable};
use faasnap_daemon::platform::BurstKind;
use sim_core::units::MIB;
use sim_storage::profiles::DiskProfile;

use crate::runner::{ensure_recorded, measure_total, platform_with, run_once};
use crate::Effort;

/// The four headline systems in the paper's plotting order.
fn headline() -> [RestoreStrategy; 4] {
    RestoreStrategy::headline()
}

/// Looks up a workload every figure table names by construction; the
/// tables only reference built-ins, so a miss is a typo in this file.
fn workload(name: &str) -> faas_workloads::Function {
    faas_workloads::by_name(name).unwrap_or_else(|| panic!("figure names unknown workload {name}"))
}

fn fig6_functions(effort: Effort) -> Vec<&'static str> {
    match effort {
        Effort::Quick => vec!["json", "image"],
        Effort::Full => vec![
            "json",
            "compression",
            "pyaes",
            "chameleon",
            "image",
            "recognition",
            "pagerank",
            "matmul",
            "ffmpeg",
        ],
    }
}

/// Figure 1: time breakdown (setup vs. invocation) of hello-world,
/// read-list, mmap, image, and image-diff under Warm / Firecracker /
/// Cached / REAP.
pub fn fig1_breakdown(effort: Effort) -> TextTable {
    let funcs = faas_workloads::all_functions();
    let mut p = platform_with(DiskProfile::nvme_c5d(), 0xF161, &funcs);
    let mut t = TextTable::new(
        "Figure 1: time breakdown (ms)",
        &["function", "system", "setup", "invocation", "total"],
    );
    let systems = [
        RestoreStrategy::Warm,
        RestoreStrategy::Vanilla,
        RestoreStrategy::Cached,
        RestoreStrategy::Reap,
    ];
    // image-diff = image with a different input for the test phase
    // (same sizes, different contents, §3.1).
    let cases: Vec<(&str, bool)> = match effort {
        Effort::Quick => vec![("hello-world", false), ("image", true)],
        Effort::Full => vec![
            ("hello-world", false),
            ("read-list", false),
            ("mmap", false),
            ("image", false),
            ("image", true),
        ],
    };
    for (name, diff_input) in cases {
        let f = workload(name);
        let record_input = f.input_a();
        ensure_recorded(&mut p, name, "f1", &record_input);
        let test_input = if diff_input {
            record_input.reseeded(0xD1FF)
        } else {
            record_input
        };
        let label = if diff_input {
            format!("{name}-diff")
        } else {
            name.to_string()
        };
        for sys in systems {
            let mut setup = MeasuredCell::new();
            let mut invoke = MeasuredCell::new();
            let mut total = MeasuredCell::new();
            for _ in 0..effort.reps(5) {
                let out = run_once(&mut p, name, "f1", &test_input, sys);
                setup.record(out.report.setup_time);
                invoke.record(out.report.invocation_time);
                total.record(out.report.total_time());
            }
            t.row(vec![
                label.clone(),
                sys.label().into(),
                format!("{setup}"),
                format!("{invoke}"),
                format!("{total}"),
            ]);
        }
    }
    t
}

/// Figure 2: distribution of page-fault handling times for `image-diff`
/// under the four systems (log2 µs buckets).
pub fn fig2_fault_dist(effort: Effort) -> TextTable {
    let funcs = faas_workloads::all_functions();
    let mut p = platform_with(DiskProfile::nvme_c5d(), 0xF162, &funcs);
    let f = workload("image");
    let record = f.input_a();
    ensure_recorded(&mut p, "image", "f2", &record);
    let diff = record.reseeded(0xD1FF);
    let systems = [
        RestoreStrategy::Warm,
        RestoreStrategy::Vanilla,
        RestoreStrategy::Cached,
        RestoreStrategy::Reap,
    ];
    let _ = effort;
    let mut t = TextTable::new(
        "Figure 2: image-diff page-fault time distribution",
        &["system", "bucket", "count"],
    );
    let mut summary = TextTable::new(
        "Figure 2 summary",
        &["system", "faults", "mean (us)", "total (ms)"],
    );
    for sys in systems {
        let out = run_once(&mut p, "image", "f2", &diff, sys);
        let hist = &out.report.fault_hist;
        for (bucket, count) in hist.rows() {
            if count > 0 {
                t.row(vec![sys.label().into(), bucket, count.to_string()]);
            }
        }
        summary.row(vec![
            sys.label().into(),
            hist.count().to_string(),
            format!("{:.1}", hist.mean().as_micros_f64()),
            format!("{:.1}", hist.total().as_millis_f64()),
        ]);
    }
    println!("{summary}");
    t
}

/// Table 2: the function inventory with measured working-set sizes.
pub fn table2_workingsets(effort: Effort) -> TextTable {
    let mut t = TextTable::new(
        "Table 2: functions and working sets",
        &[
            "function",
            "description",
            "WS A (MB)",
            "WS B (MB)",
            "paper A",
            "paper B",
        ],
    );
    let paper: &[(&str, f64, f64)] = &[
        ("hello-world", 11.8, 11.8),
        ("read-list", 526.0, 526.0),
        ("mmap", 536.0, 536.0),
        ("image", 20.6, 32.6),
        ("json", 12.7, 14.4),
        ("pyaes", 12.6, 13.2),
        ("chameleon", 22.9, 25.1),
        ("matmul", 113.0, 133.0),
        ("ffmpeg", 179.0, 178.0),
        ("compression", 15.3, 15.8),
        ("recognition", 230.0, 234.0),
        ("pagerank", 104.0, 114.0),
    ];
    let limit = match effort {
        Effort::Quick => 4,
        Effort::Full => paper.len(),
    };
    for (name, pa, pb) in paper.iter().take(limit) {
        let f = workload(name);
        let ws = |input: &faas_workloads::Input| {
            f.trace(input).distinct_pages() as f64 * 4096.0 / MIB as f64
        };
        t.row(vec![
            name.to_string(),
            f.params().description.into(),
            format!("{:.1}", ws(&f.input_a())),
            format!("{:.1}", ws(&f.input_b())),
            format!("{pa}"),
            format!("{pb}"),
        ]);
    }
    t
}

/// Figure 6: end-to-end execution time for the nine application
/// functions, record A → test B and record B → test A.
pub fn fig6_exec_time(effort: Effort) -> Vec<TextTable> {
    let funcs = faas_workloads::all_functions();
    let mut tables = Vec::new();
    for (dir, rec_is_a) in [("record A, test B", true), ("record B, test A", false)] {
        let mut p = platform_with(DiskProfile::nvme_c5d(), 0xF166, &funcs);
        let mut t = TextTable::new(
            format!("Figure 6: execution time (ms), {dir}"),
            &["function", "Firecracker", "REAP", "FaaSnap", "Cached"],
        );
        for name in fig6_functions(effort) {
            let f = workload(name);
            let (rec, test) = if rec_is_a {
                (f.input_a(), f.input_b())
            } else {
                (f.input_b(), f.input_a())
            };
            let label = if rec_is_a { "a" } else { "b" };
            ensure_recorded(&mut p, name, label, &rec);
            let mut cells = Vec::new();
            for sys in headline() {
                cells.push(format!(
                    "{}",
                    measure_total(&mut p, name, label, &test, sys, effort.reps(5))
                ));
            }
            let mut row = vec![name.to_string()];
            row.extend(cells);
            t.row(row);
        }
        tables.push(t);
    }
    tables
}

/// Figure 7: the three synthetic functions (same input both phases).
pub fn fig7_synthetic(effort: Effort) -> TextTable {
    let funcs = faas_workloads::all_functions();
    let mut p = platform_with(DiskProfile::nvme_c5d(), 0xF167, &funcs);
    let mut t = TextTable::new(
        "Figure 7: synthetic functions (ms)",
        &["function", "Firecracker", "REAP", "FaaSnap", "Cached"],
    );
    let names: Vec<&str> = match effort {
        Effort::Quick => vec!["hello-world"],
        Effort::Full => vec!["hello-world", "mmap", "read-list"],
    };
    for name in names {
        let f = workload(name);
        let input = f.input_a();
        ensure_recorded(&mut p, name, "f7", &input);
        let mut row = vec![name.to_string()];
        for sys in headline() {
            row.push(format!(
                "{}",
                measure_total(&mut p, name, "f7", &input, sys, effort.reps(5))
            ));
        }
        t.row(row);
    }
    t
}

/// Figure 8: test-phase input sizes swept from 1/4× to 4× the record
/// input (contents entirely different).
pub fn fig8_input_sweep(effort: Effort) -> TextTable {
    let funcs = faas_workloads::all_functions();
    let mut p = platform_with(DiskProfile::nvme_c5d(), 0xF168, &funcs);
    let mut t = TextTable::new(
        "Figure 8: execution time (s) vs input size ratio",
        &[
            "function",
            "ratio",
            "Firecracker",
            "REAP",
            "FaaSnap",
            "Cached",
        ],
    );
    let ratios: &[f64] = match effort {
        Effort::Quick => &[0.5, 2.0],
        Effort::Full => &[0.25, 0.5, 1.0, 2.0, 4.0],
    };
    for name in fig6_functions(effort) {
        let f = workload(name);
        ensure_recorded(&mut p, name, "f8", &f.input_a());
        for &ratio in ratios {
            let test = f.input_scaled(ratio, 0xFE5 ^ (ratio * 16.0) as u64);
            let mut row = vec![name.to_string(), format!("{ratio}")];
            for sys in headline() {
                let cell = measure_total(&mut p, name, "f8", &test, sys, effort.reps(3));
                row.push(format!("{:.2}", cell.mean() / 1000.0));
            }
            t.row(row);
        }
    }
    t
}

/// Table 3: execution breakdown of ffmpeg and image under REAP vs FaaSnap.
pub fn table3_analysis(effort: Effort) -> TextTable {
    let funcs = faas_workloads::all_functions();
    let mut p = platform_with(DiskProfile::nvme_c5d(), 0xF1A3, &funcs);
    let mut t = TextTable::new(
        "Table 3: performance analysis",
        &[
            "case",
            "total (ms)",
            "fetch (ms)",
            "fetch size (MB)",
            "guest pf size (MB)",
            "pf waiting (ms)",
        ],
    );
    let names: Vec<&str> = match effort {
        Effort::Quick => vec!["image"],
        Effort::Full => vec!["ffmpeg", "image"],
    };
    for name in names {
        let f = workload(name);
        ensure_recorded(&mut p, name, "t3", &f.input_a());
        for sys in [RestoreStrategy::Reap, RestoreStrategy::faasnap()] {
            let out = run_once(&mut p, name, "t3", &f.input_b(), sys);
            let r = &out.report;
            t.row(vec![
                format!("{}, {name}", sys.label()),
                format!("{:.0}", r.total_time().as_millis_f64()),
                format!("{:.0}", r.fetch_time.as_millis_f64()),
                format!("{:.0}", r.fetch_bytes() as f64 / MIB as f64),
                format!("{:.1}", r.guest_fault_read_bytes() as f64 / MIB as f64),
                format!("{:.0}", r.fault_wait.as_millis_f64()),
            ]);
        }
    }
    t
}

/// Figure 9: the optimization-step ablation on `image`: invocation time,
/// major faults, total fault time, and block requests per step.
pub fn fig9_ablation(effort: Effort) -> TextTable {
    let funcs = faas_workloads::all_functions();
    let mut p = platform_with(DiskProfile::nvme_c5d(), 0xF169, &funcs);
    let f = workload("image");
    ensure_recorded(&mut p, "image", "f9", &f.input_a());
    let mut t = TextTable::new(
        "Figure 9: optimization steps (image)",
        &[
            "step",
            "invocation (ms)",
            "major faults",
            "pf time (ms)",
            "block requests",
        ],
    );
    for sys in RestoreStrategy::ablation_ladder() {
        let mut inv = MeasuredCell::new();
        let mut majors = MeasuredCell::new();
        let mut pf = MeasuredCell::new();
        let mut blocks = MeasuredCell::new();
        for _ in 0..effort.reps(3) {
            let out = run_once(&mut p, "image", "f9", &f.input_b(), sys);
            inv.record(out.report.invocation_time);
            majors.record_value(out.report.major_faults as f64);
            pf.record(out.report.fault_wait);
            blocks.record_value(out.report.fault_block_requests as f64);
        }
        t.row(vec![
            sys.label().into(),
            format!("{inv}"),
            format!("{:.0}", majors.mean()),
            format!("{pf}"),
            format!("{:.0}", blocks.mean()),
        ]);
    }
    t
}

/// Figure 10: bursty workloads — 1 to 64 parallel invocations of
/// hello-world and json, from the same or different snapshots.
pub fn fig10_burst(effort: Effort) -> TextTable {
    let mut t = TextTable::new(
        "Figure 10: bursty workloads, mean per-invocation time (s)",
        &[
            "function",
            "snapshots",
            "parallelism",
            "Firecracker",
            "REAP",
            "FaaSnap",
        ],
    );
    let (parallelism, names): (&[u32], Vec<&str>) = match effort {
        Effort::Quick => (&[1, 4], vec!["hello-world"]),
        Effort::Full => (&[1, 4, 16, 64], vec!["hello-world", "json"]),
    };
    let systems = [
        RestoreStrategy::Vanilla,
        RestoreStrategy::Reap,
        RestoreStrategy::faasnap(),
    ];
    for name in &names {
        for (kind, kind_label) in [
            (BurstKind::SameSnapshot, "same"),
            (BurstKind::DifferentSnapshots, "diff"),
        ] {
            for &par in parallelism {
                let mut cells = Vec::new();
                for sys in systems {
                    let funcs = faas_workloads::all_functions();
                    let mut p = platform_with(DiskProfile::nvme_c5d(), 0xF170, &funcs);
                    let f = workload(name);
                    ensure_recorded(&mut p, name, "f10", &f.input_a());
                    let outs = p
                        .burst(name, "f10", &f.input_b(), sys, par, kind)
                        .unwrap_or_else(|e| panic!("burst: {e}"));
                    let mean_s = outs
                        .iter()
                        .map(|o| o.report.total_time().as_secs_f64())
                        .sum::<f64>()
                        / outs.len() as f64;
                    cells.push(format!("{mean_s:.3}"));
                }
                let mut row = vec![name.to_string(), kind_label.into(), par.to_string()];
                row.extend(cells);
                t.row(row);
            }
        }
    }
    t
}

/// Figure 11: all functions with snapshots on remote block storage (EBS).
pub fn fig11_remote(effort: Effort) -> TextTable {
    let funcs = faas_workloads::all_functions();
    let mut p = platform_with(DiskProfile::ebs_io2(), 0xF171, &funcs);
    let mut t = TextTable::new(
        "Figure 11: remote storage (EBS), execution time (ms)",
        &["function", "Firecracker", "REAP", "FaaSnap"],
    );
    let names: Vec<&str> = match effort {
        Effort::Quick => vec!["hello-world", "json"],
        Effort::Full => vec![
            "hello-world",
            "mmap",
            "read-list",
            "json",
            "compression",
            "pyaes",
            "chameleon",
            "image",
            "recognition",
            "pagerank",
            "matmul",
            "ffmpeg",
        ],
    };
    for name in names {
        let f = workload(name);
        ensure_recorded(&mut p, name, "f11", &f.input_a());
        let mut row = vec![name.to_string()];
        for sys in [
            RestoreStrategy::Vanilla,
            RestoreStrategy::Reap,
            RestoreStrategy::faasnap(),
        ] {
            row.push(format!(
                "{}",
                measure_total(&mut p, name, "f11", &f.input_b(), sys, effort.reps(3))
            ));
        }
        t.row(row);
    }
    t
}

/// §7.3: memory footprints of FaaSnap vs vanilla Firecracker snapshots.
pub fn tbl_footprint(effort: Effort) -> TextTable {
    let funcs = faas_workloads::all_functions();
    let mut p = platform_with(DiskProfile::nvme_c5d(), 0xF173, &funcs);
    let mut t = TextTable::new(
        "Memory footprint (MB): anonymous + page cache at completion",
        &["function", "Firecracker", "FaaSnap", "ratio"],
    );
    let names = fig6_functions(effort);
    for name in names {
        let f = workload(name);
        ensure_recorded(&mut p, name, "fp", &f.input_a());
        let fc = run_once(&mut p, name, "fp", &f.input_b(), RestoreStrategy::Vanilla);
        let fs = run_once(&mut p, name, "fp", &f.input_b(), RestoreStrategy::faasnap());
        let fc_mb = fc.report.footprint_pages() as f64 * 4096.0 / MIB as f64;
        let fs_mb = fs.report.footprint_pages() as f64 * 4096.0 / MIB as f64;
        t.row(vec![
            name.to_string(),
            format!("{fc_mb:.0}"),
            format!("{fs_mb:.0}"),
            format!("{:.2}", fs_mb / fc_mb),
        ]);
    }
    t
}

/// §4.6: loading-set region merging (hello-world: >1000 regions before,
/// <100 after, small data increase).
pub fn tbl_merge(effort: Effort) -> TextTable {
    let funcs = faas_workloads::all_functions();
    let mut p = platform_with(DiskProfile::nvme_c5d(), 0xF146, &funcs);
    let mut t = TextTable::new(
        "Loading-set region merging (gap threshold 32 pages)",
        &["function", "regions before", "regions after", "data added"],
    );
    let names: Vec<&str> = match effort {
        Effort::Quick => vec!["hello-world"],
        Effort::Full => vec!["hello-world", "json", "image", "chameleon"],
    };
    for name in names {
        let f = workload(name);
        ensure_recorded(&mut p, name, "m", &f.input_a());
        let a = p.registry().artifacts(name, "m").unwrap();
        t.row(vec![
            name.to_string(),
            a.ls.unmerged_region_count().to_string(),
            a.ls.region_count().to_string(),
            format!("{:.0}%", a.ls.merge_overhead() * 100.0),
        ]);
    }
    t
}

/// Design-choice sensitivity: working-set group size (§4.3 picks N = 1024)
/// and region-merge gap (§4.6 picks 32 pages), swept on `image`.
pub fn tbl_sensitivity(effort: Effort) -> TextTable {
    use faasnap::artifacts::{record_phase, RecordOptions};
    use faasnap::runtime::{run, Host};

    // recognition has the largest working set of the application
    // functions, so its loader genuinely races the guest — group ordering
    // and merge overhead are visible there.
    let f = workload("recognition");
    let mut t = TextTable::new(
        "Sensitivity: group size and merge gap (recognition, FaaSnap, input B)",
        &[
            "knob",
            "value",
            "total (ms)",
            "major faults",
            "ls regions",
            "ls file (MB)",
        ],
    );
    let (groups, gaps): (&[u64], &[u64]) = match effort {
        Effort::Quick => (&[1024], &[32]),
        Effort::Full => (&[128, 512, 1024, 4096, 16384], &[0, 8, 32, 128, 512]),
    };
    let mut run_case = |knob: &str, value: u64, options: RecordOptions| {
        let mut host = Host::new(DiskProfile::nvme_c5d(), 0x5E15 ^ value);
        let dev = host.primary_device();
        let artifacts = record_phase(
            &mut host,
            "recognition-sens",
            f.boot_image(),
            f.trace(&f.input_a()),
            dev,
            options,
        )
        .unwrap_or_else(|e| panic!("record phase failed: {e}"));
        host.drop_caches();
        let spec = artifacts.spec(RestoreStrategy::faasnap(), f.trace(&f.input_b()));
        let out = run(&mut host, vec![spec])
            .unwrap_or_else(|e| panic!("invocation failed: {e}"))
            .remove(0);
        t.row(vec![
            knob.into(),
            value.to_string(),
            format!("{:.1}", out.report.total_time().as_millis_f64()),
            out.report.major_faults.to_string(),
            artifacts.ls.region_count().to_string(),
            format!(
                "{:.1}",
                artifacts.ls.file_pages() as f64 * 4096.0 / MIB as f64
            ),
        ]);
    };
    for &g in groups {
        run_case(
            "group size",
            g,
            RecordOptions {
                group_size: g,
                scan_threshold: g,
                ..Default::default()
            },
        );
    }
    for &g in gaps {
        run_case(
            "merge gap",
            g,
            RecordOptions {
                merge_gap: g,
                ..Default::default()
            },
        );
    }
    t
}

/// §7.1: warm VMs vs. snapshots vs. cold starts as a function of
/// invocation frequency, with measured per-mode latencies.
pub fn tbl_policy(effort: Effort) -> TextTable {
    use faasnap_daemon::policy::{best_mode_for_period, Costs, ModeLatencies};
    use sim_core::time::SimDuration;

    // Measure the three mode latencies for `image` on this platform.
    let funcs = faas_workloads::all_functions();
    let mut p = platform_with(DiskProfile::nvme_c5d(), 0xF171AC, &funcs);
    let f = workload("image");
    let latencies =
        ModeLatencies::measure(&mut p, "image", "pol", &f.input_b()).expect("image is registered");

    let mut t = TextTable::new(
        format!(
            "Serving policy (image: warm {:.0} ms, FaaSnap {:.0} ms, cold {:.0} ms)",
            latencies.warm.as_millis_f64(),
            latencies.snapshot.as_millis_f64(),
            latencies.cold.as_millis_f64()
        ),
        &["invocation period", "best mode"],
    );
    let periods: &[(u64, &str)] = match effort {
        Effort::Quick => &[(30, "30 s"), (7200, "2 h")],
        Effort::Full => &[
            (10, "10 s"),
            (60, "1 min"),
            (600, "10 min"),
            (3600, "1 h"),
            (7200, "2 h"),
            (43_200, "12 h"),
            (86_400, "24 h"),
        ],
    };
    for &(secs, label) in periods {
        let mode = best_mode_for_period(
            SimDuration::from_secs(secs),
            SimDuration::from_secs(7 * 86_400),
            SimDuration::from_secs(900), // 15-minute keep-alive (§2.1)
            latencies,
            Costs::default(),
            1000.0,
        );
        t.row(vec![label.into(), format!("{mode:?}")]);
    }
    t
}

/// Extension: host page-cache pressure. The `Cached` reference assumes
/// the whole memory file stays resident; under memory pressure its pages
/// get evicted while FaaSnap's compact loading set still fits. Sweeps the
/// cache budget and compares strategies on `recognition` (230 MB WS).
pub fn tbl_cache_pressure(effort: Effort) -> TextTable {
    use sim_mm::page_cache::PageCache;

    let funcs = faas_workloads::all_functions();
    let f = workload("recognition");
    let mut t = TextTable::new(
        "Cache pressure (recognition, input B): total time (ms) vs cache budget",
        &["cache budget", "Firecracker", "FaaSnap", "Cached"],
    );
    let budgets_mb: &[u64] = match effort {
        Effort::Quick => &[4096, 256],
        Effort::Full => &[4096, 1024, 512, 256, 128],
    };
    for &mb in budgets_mb {
        let mut p = platform_with(DiskProfile::nvme_c5d(), 0xCAC4E ^ mb, &funcs);
        ensure_recorded(&mut p, "recognition", "cp", &f.input_a());
        p.host_mut().pages.set_cache(PageCache::new(mb * 256)); // MB -> pages
        let mut row = vec![format!("{mb} MB")];
        for sys in [
            RestoreStrategy::Vanilla,
            RestoreStrategy::faasnap(),
            RestoreStrategy::Cached,
        ] {
            let out = run_once(&mut p, "recognition", "cp", &f.input_b(), sys);
            row.push(format!("{:.0}", out.report.total_time().as_millis_f64()));
        }
        t.row(row);
    }
    t
}

/// Extension: multi-host fleet SLOs. Calibrates per-workload service
/// times on the single-host platform, then replays a Zipf-skewed
/// open-loop tenant mix against the fleet simulator under each routing
/// policy. Snapshot-locality routing concentrates each tenant's restores
/// where its snapshot (and page-cache residency) already lives, so its
/// tail latency should beat random placement.
pub fn fig_cluster(effort: Effort) -> TextTable {
    use faasnap_cluster::{calibrate, run_cluster, ClusterConfig, RoutePolicy, WorkloadSpec};
    use sim_core::time::SimDuration;

    let seed = 42;
    let workloads = ["hello-world", "json", "compression", "image"];
    let services = calibrate::calibrate_workloads(&workloads, seed).expect("calibration succeeds");
    let (hosts, tenants, rate, horizon_s) = match effort {
        Effort::Quick => (4, 24, 25.0, 60),
        Effort::Full => (8, 36, 40.0, 300),
    };
    let mut t = TextTable::new(
        format!("Fleet SLOs ({hosts} hosts, {tenants} tenants, {rate}/s, {horizon_s}s)"),
        &[
            "policy",
            "served",
            "shed",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "warm+hot %",
            "cold",
            "util %",
        ],
    );
    for policy in [
        RoutePolicy::Random,
        RoutePolicy::LeastLoaded,
        RoutePolicy::SnapshotLocality,
    ] {
        let mut cfg = ClusterConfig::demo(hosts, policy, seed);
        cfg.workload = WorkloadSpec::zipf(tenants, &workloads, rate, 1.2);
        cfg.horizon = SimDuration::from_secs(horizon_s);
        cfg.services = services.clone();
        let m = run_cluster(&cfg);
        let mix = m.mode_mix();
        let served = m.total_served();
        let fast = if served == 0 {
            0.0
        } else {
            100.0 * (mix[0] + mix[1]) as f64 / served as f64
        };
        t.row(vec![
            policy.label().into(),
            served.to_string(),
            m.total_shed().to_string(),
            format!("{:.1}", m.p(50.0)),
            format!("{:.1}", m.p(95.0)),
            format!("{:.1}", m.p(99.0)),
            format!("{fast:.1}"),
            mix[3].to_string(),
            format!("{:.1}", 100.0 * m.mean_utilization()),
        ]);
    }
    t
}

/// Extension: snapshot branching fan-out. Branches N COW siblings from
/// one snapshot in a single burst and compares the disk reads actually
/// issued against N independent restores (N × the N = 1 reads). Sibling
/// faults on a shared page coalesce onto one in-flight read, and every
/// later sibling hits the cache the earlier ones loaded, so the read
/// amplification collapses from N× toward 1×.
pub fn fig_fork(effort: Effort) -> TextTable {
    let funcs = faas_workloads::all_functions();
    let fan: &[usize] = match effort {
        Effort::Quick => &[1, 10, 100],
        Effort::Full => &[1, 10, 100, 1000],
    };
    let mut t = TextTable::new(
        "Snapshot branching: N-way fan-out from one snapshot (disk pages read)",
        &[
            "system",
            "N",
            "fork reads",
            "independent",
            "dedup",
            "shared",
            "private/vm",
            "p95 (ms)",
        ],
    );
    for strategy in [RestoreStrategy::Vanilla, RestoreStrategy::faasnap()] {
        let mut p = platform_with(DiskProfile::nvme_c5d(), 0xF08C, &funcs);
        let f = workload("json");
        ensure_recorded(&mut p, f.name(), "fork", &f.input_a());
        // The N = 1 fork is the independent-restore baseline: every
        // fork call drops the caches first, so each row starts cold.
        let solo = p
            .try_fork(f.name(), "fork", &f.input_a(), strategy, 1)
            .unwrap_or_else(|e| panic!("fork baseline: {e}"));
        for &n in fan {
            let out = p
                .try_fork(f.name(), "fork", &f.input_a(), strategy, n)
                .unwrap_or_else(|e| panic!("fork x{n}: {e}"));
            let independent = solo.disk_read_pages * n as u64;
            let dedup = if out.disk_read_pages == 0 {
                1.0
            } else {
                independent as f64 / out.disk_read_pages as f64
            };
            let times: sim_core::stats::Summary = out
                .outcomes
                .iter()
                .map(|o| o.report.total_time().as_millis_f64())
                .collect();
            t.row(vec![
                strategy.label().into(),
                n.to_string(),
                out.disk_read_pages.to_string(),
                independent.to_string(),
                format!("{dedup:.1}x"),
                out.shared_pages.to_string(),
                (out.private_pages / n as u64).to_string(),
                format!("{:.1}", times.p95()),
            ]);
        }
    }
    t
}
