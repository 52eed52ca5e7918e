//! Differential robustness harness over the restore stack's fault
//! injection (the counterpart to `restore_correctness.rs`).
//!
//! The contract under test, end to end through the daemon API:
//!
//! 1. **Byte identity** — under any fault schedule that does not exhaust
//!    a retry budget, every restore strategy (including the full
//!    Figure 9 ablation lattice) still hands the guest exactly the
//!    snapshot's bytes. Retries and degradations may change *timing*,
//!    never *content*.
//! 2. **Fail closed** — a schedule that does exhaust a budget surfaces
//!    as a typed [`RestoreError::ReadRetriesExhausted`]; it never
//!    silently corrupts guest memory or half-writes artifacts.
//! 3. **Determinism** — the same seed produces the same injection
//!    schedule, retry trace, and metrics artifacts, byte for byte.

use faasnap::runtime::{InvocationOutcome, MmDelaySpec};
use faasnap::strategy::{FaasnapConfig, RestoreStrategy};
use faasnap::{FaultReport, RestoreError, RetrySite};
use faasnap_daemon::platform::{BurstKind, InvokeError, Platform};
use faasnap_obs::Metrics;
use sim_core::time::SimDuration;
use sim_storage::faults::{FaultPlan, FaultProfile, FaultRule, InjectedFaultKind};
use sim_storage::profiles::DiskProfile;
use sim_storage::IoKind;

fn platform_with(name: &str, seed: u64) -> Platform {
    let mut p = Platform::new(DiskProfile::nvme_c5d(), seed);
    let f = faas_workloads::by_name(name).unwrap();
    p.register(f);
    p
}

fn recorded_platform(name: &str, seed: u64) -> Platform {
    let mut p = platform_with(name, seed);
    let f = faas_workloads::by_name(name).unwrap();
    p.record(name, "t", &f.input_a()).unwrap();
    p
}

/// Every strategy, including the full ablation lattice — the same
/// population `restore_correctness.rs` pins on healthy runs.
fn all_strategies() -> Vec<RestoreStrategy> {
    let mut v = vec![
        RestoreStrategy::Warm,
        RestoreStrategy::Vanilla,
        RestoreStrategy::Cached,
        RestoreStrategy::Reap,
    ];
    v.extend(
        FaasnapConfig::lattice()
            .into_iter()
            .map(RestoreStrategy::FaaSnap),
    );
    v
}

/// A bounded mixed-fault schedule guaranteed not to exhaust any retry
/// budget: every data-loss rule's global `times` budget is below the
/// smallest per-access retry limit, and the probabilistic profile only
/// injects latency spikes (which never fail a read).
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
    plan.push_rule(FaultRule::on_kind(
        IoKind::LoaderPrefetch,
        InjectedFaultKind::ReadError,
        2,
    ));
    plan.push_rule(FaultRule::any(InjectedFaultKind::ShortRead, 2));
    plan.push_rule(FaultRule::on_kind(
        IoKind::FaultRead,
        InjectedFaultKind::Corruption,
        1,
    ));
    plan
}

#[test]
fn byte_identity_across_all_strategies_under_bounded_faults() {
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let input = f.input_b();
    let baseline = p
        .invoke("json", "t", &input, RestoreStrategy::Warm)
        .unwrap()
        .final_memory
        .checksum();
    let mut injected_somewhere = 0u64;
    for s in all_strategies() {
        // A fresh plan per strategy: each one faces the same schedule
        // function, not whatever budget its predecessor left behind.
        p.inject_storage_faults(bounded_plan(0xD1FF));
        let out = p
            .invoke("json", "t", &input, s)
            .unwrap_or_else(|e| panic!("{s:?} failed under bounded faults: {e}"));
        assert_eq!(
            out.final_memory.checksum(),
            baseline,
            "{s:?} diverged from Warm under injected faults"
        );
        injected_somewhere += out.report.faults.injected_total();
        let plan = p.clear_storage_faults().unwrap();
        assert_eq!(
            out.report.faults.injected_total(),
            plan.injected(),
            "{s:?}: report and plan log disagree on injection count"
        );
    }
    assert!(
        injected_somewhere > 0,
        "the schedule never fired; the differential run tested nothing"
    );
}

#[test]
fn retries_heal_data_loss_without_degradation() {
    // A FaaSnap run whose loader prefetches fail twice: the retry path
    // must heal (no degradation) and preserve bytes.
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let baseline = p
        .invoke("json", "t", &f.input_b(), RestoreStrategy::Warm)
        .unwrap()
        .final_memory
        .checksum();
    let mut plan = FaultPlan::new(1);
    plan.push_rule(FaultRule::on_kind(
        IoKind::LoaderPrefetch,
        InjectedFaultKind::ReadError,
        2,
    ));
    p.inject_storage_faults(plan);
    let out = p
        .invoke("json", "t", &f.input_b(), RestoreStrategy::faasnap())
        .unwrap();
    assert_eq!(out.final_memory.checksum(), baseline);
    assert!(!out.report.degraded, "two failures must heal via retries");
    assert_eq!(out.report.faults.injected_read_errors, 2);
    assert_eq!(out.report.faults.loader_retries, 2);
    assert!(out.report.faults.backoff_wait > SimDuration::ZERO);
}

/// One faulted run under metrics: the realized schedule, the fault
/// report, and the rendered metrics snapshot.
fn faulted_run(seed: u64) -> (String, FaultReport, String) {
    let mut p = recorded_platform("json", 0xFA17);
    p.set_metrics(Metrics::enabled());
    let f = faas_workloads::by_name("json").unwrap();
    p.inject_storage_faults(bounded_plan(seed));
    let out = p
        .invoke("json", "t", &f.input_b(), RestoreStrategy::faasnap())
        .unwrap();
    let schedule = p.fault_schedule();
    (schedule, out.report.faults, p.metrics().render_prometheus())
}

#[test]
fn same_seed_same_schedule_retry_trace_and_metrics() {
    let (sched_a, faults_a, prom_a) = faulted_run(5);
    let (sched_b, faults_b, prom_b) = faulted_run(5);
    assert!(!sched_a.is_empty(), "the plan must actually fire");
    assert_eq!(sched_a, sched_b, "same seed, same schedule, byte for byte");
    assert_eq!(faults_a, faults_b, "same seed, same retry trace");
    assert_eq!(prom_a, prom_b, "same seed, same metrics artifact");
    let (sched_c, _, _) = faulted_run(6);
    assert_ne!(sched_a, sched_c, "different seed, different spike schedule");
}

#[test]
fn faulted_runs_emit_fault_metrics_and_healthy_runs_do_not() {
    let (_, faults, prom) = faulted_run(5);
    assert!(faults.injected_total() > 0);
    assert!(prom.contains("faasnap_fault_injected_total"));
    // A healthy run with metrics enabled must emit none of the fault
    // series — the families only exist when injections occur.
    let mut p = recorded_platform("json", 0xFA17);
    p.set_metrics(Metrics::enabled());
    let f = faas_workloads::by_name("json").unwrap();
    p.invoke("json", "t", &f.input_b(), RestoreStrategy::faasnap())
        .unwrap();
    let healthy = p.metrics().render_prometheus();
    for family in [
        "faasnap_fault_injected_total",
        "faasnap_retry_total",
        "faasnap_degraded_total",
        "faasnap_restore_failed_total",
    ] {
        assert!(
            !healthy.contains(family),
            "{family} leaked into healthy run"
        );
    }
}

#[test]
fn exhausted_retries_fail_closed_with_typed_error() {
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let clean = p
        .invoke("json", "t", &f.input_b(), RestoreStrategy::Vanilla)
        .unwrap()
        .final_memory
        .checksum();
    let mut plan = FaultPlan::new(3);
    plan.push_rule(FaultRule::any(InjectedFaultKind::ReadError, u64::MAX));
    p.inject_storage_faults(plan);
    let err = p
        .try_invoke("json", "t", &f.input_b(), RestoreStrategy::Vanilla)
        .expect_err("every read failing forever must exhaust the budget");
    match err {
        InvokeError::Restore(RestoreError::ReadRetriesExhausted { site, attempts, .. }) => {
            assert_eq!(site, RetrySite::GuestFault);
            assert!(
                attempts >= 2,
                "budget allows several attempts, got {attempts}"
            );
        }
        other => panic!("expected ReadRetriesExhausted, got {other:?}"),
    }
    // Recovery: disarm the plan and the same platform serves the same
    // bytes again — the failed run left no poisoned state behind.
    p.clear_storage_faults();
    let out = p
        .invoke("json", "t", &f.input_b(), RestoreStrategy::Vanilla)
        .unwrap();
    assert_eq!(out.final_memory.checksum(), clean);
}

#[test]
fn loading_set_failure_degrades_to_vanilla_semantics() {
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let baseline = p
        .invoke("json", "t", &f.input_b(), RestoreStrategy::Warm)
        .unwrap()
        .final_memory
        .checksum();
    let ls_file = p.registry().artifacts("json", "t").unwrap().ls_file;
    // The loading-set file is unreadable to the loader, forever.
    let mut plan = FaultPlan::new(1);
    plan.push_rule(FaultRule {
        file: Some(ls_file),
        kind: Some(IoKind::LoaderPrefetch),
        pages: None,
        fault: InjectedFaultKind::ReadError,
        times: u64::MAX,
    });
    p.inject_storage_faults(plan);
    let out = p
        .invoke("json", "t", &f.input_b(), RestoreStrategy::faasnap())
        .unwrap();
    assert!(out.report.degraded, "loader exhaustion must degrade");
    assert_eq!(
        out.final_memory.checksum(),
        baseline,
        "vanilla fallback still hands the guest the snapshot's bytes"
    );
}

#[test]
fn memfile_prefetch_failure_degrades_to_demand_paging() {
    // The concurrent-paging ablation prefetches the memory file; killing
    // those prefetches abandons the loader but demand paging (which uses
    // FaultRead, untouched here) finishes the run byte-identically.
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let baseline = p
        .invoke("json", "t", &f.input_b(), RestoreStrategy::Warm)
        .unwrap()
        .final_memory
        .checksum();
    let mut plan = FaultPlan::new(1);
    plan.push_rule(FaultRule::on_kind(
        IoKind::LoaderPrefetch,
        InjectedFaultKind::ReadError,
        u64::MAX,
    ));
    p.inject_storage_faults(plan);
    let out = p
        .invoke(
            "json",
            "t",
            &f.input_b(),
            RestoreStrategy::FaaSnap(FaasnapConfig::concurrent_paging_only()),
        )
        .unwrap();
    assert!(out.report.degraded);
    assert_eq!(out.final_memory.checksum(), baseline);
}

#[test]
fn reap_fetch_failure_degrades_and_miss_failure_fails_closed() {
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let baseline = p
        .invoke("json", "t", &f.input_b(), RestoreStrategy::Warm)
        .unwrap()
        .final_memory
        .checksum();
    // The blocking working-set fetch never succeeds: REAP must fall back
    // to pure uffd demand paging, not fail the invocation.
    let mut plan = FaultPlan::new(1);
    plan.push_rule(FaultRule::on_kind(
        IoKind::ReapFetch,
        InjectedFaultKind::ReadError,
        u64::MAX,
    ));
    p.inject_storage_faults(plan);
    let out = p
        .invoke("json", "t", &f.input_b(), RestoreStrategy::Reap)
        .unwrap();
    assert!(out.report.degraded, "fetch exhaustion degrades");
    assert_eq!(out.final_memory.checksum(), baseline);
    assert_eq!(out.report.fetch_pages, 0, "no prefetch happened");
    // Miss-handler reads failing forever is different: those pages can
    // come from nowhere else, so the restore fails closed.
    let mut plan = FaultPlan::new(1);
    plan.push_rule(FaultRule::on_kind(
        IoKind::ReapMiss,
        InjectedFaultKind::ReadError,
        u64::MAX,
    ));
    p.clear_storage_faults();
    p.inject_storage_faults(plan);
    let err = p
        .try_invoke("json", "t", &f.input_b(), RestoreStrategy::Reap)
        .expect_err("unreadable miss pages must fail the restore");
    match err {
        InvokeError::Restore(RestoreError::ReadRetriesExhausted { site, .. }) => {
            assert_eq!(site, RetrySite::ReapMiss);
        }
        other => panic!("expected ReadRetriesExhausted at reap_miss, got {other:?}"),
    }
}

#[test]
fn mm_delay_injection_shifts_timing_never_bytes() {
    let f = faas_workloads::by_name("json").unwrap();
    let run = |delay: Option<MmDelaySpec>| {
        let mut p = recorded_platform("json", 0xFA17);
        let mut spec = p
            .build_spec("json", "t", &f.input_b(), RestoreStrategy::faasnap())
            .unwrap();
        spec.mm_delay = delay;
        let host = p.host_mut();
        host.drop_caches();
        faasnap::runtime::run(host, vec![spec]).unwrap().remove(0)
    };
    let clean = run(None);
    let delayed = MmDelaySpec {
        seed: 11,
        prob: 0.3,
        extra: SimDuration::from_micros(500),
        budget: 64,
    };
    let a = run(Some(delayed));
    let b = run(Some(delayed));
    assert_eq!(
        a.final_memory.checksum(),
        clean.final_memory.checksum(),
        "resolution delays must not change guest bytes"
    );
    assert!(
        a.report.faults.injected_mm_delays > 0,
        "injector armed but idle"
    );
    assert_eq!(clean.report.faults.injected_mm_delays, 0);
    assert!(
        a.report.total_time() > clean.report.total_time(),
        "injected delays must show up in timing"
    );
    assert_eq!(a.report.total_time(), b.report.total_time());
    assert_eq!(
        a.report.faults.injected_mm_delays,
        b.report.faults.injected_mm_delays
    );
}

#[test]
fn crashed_record_leaves_artifacts_cleanly_absent() {
    let mut p = platform_with("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let mut plan = FaultPlan::new(9);
    plan.push_rule(FaultRule::any(InjectedFaultKind::ReadError, u64::MAX));
    p.inject_storage_faults(plan);
    let err = p.record("json", "t", &f.input_a());
    assert!(err.is_err(), "record under permanent read errors must fail");
    assert!(
        p.registry().artifacts("json", "t").is_none(),
        "failed record must not leave half-written artifacts"
    );
    // Same platform, faults cleared: record completes and serves.
    p.clear_storage_faults();
    p.record("json", "t", &f.input_a()).unwrap();
    p.invoke("json", "t", &f.input_b(), RestoreStrategy::faasnap())
        .unwrap();
}

#[test]
fn platform_recreation_after_mid_invoke_crash_is_deterministic() {
    // Reference: a never-faulted platform.
    let mut reference = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let expected = reference
        .invoke("json", "t", &f.input_b(), RestoreStrategy::faasnap())
        .unwrap()
        .final_memory
        .checksum();
    // Crash path: same seed, invocation dies mid-restore, the platform
    // is dropped (the "daemon process" is killed) and re-created.
    let mut crashed = recorded_platform("json", 0xFA17);
    let mut plan = FaultPlan::new(1);
    plan.push_rule(FaultRule::any(InjectedFaultKind::ReadError, u64::MAX));
    crashed.inject_storage_faults(plan);
    crashed
        .try_invoke("json", "t", &f.input_b(), RestoreStrategy::faasnap())
        .expect_err("the mid-invoke crash");
    drop(crashed);
    let mut restarted = recorded_platform("json", 0xFA17);
    let out = restarted
        .invoke("json", "t", &f.input_b(), RestoreStrategy::faasnap())
        .unwrap();
    assert_eq!(
        out.final_memory.checksum(),
        expected,
        "a restarted platform replays the same bytes"
    );
}

// ---------------------------------------------------------------------
// Schedule shrinking
// ---------------------------------------------------------------------

/// Delta-debugs a failing fault schedule down to a 1-minimal one: every
/// remaining rule is necessary (removing any single rule makes the
/// predicate pass). `fails` must hold for the initial schedule.
fn shrink_to_minimal(
    mut rules: Vec<FaultRule>,
    mut fails: impl FnMut(&[FaultRule]) -> bool,
) -> Vec<FaultRule> {
    assert!(fails(&rules), "initial schedule must fail");
    let mut i = 0;
    while i < rules.len() {
        let mut candidate = rules.clone();
        candidate.remove(i);
        if fails(&candidate) {
            rules = candidate;
        } else {
            i += 1;
        }
    }
    rules
}

#[test]
fn shrinking_isolates_the_rule_that_causes_retries() {
    // Four benign latency rules around one data-loss rule: shrinking the
    // "invocation retried" predicate must isolate the data-loss rule.
    let rules = vec![
        FaultRule::any(InjectedFaultKind::LatencySpike, 2),
        FaultRule::on_kind(IoKind::LoaderPrefetch, InjectedFaultKind::LatencySpike, 1),
        FaultRule::on_kind(IoKind::FaultRead, InjectedFaultKind::ReadError, 1),
        FaultRule::any(InjectedFaultKind::LatencySpike, 1),
    ];
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let input = f.input_b();
    let minimal = shrink_to_minimal(rules, |rules| {
        let mut plan = FaultPlan::new(0);
        for r in rules {
            plan.push_rule(r.clone());
        }
        p.inject_storage_faults(plan);
        let out = p
            .invoke("json", "t", &input, RestoreStrategy::Vanilla)
            .unwrap();
        p.clear_storage_faults();
        out.report.faults.retries_total() > 0
    });
    assert_eq!(minimal.len(), 1, "exactly one rule is load-bearing");
    assert_eq!(minimal[0].fault, InjectedFaultKind::ReadError);
    assert_eq!(minimal[0].kind, Some(IoKind::FaultRead));
}

#[test]
fn shrinking_over_seeds_finds_minimal_schedules() {
    // Property-style sweep: for a handful of seeds, build a randomized
    // rule soup (latency noise + one or more data-loss rules), shrink
    // against the retry predicate, and check 1-minimality: the shrunk
    // schedule still fails, and dropping any single remaining rule makes
    // it pass.
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let input = f.input_b();
    let mut predicate = |rules: &[FaultRule]| {
        let mut plan = FaultPlan::new(0);
        for r in rules {
            plan.push_rule(r.clone());
        }
        p.inject_storage_faults(plan);
        let out = p
            .invoke("json", "t", &input, RestoreStrategy::Vanilla)
            .unwrap();
        p.clear_storage_faults();
        out.report.faults.retries_total() > 0
    };
    for seed in 0..4u64 {
        let mut rng = sim_core::rng::Prng::new(seed);
        let mut rules = Vec::new();
        for _ in 0..rng.range(2, 5) {
            rules.push(FaultRule::any(
                InjectedFaultKind::LatencySpike,
                rng.range(1, 3),
            ));
        }
        for _ in 0..rng.range(1, 2) {
            rules.push(FaultRule::on_kind(
                IoKind::FaultRead,
                InjectedFaultKind::ReadError,
                1,
            ));
        }
        let minimal = shrink_to_minimal(rules, &mut predicate);
        assert!(predicate(&minimal), "shrunk schedule still fails");
        assert!(
            minimal
                .iter()
                .all(|r| r.fault == InjectedFaultKind::ReadError),
            "seed {seed}: latency noise survived shrinking: {minimal:?}"
        );
        for i in 0..minimal.len() {
            let mut without = minimal.clone();
            without.remove(i);
            assert!(
                !predicate(&without),
                "seed {seed}: rule {i} is not load-bearing"
            );
        }
    }
}

#[test]
fn concurrent_sibling_faults_share_one_disk_read_stream() {
    // Eight siblings demand-page the same snapshot concurrently. A
    // sibling faulting on a page another sibling is already reading
    // waits on that one in-flight read instead of issuing its own, and
    // later faults hit the cache the earlier reads loaded — so the
    // branched burst must not read more pages than a single restore.
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let solo = p
        .fork("json", "t", &f.input_b(), RestoreStrategy::Vanilla, 1)
        .unwrap();
    let branched = p
        .fork("json", "t", &f.input_b(), RestoreStrategy::Vanilla, 8)
        .unwrap();
    assert!(
        branched.disk_read_pages <= solo.disk_read_pages,
        "8 siblings read {} pages, one restore reads {}",
        branched.disk_read_pages,
        solo.disk_read_pages
    );
    // Sharing the read stream never shares dirty state: every sibling
    // still ends with exactly the bytes an independent restore yields.
    let independent = solo.outcomes[0].final_memory.checksum();
    for (i, o) in branched.outcomes.iter().enumerate() {
        assert_eq!(
            o.final_memory.checksum(),
            independent,
            "sibling {i} diverged from the independent restore"
        );
    }
}

#[test]
fn injected_error_on_shared_read_heals_for_every_waiting_sibling() {
    // A bounded schedule (two read errors, under every retry budget)
    // against a 4-way fork: the retried read must heal for *all*
    // waiters — every sibling finishes with the snapshot's bytes and
    // the injection log agrees the schedule fired.
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let clean = p
        .invoke("json", "t", &f.input_b(), RestoreStrategy::Warm)
        .unwrap()
        .final_memory
        .checksum();
    let mut plan = FaultPlan::new(9);
    plan.push_rule(FaultRule::on_kind(
        IoKind::FaultRead,
        InjectedFaultKind::ReadError,
        2,
    ));
    p.inject_storage_faults(plan);
    let branched = p
        .fork("json", "t", &f.input_b(), RestoreStrategy::Vanilla, 4)
        .unwrap();
    let plan = p.clear_storage_faults().unwrap();
    assert_eq!(plan.injected(), 2, "the schedule never fired");
    for (i, o) in branched.outcomes.iter().enumerate() {
        assert_eq!(
            o.final_memory.checksum(),
            clean,
            "sibling {i} corrupted by a healed read fault"
        );
    }
}

#[test]
fn exhausted_retries_fail_the_whole_fork_closed_and_deterministically() {
    // Every read failing forever: the fork must surface one typed
    // error — no sibling half-completes — and the same seed must
    // produce the identical error, byte for byte.
    let run = || {
        let mut p = recorded_platform("json", 0xFA17);
        let f = faas_workloads::by_name("json").unwrap();
        let mut plan = FaultPlan::new(3);
        plan.push_rule(FaultRule::any(InjectedFaultKind::ReadError, u64::MAX));
        p.inject_storage_faults(plan);
        let err = p
            .try_fork("json", "t", &f.input_b(), RestoreStrategy::Vanilla, 4)
            .expect_err("every read failing forever must fail the fork");
        match &err {
            InvokeError::Restore(RestoreError::ReadRetriesExhausted { site, .. }) => {
                assert_eq!(*site, RetrySite::GuestFault);
            }
            other => panic!("expected ReadRetriesExhausted, got {other:?}"),
        }
        format!("{err:?}")
    };
    assert_eq!(run(), run(), "fork failure is not deterministic");
}

#[test]
fn exhausted_retries_fail_a_burst_closed_instead_of_panicking() {
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let mut plan = FaultPlan::new(3);
    plan.push_rule(FaultRule::any(InjectedFaultKind::ReadError, u64::MAX));
    p.inject_storage_faults(plan);
    let err = p
        .burst(
            "json",
            "t",
            &f.input_b(),
            RestoreStrategy::Vanilla,
            3,
            BurstKind::SameSnapshot,
        )
        .expect_err("every read failing forever must fail the burst");
    assert!(
        err.contains("read retries exhausted"),
        "unexpected burst error: {err}"
    );
}

// ---------------------------------------------------------------------
// Retry-policy pins: one fail-forever plan per read site, plus the exact
// retry trace of a bounded schedule across every strategy
// ---------------------------------------------------------------------

/// Invokes json under `strategy` with every read of `kind` failing
/// forever.
fn invoke_failing_forever(
    kind: IoKind,
    strategy: RestoreStrategy,
) -> Result<InvocationOutcome, InvokeError> {
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let mut plan = FaultPlan::new(1);
    plan.push_rule(FaultRule::on_kind(
        kind,
        InjectedFaultKind::ReadError,
        u64::MAX,
    ));
    p.inject_storage_faults(plan);
    p.try_invoke("json", "t", &f.input_b(), strategy)
}

/// The site and attempt count of a restore that must fail closed.
fn exhausted(result: Result<InvocationOutcome, InvokeError>) -> (RetrySite, u32) {
    match result {
        Err(InvokeError::Restore(RestoreError::ReadRetriesExhausted {
            site, attempts, ..
        })) => (site, attempts),
        Err(other) => panic!("expected ReadRetriesExhausted, got {other:?}"),
        Ok(out) => panic!("expected a failed restore, got {:?}", out.report.faults),
    }
}

#[test]
fn guest_fault_reads_fail_closed_after_four_attempts() {
    let result = invoke_failing_forever(IoKind::FaultRead, RestoreStrategy::Vanilla);
    assert_eq!(exhausted(result), (RetrySite::GuestFault, 4));
}

#[test]
fn reap_miss_reads_fail_closed_after_three_attempts() {
    let result = invoke_failing_forever(IoKind::ReapMiss, RestoreStrategy::Reap);
    assert_eq!(exhausted(result), (RetrySite::ReapMiss, 3));
}

#[test]
fn loader_reads_degrade_after_two_retries() {
    let out = invoke_failing_forever(IoKind::LoaderPrefetch, RestoreStrategy::faasnap()).unwrap();
    assert!(out.report.degraded);
    assert_eq!(out.report.faults.loader_retries, 2);
}

#[test]
fn reap_fetch_degrades_after_two_retries() {
    let out = invoke_failing_forever(IoKind::ReapFetch, RestoreStrategy::Reap).unwrap();
    assert!(out.report.degraded);
    assert_eq!(out.report.faults.reap_retries, 2);
    assert_eq!(out.report.fetch_pages, 0);
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
fn retry_traces_under_bounded_faults_are_pinned() {
    // Every retry's site, file, page, attempt and instant, and every
    // run's total backoff, for all strategies under one bounded
    // schedule: a change to any site's retry policy shows up here.
    let mut p = recorded_platform("json", 0xFA17);
    let f = faas_workloads::by_name("json").unwrap();
    let mut retries = 0;
    let mut words = Vec::new();
    for s in all_strategies() {
        p.inject_storage_faults(bounded_plan(0xD1FF));
        let faults = p
            .invoke("json", "t", &f.input_b(), s)
            .unwrap()
            .report
            .faults;
        p.clear_storage_faults();
        retries += faults.retry_trace.len();
        for r in &faults.retry_trace {
            words.extend([
                r.site as u64,
                r.file.0,
                r.page,
                u64::from(r.attempt),
                r.at_ns,
            ]);
        }
        words.push(faults.backoff_wait.as_nanos());
    }
    assert_eq!(
        (retries, fnv1a(words)),
        (23, 2_558_010_268_008_236_772),
        "retry traces drifted"
    );
}
