//! `faasnapd` rejects the flags it would otherwise ignore: unknown names
//! on every subcommand, so a typo cannot silently run the defaults, and
//! `cluster`'s fleet-shape flags next to a preset that fixes the fleet.
//! Both exit with status 2 before simulating anything, as does an
//! unknown subcommand. The flags a subcommand does read take effect.

use std::process::{Command, Output};

fn faasnapd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_faasnapd"))
        .args(args)
        .output()
        .expect("faasnapd starts")
}

fn assert_rejected(args: &[&str], flag: &str) {
    let out = faasnapd(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} still printed a fleet");
}

#[test]
fn unknown_cluster_flags_exit_2() {
    // The typo must not take `--smoke` as its value and run anyway.
    assert_rejected(&["cluster", "--branc", "--smoke"], "--branc");
    assert_rejected(&["cluster", "--smoke", "--hostz", "4"], "--hostz");
    // Another subcommand's flag is unknown to `cluster` as well.
    assert_rejected(&["cluster", "--smoke", "--strategy", "reap"], "--strategy");
    // A removed flag is unknown too, not silently ignored.
    assert_rejected(&["cluster", "--smoke", "--repeat", "20"], "--repeat");
}

#[test]
fn unknown_flags_exit_2_on_every_subcommand() {
    // A typo must not run the default strategy.
    assert_rejected(
        &["invoke", "hello-world", "--strategi", "reap"],
        "--strategi",
    );
    // A flag another subcommand reads is still unknown here.
    assert_rejected(
        &["burst", "hello-world", "--trace-out", "/dev/null"],
        "--trace-out",
    );
    assert_rejected(
        &["policy", "hello-world", "--strategy", "reap"],
        "--strategy",
    );
    // The workspace lint is the `faasnap-lint` binary's alone.
    assert_rejected(&["lint"], "\"lint\"");
    assert_rejected(&["list", "--device", "ebs"], "--device");
}

#[test]
fn invoke_fork_prints_the_span_tree_with_trace() {
    // Every `--fork N` runs the one invoke path, so `--trace` prints the
    // span tree for a fork as it does for a single restore.
    let out = faasnapd(&["invoke", "hello-world", "--fork", "2", "--trace"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hello-world x2 fork"), "{stdout}");
    assert!(
        stdout.contains("\nplatform/fork ["),
        "no span tree: {stdout}"
    );
}

#[test]
fn fleet_shape_flags_conflict_with_presets() {
    for preset in ["--smoke", "--mega"] {
        for (flag, value) in [
            ("--hosts", "4"),
            ("--tenants", "10"),
            ("--rate", "5"),
            ("--skew", "1.0"),
            ("--horizon", "60"),
        ] {
            assert_rejected(&["cluster", preset, flag, value], flag);
            assert_rejected(&["cluster", flag, value, preset], flag);
        }
    }
}

#[test]
fn preset_with_knobs_it_reads_still_runs() {
    let out = faasnapd(&[
        "cluster",
        "--smoke",
        "--policy",
        "snapshot-locality",
        "--seed",
        "42",
        "--dedup",
        "off",
        "--chunk-bytes",
        "8388608",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"runs\""));
}
