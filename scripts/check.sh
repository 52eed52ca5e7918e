#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 verify (build + tests).
# Everything runs offline; there are no registry dependencies.
#
# Usage: scripts/check.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny rustdoc warnings)"
# A broken or ambiguous intra-doc link, such as one left pointing at a
# renamed or deleted function, fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> faasnap-lint: determinism & architecture rules (deep)"
# Fails on any diagnostic; the final lines report the unwrap-budget and
# panic-path ratchets (call sites used vs. the caps in faasnap-lint).
# --deep adds the interprocedural passes: call-graph determinism taint,
# env reads, float hazards, dead allows.
cargo run --release -q -p faasnap-lint -- --deep

echo "==> faasnap-lint: --json report matches tests/golden/lint_deep.json"
# Pins the machine-readable report (budgets included) byte-for-byte, so
# a budget bump or a new diagnostic is always a reviewed diff.
LINT_TMP="$(mktemp)"
cargo run --release -q -p faasnap-lint -- --deep --json > "$LINT_TMP"
diff -u tests/golden/lint_deep.json "$LINT_TMP" \
    || { rm -f "$LINT_TMP"; echo "deep lint JSON drifted from tests/golden/lint_deep.json"; exit 1; }
rm -f "$LINT_TMP"

echo "==> tier-1 verify: cargo build --release"
cargo build --release

echo "==> tier-1 verify: cargo test -q"
cargo test -q

echo "==> workspace tests"
cargo test --workspace -q

echo "==> fault-injection suite: differential byte-identity under fixed seeds"
# The fault schedules in these tests are seeded constants, so this gate
# is deterministic: a pass today is a pass everywhere.
cargo test --release -q --test fault_injection

echo "==> trace-schema smoke: faasnapd invoke/cluster artifacts match goldens"
# The tier-1 build above only covers the root package; make sure the
# CLI binary is current before diffing its artifacts.
cargo build --release -q -p faasnap-cluster --bin faasnapd
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
./target/release/faasnapd invoke hello-world \
    --trace-out "$OBS_TMP/invoke_trace.json" \
    --metrics-out "$OBS_TMP/invoke_metrics.prom" \
    --profile-out "$OBS_TMP/invoke_profile.folded" >/dev/null
./target/release/faasnapd cluster --smoke --policy snapshot-locality --seed 42 \
    --metrics-out "$OBS_TMP/cluster_metrics.prom" > "$OBS_TMP/cluster_fleet.json"
# Snapshot branching: the fixed fork_smoke fleet must branch the same
# requests and save the same disk bytes on every machine.
./target/release/faasnapd cluster --smoke --branch --policy snapshot-locality --seed 42 \
    > "$OBS_TMP/fork_fleet.json"
for artifact in invoke_trace.json invoke_metrics.prom invoke_profile.folded \
    cluster_metrics.prom cluster_fleet.json fork_fleet.json; do
    diff -u "tests/golden/$artifact" "$OBS_TMP/$artifact" \
        || { echo "CLI $artifact drifted from tests/golden/$artifact"; exit 1; }
done

echo "==> cluster_mega: >=10^6 invocations across >=1000 hosts in budget"
# Trace-scale gate (ROADMAP item 2): the fixed mega fleet must finish
# inside a 120 s budget — far above its expected few-second wall, so
# only an asymptotic regression (a reintroduced per-event scan) trips
# it — and must actually serve a million invocations on 1000 hosts.
timeout 120 ./target/release/faasnapd cluster --mega --policy snapshot-locality --seed 42 \
    --self-profile-out "$OBS_TMP/cluster_mega.selfprof" \
    > "$OBS_TMP/cluster_mega.json" \
    || { echo "cluster_mega exceeded its 120 s budget"; exit 1; }
# The mega aggregates (served, mode mix, latency summary, store bytes)
# are pinned like the other CLI goldens.
diff -u tests/golden/cluster_mega.json "$OBS_TMP/cluster_mega.json" \
    || { echo "CLI cluster_mega.json drifted from tests/golden/cluster_mega.json"; exit 1; }
# Arrivals stream into the engine, so its queue holds only in-flight
# work (about hosts x slots), never the horizon's arrivals: scheduling
# them up front again is a memory regression the time budget cannot see.
python3 - "$OBS_TMP/cluster_mega.json" "$OBS_TMP/cluster_mega.selfprof" << 'EOF'
import json, sys
run = json.load(open(sys.argv[1]))["runs"][0]
served, hosts = run["fleet"]["served"], run["hosts"]
assert served >= 1_000_000, f"cluster_mega served {served} < 1e6"
assert hosts >= 1000, f"cluster_mega hosts {hosts} < 1000"
counters = dict(
    line.split() for line in open(sys.argv[2]) if line.startswith("engine/")
)
peak = int(counters["engine/peak_pending"])
assert peak < served / 100, f"cluster_mega engine/peak_pending {peak} >= served/100"
print(f"cluster_mega: {served} invocations across {hosts} hosts, peak queue {peak}")
EOF

echo "==> repo benchmark self-test"
# Runs every benchmark workload at reduced size, twice plus a traced run:
# no failed operation, traced digests equal untraced ones, and the
# printed metric names and units equal BENCHMARK.json's.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> bench trajectory: regression-gate self-test, then compare"
# The self-test proves a 2x injected slowdown trips the gate; the
# compare then diffs this machine's run against the latest committed
# BENCH_*.json and appends the new trajectory point.
scripts/bench.sh --selftest
scripts/bench.sh --compare

echo "All checks passed."
