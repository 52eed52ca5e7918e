#!/usr/bin/env python3
"""Trajectory points and the performance gate, taken from the repository
benchmark (`benchmark/`).

The run command, the workloads and each end-to-end metric's direction and
bound come from BENCHMARK.json. A measurement runs every workload once at
the trajectory seed for `run_seconds`, with tracing off. A point is the
merge of RECORD_RUNS measurements: per workload, the digest and seed-pure
metrics every run agrees on, and the median of each host metric, so one
noisy run does not set the bar that every later change is judged by.

Usage:
  scripts/trajectory.py record     measure RECORD_RUNS times and write the
                                   merge as BENCH_<date>.json (schema v3);
                                   a later point of the same day is
                                   BENCH_<date>_<n>.json, n = 2, 3, ...
                                   Writes nothing if a run failed an
                                   operation or the runs disagree on a
                                   digest or a seed-pure metric. An
                                   existing point is never replaced.
  scripts/trajectory.py compare    measure and check the result against the
                                   newest schema-v3 BENCH_*.json tracked by
                                   git, newest by (date, n); writes nothing
  scripts/trajectory.py selftest   measure nothing; show on that point that
                                   the compare passes it against itself and
                                   fails every regression it guards against,
                                   and that the merge takes medians and
                                   refuses failed or disagreeing runs

Exit status of compare and selftest:
  0  every check passed.
  1  compare: an operation failed, a digest changed, a seed-pure metric
     (EXACT) changed at all, or a host metric (BOUNDED) is worse than the
     point by more than its bound. selftest: the compare misjudged a case.
  2  the benchmark could not run, or there is no point to compare against.
  3  the run and the point are different experiments: the seed, the
     seconds, the workloads or the metric names differ.

`setup_s` is raw host seconds, which the benchmark's in-run reference job
does not cancel, so it is recorded and printed but not gated.
"""

import copy
import datetime
import json
import math
import pathlib
import re
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The benchmark's trajectory seed; 1337 is held out for checking claims.
SEED = 42
EXACT = ("sim_ms_mean", "sim_ms_p99", "fidelity_err_pct")
BOUNDED = ("ops_per_ref", "call_ref_p50", "peak_rss_mb")
UNGATED = ("setup_s",)
# Measurements merged into one recorded point.
RECORD_RUNS = 3
DIGEST_LINE = re.compile(r"^attempted \d+ failed \d+ digest ([0-9a-f]{16})$")
POINT_NAME = re.compile(r"^BENCH_(\d{4}-\d{2}-\d{2})(?:_(\d+))?\.json$")


def die(msg, status=2):
    print(f"trajectory: {msg}", file=sys.stderr)
    sys.exit(status)


def load_spec():
    """BENCHMARK.json, and its end-to-end metrics by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if sorted(metrics) != sorted(EXACT + BOUNDED + UNGATED):
        die(f"BENCHMARK.json's end-to-end metrics {sorted(metrics)} are not "
            f"the ones this script gates")
    return spec, metrics


def config(spec, metrics):
    """The parameters that make two measurements the same experiment."""
    return {
        "seed": SEED,
        "seconds": spec["run_seconds"],
        "trace": 0,
        "workloads": sorted(w["name"] for w in spec["workloads"]),
        "metrics": sorted(metrics),
    }


def run_workload(spec, metrics, name):
    print(f"==> {name}", file=sys.stderr, flush=True)
    args = ["--workload", name, "--seed", str(SEED),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(spec["command"] + args, cwd=ROOT,
                         capture_output=True, text=True)
    lines = out.stdout.splitlines()
    digests = [m.group(1) for m in map(DIGEST_LINE.match, lines) if m]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is None or len(digests) != 1:
        die(f"{name} printed no result or digest line (exit {out.returncode}):\n"
            f"{out.stderr}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digests[0],
        "metrics": {m: result["metrics"][m]["value"] for m in metrics},
    }


def measure(spec, metrics):
    """Every workload's result of one run."""
    return {w["name"]: run_workload(spec, metrics, w["name"])
            for w in spec["workloads"]}


def as_point(spec, metrics, results):
    return {
        "schema_version": 3,
        "date": datetime.date.today().isoformat(),
        "config": config(spec, metrics),
        "results": results,
    }


def merge(runs):
    """(results, refusals) of measurements `runs`: per workload, the first
    run's seed-pure fields with the median of each host metric and of
    `attempted`; and why the runs cannot make a point, if they cannot: an
    operation failed, or they disagree on the digest or an EXACT metric."""
    results, refusals = {}, []
    for name in runs[0]:
        rs = [run[name] for run in runs]
        for i, r in enumerate(rs, 1):
            if not r["correct"] or r["failed"]:
                refusals.append(f"{name}: run {i}: {r['failed']} of "
                                f"{r['attempted']} operations failed")
        digests = sorted({r["digest"] for r in rs})
        if len(digests) > 1:
            refusals.append(f"{name}: the runs disagree on the digest: "
                            f"{', '.join(digests)}")
        for m in EXACT:
            values = sorted({r["metrics"][m] for r in rs})
            if len(values) > 1:
                refusals.append(f"{name}: the runs disagree on {m}: {values}")
        merged = copy.deepcopy(rs[0])
        merged["attempted"] = statistics.median_low(r["attempted"] for r in rs)
        for m in BOUNDED + UNGATED:
            merged["metrics"][m] = statistics.median(r["metrics"][m] for r in rs)
        results[name] = merged
    return results, refusals


def point_order(name):
    """(date, n) of point file `name`: BENCH_<date>.json is a day's first
    point (n = 1), BENCH_<date>_<n>.json its n-th. Compared as numbers, so
    _10 comes after _2."""
    m = POINT_NAME.match(name)
    if not m or (m.group(2) is not None and int(m.group(2)) < 2):
        die(f"{name} is not a point name: BENCH_<date>.json or "
            f"BENCH_<date>_<n>.json with n >= 2")
    return m.group(1), int(m.group(2) or 1)


def new_point_path(date):
    """The first free point name of `date`: BENCH_<date>.json, then
    BENCH_<date>_2.json, BENCH_<date>_3.json, ..."""
    path, n = ROOT / f"BENCH_{date}.json", 1
    while path.exists():
        n += 1
        path = ROOT / f"BENCH_{date}_{n}.json"
    return path


def committed_point():
    """(file name, content) of the newest schema-v3 point git tracks."""
    tracked = subprocess.run(["git", "ls-files", "BENCH_*.json"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    points = [(name, json.loads((ROOT / name).read_text()))
              for name in sorted(tracked.stdout.split(), key=point_order)]
    points = [p for p in points if p[1].get("schema_version") == 3]
    if not points:
        die("no schema-v3 BENCH_*.json is tracked; run "
            "`scripts/trajectory.py record` and commit its output")
    return points[-1]


def worse_by(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    change = new / old - 1 if old else (0.0 if new == old else math.inf)
    return change if metric["better"] == "lower" else -change


def mismatch(old, new):
    """Why configs `old` and `new` are different experiments, if they are."""
    return [f"{key}: {old.get(key)} in the point, {new.get(key)} now"
            for key in sorted(old.keys() | new.keys())
            if old.get(key) != new.get(key)]


def verdict(point, run, metrics):
    """(exit status, failures) of `run` checked against `point`."""
    why = mismatch(point["config"], run["config"])
    if why:
        return 3, why
    failures = []
    for name, new in run["results"].items():
        old = point["results"][name]
        if not new["correct"] or new["failed"]:
            failures.append(f"{name}: {new['failed']} of {new['attempted']} "
                            f"operations failed")
        if new["digest"] != old["digest"]:
            failures.append(f"{name}: digest {old['digest']} -> {new['digest']}")
        for m in EXACT:
            a, b = old["metrics"][m], new["metrics"][m]
            if a != b:
                failures.append(f"{name}: {m} {a} -> {b} (seed-pure, must not change)")
        for m in BOUNDED:
            a, b = old["metrics"][m], new["metrics"][m]
            worse, bound = worse_by(metrics[m], a, b), metrics[m]["bound"]
            if worse > bound:
                failures.append(f"{name}: {m} {a} -> {b} is {worse:.1%} worse, "
                                f"bound {bound:.0%}")
    return (1 if failures else 0), failures


def print_table(point, run, metrics):
    """Every metric of `run` beside the point's; `worse` > 0 is a loss."""
    print(f"{'workload':<15} {'metric':<17} {'point':>12} {'now':>12} "
          f"{'worse':>8} {'bound':>6}")
    for name, new in run["results"].items():
        old = point["results"][name]
        for m, metric in metrics.items():
            a, b = old["metrics"][m], new["metrics"][m]
            gate = ("exact" if m in EXACT
                    else f"{metric['bound']:.0%}" if m in BOUNDED else "-")
            print(f"{name:<15} {m:<17} {a:>12.4f} {b:>12.4f} "
                  f"{worse_by(metric, a, b):>+8.2%} {gate:>6}")
        print(f"{name:<15} {'digest':<17} {old['digest']} -> {new['digest']}")


def mutant(point, path, value):
    """A copy of `point` with the entry at `path` set to `value`."""
    run = copy.deepcopy(point)
    *parents, key = path
    node = run
    for step in parents:
        node = node[step]
    node[key] = value
    return run


def selftest(point, metrics):
    """Judges `point` and changed copies of it against `point`; returns the
    number of cases and the ones the compare got wrong."""
    # (what, run, expected exit status)
    cases = [("the point against itself", copy.deepcopy(point), 0)]
    for name, result in point["results"].items():
        at = ("results", name)
        for m in BOUNDED:
            v = result["metrics"][m]
            worse = v * 2 if metrics[m]["better"] == "lower" else v / 2
            cases.append((f"{name} {m} 2x worse",
                          mutant(point, at + ("metrics", m), worse), 1))
        for m in EXACT:
            # The smallest change a float can make.
            v = math.nextafter(result["metrics"][m], math.inf)
            cases.append((f"{name} {m} changed",
                          mutant(point, at + ("metrics", m), v), 1))
        digest = format(int(result["digest"], 16) ^ 1, "016x")
        cases.append((f"{name} digest changed",
                      mutant(point, at + ("digest",), digest), 1))
        cases.append((f"{name} one failed operation",
                      mutant(point, at + ("failed",), 1), 1))
    cfg = point["config"]
    cases += [
        ("another seed", mutant(point, ("config", "seed"), cfg["seed"] + 1), 3),
        ("other seconds",
         mutant(point, ("config", "seconds"), cfg["seconds"] * 2), 3),
        ("a workload fewer",
         mutant(point, ("config", "workloads"), cfg["workloads"][1:]), 3),
    ]
    wrong = []
    for what, run, expected in cases:
        status = verdict(point, run, metrics)[0]
        if status != expected:
            wrong.append(f"{what}: exit {status}, expected {expected}")
    wrong += merge_selftest(point["results"])
    # Oldest first. As strings, _10 would sort before _2.
    names = ["BENCH_2026-10-17.json", "BENCH_2026-10-17_2.json",
             "BENCH_2026-10-17_10.json", "BENCH_2026-10-18.json"]
    ordered = sorted(reversed(names), key=point_order)
    if ordered != names:
        wrong.append(f"points order as {ordered}, expected {names}")
    return len(cases), wrong


def merge_selftest(results):
    """What the merge gets wrong on copies of `results`: three runs whose
    host metrics are 1x, 5x and 2x the point's must merge to 2x with the
    seed-pure fields untouched, and one failed operation, one changed
    digest or one changed EXACT metric in any run must refuse the point."""
    def run(scale):
        r = copy.deepcopy(results)
        for result in r.values():
            for m in BOUNDED + UNGATED:
                result["metrics"][m] *= scale
        return r

    wrong = []
    merged, refusals = merge([run(1), run(5), run(2)])
    if refusals or merged != run(2):
        wrong.append(f"merge of 1x, 5x and 2x runs: refused {refusals} or "
                     f"not the 2x run")
    name = next(iter(results))
    m = EXACT[0]
    bad = [(("failed",), 1), (("digest",),
                              format(int(results[name]["digest"], 16) ^ 1, "016x")),
           (("metrics", m), math.nextafter(results[name]["metrics"][m], math.inf))]
    for path, value in bad:
        changed = mutant(run(1), (name,) + path, value)
        if not merge([run(1), changed, run(1)])[1]:
            wrong.append(f"merge accepted a run with {name} {'.'.join(path)} "
                         f"set to {value}")
    return wrong


def main():
    if len(sys.argv) != 2 or sys.argv[1] not in ("record", "compare", "selftest"):
        die("usage: scripts/trajectory.py record|compare|selftest")
    mode = sys.argv[1]
    spec, metrics = load_spec()
    if mode == "record":
        results, refusals = merge([measure(spec, metrics)
                                   for _ in range(RECORD_RUNS)])
        if refusals:
            die("not recording a point:\n  " + "\n  ".join(refusals), 1)
        run = as_point(spec, metrics, results)
        path = new_point_path(run["date"])
        # Mode "x" fails rather than replace a point written meanwhile.
        with open(path, "x") as out:
            out.write(json.dumps(run, indent=2) + "\n")
        print(f"wrote {path.name}")
        return
    name, point = committed_point()
    if mode == "selftest":
        total, wrong = selftest(point, metrics)
        if wrong:
            die(f"selftest FAILED on {name}:\n  " + "\n  ".join(wrong), 1)
        print(f"trajectory selftest: OK on {name}: the compare passes the point "
              f"against itself and trips on all {total - 1} changed copies (on "
              f"every workload each host metric 2x worse, each seed-pure metric "
              f"and the digest changed, one failed operation; another seed, "
              f"seconds or workload set), points order by (date, n), and the "
              f"merge of {RECORD_RUNS} runs takes medians and refuses a failed "
              f"operation, a changed digest or a changed seed-pure metric")
        return
    why = mismatch(point["config"], config(spec, metrics))
    if why:
        die(f"refusing to compare against {name}, a different experiment:\n  "
            + "\n  ".join(why), 3)
    run = as_point(spec, metrics, measure(spec, metrics))
    print_table(point, run, metrics)
    status, failures = verdict(point, run, metrics)
    if status:
        die(f"REGRESSION against {name}:\n  " + "\n  ".join(failures), status)
    print(f"trajectory compare: OK against {name}")


if __name__ == "__main__":
    main()
