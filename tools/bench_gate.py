#!/usr/bin/env python3
"""CI perf-regression gate over google-benchmark JSON output.

Modes:
  check    Compare a fresh bench run against the checked-in baseline
           (bench/baseline.json). A benchmark regresses when its
           items_per_second falls more than --tolerance (default 0.15,
           i.e. -15%) below the baseline. Prints a per-bench delta
           table (markdown, suitable for $GITHUB_STEP_SUMMARY) and
           exits 1 on any regression.
  refresh  Rewrite the baseline from a fresh bench run. Run this on the
           CI runner class the gate executes on (laptop numbers are not
           comparable) and commit the result:

             cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
             cmake --build build-release -j --target bench_e11_end_to_end \
               bench_e16_batching bench_e6_pairing_modes bench_e9_seq_vs_join \
               bench_e17_ingest bench_e18_serving
             mkdir -p /tmp/bench-json
             ESLEV_BENCH_JSON_DIR=/tmp/bench-json ./build-release/bench/bench_e11_end_to_end --benchmark_min_time=0.2
             ESLEV_BENCH_JSON_DIR=/tmp/bench-json ./build-release/bench/bench_e16_batching --benchmark_min_time=0.2
             ESLEV_BENCH_JSON_DIR=/tmp/bench-json ./build-release/bench/bench_e6_pairing_modes --benchmark_filter='BM_Mode' --benchmark_min_time=0.2
             ESLEV_BENCH_JSON_DIR=/tmp/bench-json ./build-release/bench/bench_e9_seq_vs_join --benchmark_filter='BM_Seq(Star|Chronicle)' --benchmark_min_time=0.2
             ESLEV_BENCH_JSON_DIR=/tmp/bench-json ./build-release/bench/bench_e17_ingest --benchmark_min_time=0.2
             ESLEV_BENCH_JSON_DIR=/tmp/bench-json ./build-release/bench/bench_e18_serving --benchmark_min_time=0.2
             python3 tools/bench_gate.py refresh --json-dir /tmp/bench-json

Only benchmarks present in the baseline gate the build; new benchmarks
are reported as "new" until the baseline is refreshed, so adding a
bench never breaks an unrelated PR. A baseline entry whose benchmark
vanished from the run fails the gate (a silently deleted bench is a
silently dropped guarantee). Tolerance can also be set with the
ESLEV_BENCH_GATE_TOLERANCE environment variable (the flag wins).

Serve-sharing gate: bench_e18_serving publishes gauges under

    servegate.<workload>.{shared_lo_ips, shared_hi_ips,
                          unshared_hi_ips,
                          shared_hi_pipelines, unshared_hi_pipelines}

(lo/hi = the low/high duplicate-registration counts of the sweep).
`check` enforces the multi-tenant sharing guarantees (DESIGN.md §17):
the shared run must compile strictly fewer pipelines than the unshared
run, must out-run it by at least SERVE_MIN_SPEEDUP at the high
duplicate count (measured gap is ~20x, so the gate only trips on a
genuine sharing break), and quadrupling the duplicate count must cost
less than half the shared throughput (linear cost would cut it to a
quarter — the sub-linear-growth acceptance of E18). A missing leg
fails (a dropped leg would silently drop the guarantee). Runs with no
servegate gauges are not gated.
"""

import argparse
import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench",
    "baseline.json")


def load_run(json_dir):
    """Collect {benchmark name: items_per_second} from BENCH_*.json."""
    results = {}
    found_any = False
    for entry in sorted(os.listdir(json_dir)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        if entry.endswith("_metrics.json"):
            continue  # bench-recorded metrics blobs, not benchmark runs
        path = os.path.join(json_dir, entry)
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        found_any = True
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            name = bench.get("name")
            ips = bench.get("items_per_second")
            if name is None or ips is None:
                continue
            # Repetitions: keep the best (least-interfered) observation.
            results[name] = max(results.get(name, 0.0), float(ips))
    if not found_any:
        sys.exit(f"bench_gate: no BENCH_*.json files under {json_dir}")
    if not results:
        sys.exit(f"bench_gate: no items_per_second entries under {json_dir}")
    return results


SERVE_MIN_SPEEDUP = 1.25
SERVE_LEGS = ("shared_lo_ips", "shared_hi_ips", "unshared_hi_ips",
              "shared_hi_pipelines", "unshared_hi_pipelines")


def load_serve_gauges(json_dir):
    """Collect {workload: {leg: value}} from servegate.* gauges in
    BENCH_*_metrics.json blobs."""
    gauges = {}
    for entry in sorted(os.listdir(json_dir)):
        if not (entry.startswith("BENCH_") and
                entry.endswith("_metrics.json")):
            continue
        path = os.path.join(json_dir, entry)
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        for name, value in doc.get("gauges", {}).items():
            if not name.startswith("servegate."):
                continue
            parts = name.split(".")
            if len(parts) != 3 or parts[2] not in SERVE_LEGS:
                continue
            gauges.setdefault(parts[1], {})[parts[2]] = int(value)
    return gauges


def check_serve_gauges(gauges):
    """Returns (rows, failures) for the serve-sharing table."""
    rows = []
    failures = []
    for workload in sorted(gauges):
        legs = gauges[workload]
        missing = [leg for leg in SERVE_LEGS if leg not in legs]
        if missing:
            failures.append(
                f"servegate.{workload}: missing legs {', '.join(missing)} "
                "in this run")
            rows.append((workload, legs, "MISSING"))
            continue
        problems = []
        if legs["shared_hi_pipelines"] >= legs["unshared_hi_pipelines"]:
            problems.append(
                f"sharing compiled {legs['shared_hi_pipelines']} pipelines "
                f"vs {legs['unshared_hi_pipelines']} unshared — duplicate "
                "registrations no longer collapse onto one pipeline")
        if legs["shared_hi_ips"] < SERVE_MIN_SPEEDUP * legs["unshared_hi_ips"]:
            problems.append(
                f"shared throughput {legs['shared_hi_ips']}/s is under "
                f"{SERVE_MIN_SPEEDUP}x unshared {legs['unshared_hi_ips']}/s "
                "at the high duplicate count")
        if 2 * legs["shared_hi_ips"] < legs["shared_lo_ips"]:
            problems.append(
                f"shared throughput fell from {legs['shared_lo_ips']}/s to "
                f"{legs['shared_hi_ips']}/s across the duplicate sweep — "
                "cost growth is no longer sub-linear in duplicate count")
        if problems:
            for p in problems:
                failures.append(f"servegate.{workload}: {p}")
            rows.append((workload, legs, "REGRESSED"))
        else:
            rows.append((workload, legs, "ok"))
    return rows, failures


def load_baseline(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    benches = doc.get("benchmarks")
    if not isinstance(benches, dict) or not benches:
        sys.exit(f"bench_gate: malformed baseline {path}")
    return doc


def fmt_rate(value):
    if value >= 1e6:
        return f"{value / 1e6:.2f}M/s"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k/s"
    return f"{value:.1f}/s"


def cmd_check(args):
    run = load_run(args.json_dir)
    baseline = load_baseline(args.baseline)
    tolerance = args.tolerance
    rows = []
    failures = []
    for name in sorted(baseline["benchmarks"]):
        base = float(baseline["benchmarks"][name])
        if name not in run:
            failures.append(f"{name}: present in baseline but not in run")
            rows.append((name, base, None, None, "MISSING"))
            continue
        now = run[name]
        delta = (now - base) / base
        status = "ok"
        if delta < -tolerance:
            status = "REGRESSED"
            failures.append(
                f"{name}: {fmt_rate(now)} vs baseline {fmt_rate(base)} "
                f"({delta:+.1%}, tolerance -{tolerance:.0%})")
        rows.append((name, base, now, delta, status))
    for name in sorted(set(run) - set(baseline["benchmarks"])):
        rows.append((name, None, run[name], None, "new"))

    print(f"### Bench gate (tolerance -{tolerance:.0%})\n")
    print("| benchmark | baseline | current | delta | status |")
    print("|---|---:|---:|---:|---|")
    for name, base, now, delta, status in rows:
        base_s = fmt_rate(base) if base is not None else "—"
        now_s = fmt_rate(now) if now is not None else "—"
        delta_s = f"{delta:+.1%}" if delta is not None else "—"
        mark = "❌ " if status in ("REGRESSED", "MISSING") else ""
        print(f"| `{name}` | {base_s} | {now_s} | {delta_s} | {mark}{status} |")
    print()

    serve_rows, serve_failures = check_serve_gauges(
        load_serve_gauges(args.json_dir))
    if serve_rows:
        failures.extend(serve_failures)
        print("### Serve-sharing gate (shared vs unshared pipelines)\n")
        print("| workload | shared lo→hi | unshared hi | pipelines "
              "(shared/unshared) | status |")
        print("|---|---:|---:|---:|---|")
        for workload, legs, status in serve_rows:
            def leg(name):
                return (fmt_rate(float(legs[name]))
                        if name in legs else "—")
            pipes = (f"{legs['shared_hi_pipelines']}/"
                     f"{legs['unshared_hi_pipelines']}"
                     if "shared_hi_pipelines" in legs and
                     "unshared_hi_pipelines" in legs else "—")
            mark = "❌ " if status != "ok" else ""
            print(f"| `{workload}` | {leg('shared_lo_ips')} → "
                  f"{leg('shared_hi_ips')} | {leg('unshared_hi_ips')} | "
                  f"{pipes} | {mark}{status} |")
        print()

    if failures:
        print("Regressions:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"All {sum(1 for r in rows if r[4] == 'ok')} gated benchmarks "
          "within tolerance; "
          f"{sum(1 for r in serve_rows if r[2] == 'ok')} serve-sharing "
          "workloads hold.")
    return 0


def cmd_refresh(args):
    run = load_run(args.json_dir)
    doc = {
        "comment": (
            "Gated throughput baselines (items_per_second). Refresh with "
            "tools/bench_gate.py refresh on the CI runner class; see the "
            "module docstring for the exact commands."),
        "tolerance_default": args.tolerance,
        "benchmarks": {name: run[name] for name in sorted(run)},
    }
    with open(args.baseline, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_gate: wrote {len(run)} baselines to {args.baseline}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["check", "refresh"])
    parser.add_argument("--json-dir", required=True,
                        help="directory holding BENCH_*.json from a run")
    parser.add_argument("--baseline", default=os.path.normpath(DEFAULT_BASELINE),
                        help="baseline JSON path (default bench/baseline.json)")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("ESLEV_BENCH_GATE_TOLERANCE", "0.15")),
        help="allowed fractional throughput drop before failing "
        "(default 0.15; env ESLEV_BENCH_GATE_TOLERANCE)")
    args = parser.parse_args()
    if not (0.0 < args.tolerance < 1.0):
        sys.exit("bench_gate: --tolerance must be in (0, 1)")
    if args.mode == "check":
        sys.exit(cmd_check(args))
    sys.exit(cmd_refresh(args))


if __name__ == "__main__":
    main()
