#!/usr/bin/env python3
"""Summarize sets of benchmark runs (standard library only).

    python3 perfbench/summary.py SET_A [SET_B]

Each SET is a directory of result files written by run.py (by default
.bench_build/runs/; give each set its own --runs-dir). Traced runs are
skipped. The metrics and bounds are those of BENCHMARK.json.

For every workload x end-to-end metric it prints the median and the first
and third quartiles of each set (statistics.quantiles, n=4), and the
spread: (q3 - q1) / median. With one set it flags a spread wider than the
metric's bound. With two sets it compares B's median to A's in the
metric's "worse" direction and flags the pair:

    outside    B is worse than A by more than the bound
    unresolved a spread exceeds the bound, and not every B run beats
               every A run, so "no change" cannot be claimed
    ok         otherwise

Every metric is judged this way, setup_s included. The unbounded metrics
of the result files (UNBOUNDED below) are printed after each workload's
rows and not judged.

Two sets are only comparable when they ran on the same host and close
together in time: the host's speed drifts over tens of minutes. The tool
flags sets whose run headers name different hosts (CPU, SIMD tier, nproc,
compiler, observability build) and sets whose median run times are more
than MAX_GAP_S apart.

Exit status: 0 when every pair is ok and no set is flagged, 1 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Reported by every untraced run next to the result, never bounded: the
# p99, the error rate, the timings as measured (before the host-speed
# normalization, see README.md) and the run's median host slowdown.
UNBOUNDED = ("latency_p99_ms", "error_rate", "measured_throughput_gibps",
             "measured_latency_p50_ms", "measured_setup_s", "host_slowdown")

# Header fields that name the host and the build.
HOST_FIELDS = ("cpu_model", "simd_tier", "nproc", "compiler", "descend_obs")

# Two sets whose median run times are further apart are flagged.
MAX_GAP_S = 3600


def load_set(directory):
    """({workload: {metric: [values]}}, [host tuples], [finish times]) from
    a directory of result files."""
    runs, hosts, times = {}, [], []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            record = json.load(handle)
        if "header" not in record or record["header"].get("trace"):
            continue
        header = record["header"]
        hosts.append(tuple(header.get(f) for f in HOST_FIELDS))
        if "finished_unix_s" in header:
            times.append(header["finished_unix_s"])
        metrics = runs.setdefault(header["workload"], {})
        for section in (record["result"]["metrics"], record.get("unbounded", {})):
            for name, metric in section.items():
                metrics.setdefault(name, []).append(metric["value"])
    return runs, hosts, times


def comparable(loaded):
    """Prints the sets' hosts and times; False when they are not comparable."""
    ok = True
    hosts = {h for _, set_hosts, _ in loaded for h in set_hosts}
    if len(hosts) > 1:
        print("flagged: the runs name more than one host or build:")
        for host in sorted(hosts, key=str):
            print("   ", dict(zip(HOST_FIELDS, host)))
        ok = False
    medians = [statistics.median(t) if t else None for _, _, t in loaded]
    if len(loaded) == 2:
        if None in medians:
            print("flagged: a set has no run times in its headers")
            ok = False
        else:
            gap = abs(medians[1] - medians[0])
            print(f"sets ran {gap / 60:.0f} min apart (median run times)")
            if gap > MAX_GAP_S:
                print(f"flagged: more than {MAX_GAP_S / 60:.0f} min apart; "
                      "host drift can exceed the bounds")
                ok = False
    return ok


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / med


def worse_share(a_values, b_values, better):
    """How much worse B's median is than A's, as a share of A's median."""
    a_med = statistics.median(a_values)
    b_med = statistics.median(b_values)
    change = (b_med - a_med) / a_med if a_med else float("inf")
    return -change if better == "higher" else change


def every_b_beats_a(a_values, b_values, better):
    if better == "higher":
        return min(b_values) > max(a_values)
    return max(b_values) < min(a_values)


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="one or two sets of runs")
    args = parser.parse_args()
    if len(args.sets) > 2:
        parser.error("give one or two sets")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    loaded = [load_set(s) for s in args.sets]
    sets = [runs for runs, _, _ in loaded]
    all_ok = comparable(loaded)
    for workload in [w["name"] for w in spec["workloads"]]:
        if not all(workload in s for s in sets):
            print(f"{workload}: no runs in every set")
            all_ok = False
            continue
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            columns = [s[workload].get(name) for s in sets]
            if any(c is None for c in columns):
                print(f"{workload:7} {name:17} missing")
                all_ok = False
                continue
            spreads = [spread(c) for c in columns]
            line = f"{workload:7} {name:17} " + "  ".join(
                f"{fmt(c)} spread {sp:.3f}" for c, sp in zip(columns, spreads))
            if len(columns) == 1:
                verdict = "ok" if all(sp <= bound for sp in spreads) else "unresolved"
            else:
                worse = worse_share(columns[0], columns[1], better)
                line += f"  worse by {worse:+.3f}"
                if worse > bound:
                    verdict = "outside"
                elif any(sp > bound for sp in spreads) and not every_b_beats_a(
                        columns[0], columns[1], better):
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            all_ok &= verdict == "ok"
            print(f"{line}  bound {bound}  {verdict}")
        for name in UNBOUNDED:
            columns = [s[workload].get(name) for s in sets]
            if all(c is not None for c in columns):
                print(f"{workload:7} {name:17} " + "  ".join(
                    f"{fmt(c)} spread {spread(c):.3f}" for c in columns)
                    + "  (unbounded, not judged)")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
