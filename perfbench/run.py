#!/usr/bin/env python3
"""Build and run the descend end-to-end benchmark.

    python3 perfbench/run.py --workload scan|seek|fanout|serve \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # the benchmark's own test

Run from the root of a checkout. The first call configures and builds the
library and the benchmark program from source into .bench_build/ (later
calls rebuild only what changed). The program generates the workload from
the seed, checks its outputs against the oracle, measures for S seconds
and prints one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics; the
names and units are checked against BENCHMARK.json before printing.

Result files (with a run header) and traced span files are written to
.bench_build/runs/ unless --runs-dir names another directory.

Exit status: 0 when every output was correct; 1 on a wrong output; 2 when
the build fails (for example outside a full checkout); 3 when the program
crashed, timed out or reported metrics BENCHMARK.json does not declare.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(CMAKE_DIR, "descend_perfbench")
WORKLOADS = ("scan", "seek", "fanout", "serve")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns False on failure."""
    os.makedirs(CMAKE_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs])
    with open(log_path, "w") as build_log:
        for step in steps:
            if subprocess.run(step, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(CMAKE_DIR, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                build_log.flush()
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-20:]))
                log(f"build failed; full log in {log_path}")
                return False
    return True


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", "unknown") outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown", "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True,
                                check=True).stdout
        return sha, "1" if status.strip() else "0"
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_metrics(result, trace):
    """Error text when the result's metrics differ from the declaration."""
    declared = declared_metrics(trace)
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    missing = sorted(set(declared) - set(reported))
    extra = sorted(set(reported) - set(declared))
    wrong_unit = sorted(n for n in declared
                        if n in reported and reported[n] != declared[n])
    if missing or extra or wrong_unit:
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"undeclared {extra}, wrong unit {wrong_unit}")
    return None


def run_workload(workload, seed, seconds, trace, smoke, runs_dir):
    """Runs the program once; returns (exit code, stdout lines)."""
    sha, dirty = git_state()
    os.makedirs(runs_dir, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--out-dir", runs_dir, "--git-sha", sha, "--git-dirty", dirty]
    if smoke:
        command.append("--smoke")
    try:
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                   timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3, []
    lines = completed.stdout.strip().splitlines()
    if completed.returncode not in (0, 1) or not lines:
        log(f"{workload} exited with {completed.returncode}")
        return 3, lines
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last output line is not JSON")
        return 3, lines
    problem = check_metrics(result, trace)
    if problem:
        log(f"{workload}: {problem}")
        return 3, lines
    return completed.returncode, lines


def smoke(runs_dir):
    """Small inputs, every workload traced and untraced: oracle checks
    and metric names only. Returns the exit status."""
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            code, lines = run_workload(workload, 1, 0.3, trace, True, runs_dir)
            verdict = "ok" if code == 0 else f"FAILED (exit {code})"
            print(f"smoke {workload} trace={int(trace)}: {verdict}")
            if code != 0:
                print("\n".join(lines[-2:]))
                status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on small inputs and check "
                             "outputs only")
    parser.add_argument("--runs-dir", default=os.path.join(BUILD_ROOT, "runs"),
                        help="where result and span files go")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not build():
        return 2
    if args.smoke and args.workload is None:
        return smoke(args.runs_dir)
    code, lines = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.smoke, args.runs_dir)
    if code in (0, 1):
        print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
