#!/usr/bin/env python3
"""The repository benchmark: certify, sweep and net-launch workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify|sweep|net-launch \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (a standalone CMake project over ../src) into
$CARGO_TARGET_DIR (default .bench_build), runs the measuring binary for one
workload, checks its outputs and prints every metric by name and unit.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the per-layer ones, and the run leaves trace.json (Chrome
trace_event) and metrics.json (ssvsp.metrics.v1) under
<build>/results/<workload>/.  Exits non-zero if a correctness check fails,
and without printing a result if the program cannot be built.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("certify", "sweep", "net-launch")

# The timings each workload prints by name, with their sample counts:
# (sample key, unit).
NAMED = {
    "certify": (("certify_s", "s"),),
    "sweep": (
        ("sweep_runs_per_s", "1/s"),
        ("campaign_cold_s", "s"),
        ("campaign_warm_s", "s"),
    ),
    "net-launch": (("launch_ff_ms", "ms"), ("launch_crash_ms", "ms")),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); None below 20 samples, where no percentile at or
    above the median has ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return None
    rank = n - 10  # ordered[rank - 1] has exactly ten samples above it
    return 100.0 * rank / n, ordered[rank - 1]


def describe(values, unit):
    """Median and tail of a timing, with the sample count."""
    text = "p50 %.6g %s" % (statistics.median(values), unit)
    t = tail(values)
    if t is None:
        return text + ", no tail (%d samples, needs 20)" % len(values)
    return text + ", tail p%.0f %.6g %s (%d samples)" % (t[0], t[1], unit,
                                                         len(values))


def declared_metrics():
    """The (name, unit) lists of BENCHMARK.json: end-to-end, per-layer."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple([(m["name"], m["unit"]) for m in spec[key]]
                 for key in ("end_to_end", "per_layer"))


def source_digest():
    """SHA-256 over the library sources, a revision id that survives a
    checkout without git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(build_dir):
    """Configures and builds the measuring binary; returns its path, or
    None when the sources are missing or the build fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at src/ - cannot build")
        return None
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                log("perfbench: build failed, see " + build_log)
                with open(build_log) as f:
                    log("".join(f.readlines()[-20:]))
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default="",
                        help="deliberate fault (self-test only)")
    args = parser.parse_args()
    end_to_end, per_layer = declared_metrics()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 2

    work = os.path.join(build_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo", ROOT, "--work", work]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        raw = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if args.trace and raw is not None:
            results = os.path.join(build_dir, "results", args.workload)
            os.makedirs(results, exist_ok=True)
            for name in ("trace.json", "metrics.json"):
                if os.path.isfile(os.path.join(work, name)):
                    shutil.copy(os.path.join(work, name), results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if raw is None:
        log("perfbench: measuring binary failed (exit %d)" % proc.returncode)
        return 3

    env = raw["envelope"]
    rev = git_rev()
    if rev is None:
        rev = "none (not a git checkout); src/ sha256 " + source_digest()
    env["git_rev"] = rev
    print("perfbench %s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for key in sorted(env):
        print("  envelope.%s: %s" % (key, env[key]))
    for key in sorted(raw["facts"]):
        print("  %s: %s" % (key, raw["facts"][key]))

    samples = raw["samples"]
    failed, attempted = raw["failed"], raw["attempted"]
    for line in raw["failures"]:
        print("  FAILED: " + line)
    print("  failed_ratio: %.6f ratio (%d of %d checks)" %
          (failed / attempted if attempted else 1.0, failed, attempted))
    for key, unit in NAMED[args.workload]:
        if samples.get(key):
            print("  %s: %s" % (key, describe(samples[key], unit)))
    jobs = samples.get("job_s", [])
    if jobs:
        print("  job: %s" % describe(jobs, "s"))

    if args.trace:
        for key in sorted(samples):
            if key.endswith("_traced") and samples.get(key[:-7]):
                plain = statistics.median(samples[key[:-7]])
                traced = statistics.median(samples[key])
                print("  trace overhead %s: %+.6g (traced %.6g - untraced %.6g)"
                      % (key[:-7], traced - plain, traced, plain))
        metrics = {name: {"value": raw["per_layer"][name], "unit": unit}
                   for name, unit in per_layer if name in raw["per_layer"]}
        missing = [name for name, _ in per_layer if name not in metrics]
        if missing:
            print("  FAILED: per-layer metrics missing: " + ", ".join(missing))
            attempted += 1
            failed += 1
    else:
        values = {
            "job_p50_s": statistics.median(jobs) if jobs else 0.0,
            "setup_s": statistics.median(raw["setup_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in end_to_end}
    for name in sorted(metrics):
        print("  %s: %.6g %s" % (name, metrics[name]["value"],
                                 metrics[name]["unit"]))

    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
