#!/usr/bin/env python3
"""Replicated-pair benchmark for rodain: build, run, check, report.

One workload, as the benchmark contract runs it (last stdout line is the
result object):

    python3 perfbench/run.py --workload nt_open --seed 1 --seconds 10 --trace 0

Every workload, every end-to-end and per-layer metric by name and unit:

    python3 perfbench/run.py --all [--seconds 10]

A short run of each workload that asserts every metric is present and
finite and that the correctness checks ran (the benchmark's own test):

    python3 perfbench/run.py --smoke

The program is built from the checkout's src/ tree into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ["nt_open", "nt_closed_skew", "lookup_large", "failover"]
# The mirror's on-disk log: what every run does, recorded with each result.
FLUSH_POLICY = ("mirror segmented log in a per-run directory under the build "
                "dir, fsync off, 4 MiB segments, no checkpoints, removed after "
                "the run; primary log in memory")
RUN_TIMEOUT_S = 170
# Reported with the per-layer metrics, unbounded (see README.md).
TAILS = ("commit_p99_ms", "lookup_p99_us")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then an incremental build; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("rodain sources (src/) not found next to perfbench/", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=880).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd[:2]), tail))
    binary = os.path.join(out, "rodain_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no binary")
    return binary


def provenance(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = "unknown", None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    # Checkouts without git history still get an identity: a digest of the
    # sources the benchmark compiled.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        digest.update(name.encode() + f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "build_type": BUILD_TYPE,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "flush_policy": FLUSH_POLICY,
    }


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    out_dir = os.path.join(build_dir(), "out")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--out", out_dir]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("%s exited with %d:\n%s" % (workload, proc.returncode,
                                         proc.stderr[-4000:]))
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result:\n%s" % (workload, proc.stdout[-2000:]))


def finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def measure(binary, spec, workload, seed, seconds, trace, smoke=False):
    """One benchmark result: the contract object plus a detail object."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not trace:
        runs = [run_binary(binary, workload, seed, seconds, False, smoke)]
        wanted = [m["name"] for m in spec["end_to_end"]]
        values = dict(runs[0]["end_to_end"])
    else:
        # End-to-end numbers come from an untraced process; the traced one
        # gives the per-layer numbers. Each gets half the time, and their
        # difference is the tracing overhead.
        half = seconds / 2.0
        plain = run_binary(binary, workload, seed, half, False, smoke)
        traced = run_binary(binary, workload, seed, half, True, smoke)
        runs = [plain, traced]
        wanted = [m["name"] for m in spec["per_layer"]]
        values = dict(traced["per_layer"])
        # Tail latencies follow the host's own tail too closely to carry a
        # bound (see README.md); they are reported here, from the untraced run.
        for name in TAILS:
            values[name] = plain["end_to_end"][name]
        for m in spec["end_to_end"]:
            v = traced["end_to_end"][m["name"]]
            base = plain["end_to_end"][m["name"]]
            values["trace_overhead." + m["name"]] = (
                v - base if finite(v) and finite(base) else None)
    missing = [n for n in wanted if not finite(values.get(n))]
    correct = all(r["correct"] for r in runs)
    result = {
        "correct": correct and not missing,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in wanted if n not in missing},
    }
    detail = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed),
        "host_jitter_p99_ms": [r["per_layer"]["client.host_jitter_p99_ms"]
                               for r in runs],
        "runs": runs,
        "missing_metrics": missing,
    }
    return result, detail


def print_table(rows):
    width = max(len(r[1]) for r in rows)
    for workload, name, value, unit in rows:
        print("%-15s %-*s %14.6g %s" % (workload, width, name, value, unit))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--smoke", action="store_true",
                    help="short run of every workload; assert every metric")
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if not (0 < args.seconds <= 120):
        fail("--seconds must be in (0, 120]", 2)

    if args.workload and not (args.all or args.smoke):
        binary = build()
        result, detail = measure(binary, spec, args.workload, args.seed,
                                 args.seconds, bool(args.trace))
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)

    if not (args.all or args.smoke):
        fail("give --workload, --all or --smoke", 2)
    binary = build()
    rows, problems = [], []
    started = time.time()
    for workload in WORKLOADS:
        for trace in (False, True):
            result, detail = measure(binary, spec, workload, args.seed,
                                     args.seconds, trace, smoke=args.smoke)
            for name, m in result["metrics"].items():
                rows.append((workload, name, m["value"], m["unit"]))
            runs = detail["runs"]
            checks_ran = all(r["checks"]["quiesce_checks"] > 0 and
                             r["checks"]["survivor_checks"] > 0 and
                             r["checks"]["lookup_checks"] > 0 for r in runs)
            if not result["correct"] or not checks_ran or detail["missing_metrics"]:
                problems.append("%s trace=%d: correct=%s checks_ran=%s missing=%s notes=%s"
                                % (workload, trace, result["correct"], checks_ran,
                                   detail["missing_metrics"],
                                   [r["notes"] for r in runs]))
    print_table(rows)
    print("# %d metrics over %d workloads in %.0f s; provenance: %s"
          % (len(rows), len(WORKLOADS), time.time() - started,
             json.dumps(provenance(args.seed), sort_keys=True)))
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
