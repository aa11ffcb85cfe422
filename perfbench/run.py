#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py [--seed N]
        Runs every workload in BENCHMARK.json (seed 1 by default; 7919 is
        the held-out seed), once untraced and once traced, and prints every
        end-to-end metric with its unit plus the tracing overhead per
        workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        One run. The last line of standard output is one JSON object with
        the keys correct, attempted, failed and metrics: the end-to-end
        metrics with --trace 0, the per-layer metrics with --trace 1.

    python3 perfbench/run.py --test
        Builds and runs the unit test of the percentile code.

The benchmark is built from source with CMake (Release) into the directory
named by $CARGO_TARGET_DIR, or .bench_build at the repository root. A
failed build or output check exits non-zero without printing a result.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench_build.log")
    jobs = str(max(1, min(2, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                print("perfbench: build failed: %s" % e, file=sys.stderr)
                return None
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                print("perfbench: build failed:\n" + tail, file=sys.stderr)
                return None
    return bdir


def source_digest():
    """sha256 over the sources the benchmark builds, for provenance when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "cmake", "src", "bench", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def load_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bdir, workload, seed, seconds, trace, definition):
    """Runs the binary; returns the result object, or None on failure."""
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out_dir", out_dir,
           "--source_digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        print("perfbench: %s exited with %d" % (workload, proc.returncode),
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        return None

    # The reported metrics are exactly the ones BENCHMARK.json names. A
    # layer that does no work on this workload reports 0.
    kind = "per_layer" if trace else "end_to_end"
    measured = result["metrics"]
    metrics = {}
    for m in definition[kind]:
        if m["name"] in measured:
            metrics[m["name"]] = measured[m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            print("  %-28s 0 %s  (not on this workload's path)"
                  % (m["name"], m["unit"]))
        else:
            print("perfbench: %s did not report %s" % (workload, m["name"]),
                  file=sys.stderr)
            return None
    result["metrics"] = metrics
    return result


def run_all(definition, seed):
    bdir = build(["perfbench"])
    if bdir is None:
        return 1
    seconds = definition["run_seconds"]
    summary = []
    for w in definition["workloads"]:
        name = w["name"]
        print("== %s (seed %d, %d s): %s" % (name, seed, seconds, w["why"]))
        plain = run_once(bdir, name, seed, seconds, 0, definition)
        traced = run_once(bdir, name, seed, seconds, 1, definition)
        if plain is None or traced is None:
            return 1
        summary.append((name, plain, traced))
    print("\n== end-to-end metrics (seed %d)" % seed)
    for name, plain, traced in summary:
        for m in definition["end_to_end"]:
            v = plain["metrics"][m["name"]]
            print("%-11s %-20s %.6g %s" % (name, m["name"], v["value"],
                                           v["unit"]))
        untraced_ms = plain["metrics"]["latency_p50_ms"]["value"]
        traced_ms = traced["metrics"]["trace.latency_p50_ms"]["value"]
        print("%-11s %-20s %.6g ms (traced %.6g - untraced %.6g)"
              % (name, "tracing_overhead", traced_ms - untraced_ms, traced_ms,
                 untraced_ms))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--test", action="store_true")
    args = p.parse_args()

    if args.test:
        bdir = build(["perfbench_stats_test"])
        if bdir is None:
            return 1
        return subprocess.run([os.path.join(bdir, "perfbench_stats_test")],
                              timeout=RUN_TIMEOUT_S).returncode
    try:
        definition = load_definition()
    except (OSError, ValueError) as e:
        print("perfbench: cannot read BENCHMARK.json: %s" % e, file=sys.stderr)
        return 1
    if args.workload is None:
        return run_all(definition, args.seed)
    if args.workload not in [w["name"] for w in definition["workloads"]]:
        print("perfbench: unknown workload %s" % args.workload, file=sys.stderr)
        return 2
    bdir = build(["perfbench"])
    if bdir is None:
        return 1
    seconds = args.seconds or definition["run_seconds"]
    result = run_once(bdir, args.workload, args.seed, seconds, args.trace,
                      definition)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
