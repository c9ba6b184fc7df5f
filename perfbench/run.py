#!/usr/bin/env python3
"""The dagsched benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Builds the library, the schedd daemon and
the harness (perfbench/CMakeLists.txt, Release) under .bench_build/, runs
one workload for about --seconds seconds, checks every output, and prints
the metrics.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace is 0 and the per-layer metrics
(from a traced run) when --trace is 1.  Exits non-zero when a check fails,
when the build is not Release, or when the sources are missing.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402

WORKLOADS = ("schedd_stream", "sweep_anneal", "ladder_large")
DEFAULT_SEED = 1
HARNESS_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def fail(message):
    log(message)
    sys.exit(1)


def run_quiet(cmd, cwd):
    """Runs a build step; its output goes to stderr only on failure."""
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-20000:])
        fail("build step failed: " + " ".join(cmd))


def build(root, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=Release"], root)
    jobs = str(os.cpu_count() or 1)
    run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target",
               "perfbench_harness", "schedd"], root)
    harness = os.path.join(build_dir, "perfbench_harness")
    schedd = os.path.join(build_dir, "dagsched", "schedd")
    for path in (harness, schedd):
        if not os.path.isfile(path):
            fail("build did not produce " + path)
    return harness, schedd


def source_digest(root):
    """sha256 over the sources the benchmark builds and runs."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    with open(os.path.join(root, "CMakeLists.txt"), "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit(root):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(root, harness):
    done = subprocess.run([harness, "--stamp"], stdout=subprocess.PIPE,
                          text=True, check=True)
    build_info = json.loads(done.stdout)
    if build_info.get("build_type") != "Release":
        fail("refusing to report numbers from a %r build"
             % build_info.get("build_type"))
    build_info.update({
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": commit(root),
        "source_digest": source_digest(root),
    })
    return build_info


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", os.path.join("src", "service"),
                   os.path.join("tools", "schedd_main.cpp")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the dagsched repository root (no %s here)" % needed)

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    harness, schedd = build(root, build_dir)
    info = stamp(root, harness)
    threads = min(4, os.cpu_count() or 1)
    info["threads"] = threads

    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    raw_path = os.path.join(runs, "%s-%d-%d.json"
                            % (args.workload, args.seed, args.trace))
    if os.path.exists(raw_path):
        os.remove(raw_path)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--threads", str(threads),
           "--schedd", schedd,
           "--spec", os.path.join(HERE, "sweep_anneal.spec")]
    started = time.monotonic()
    # Its own session, so that a timeout also stops the schedd it spawned.
    harness_proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        returncode = harness_proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness_proc.pid, signal.SIGKILL)
        harness_proc.wait()
        fail("harness did not finish within %d s" % HARNESS_TIMEOUT_S)
    if not os.path.exists(raw_path):
        fail("harness exited %d without a result" % returncode)
    with open(raw_path) as handle:
        raw = json.load(handle)

    print("perfbench: stamp " + json.dumps(info, sort_keys=True))
    print("perfbench: workload %s, seed %d, trace %d, %.1f s"
          % (args.workload, args.seed, args.trace, time.monotonic() - started))
    for note in raw["notes"]:
        print("perfbench: " + note)
    for failure in raw["failures"]:
        print("perfbench: FAILED " + failure)
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    q = metrics.tail_quantile(len(raw["latency_ms"]))
    print("perfbench: failed_share = %.6f share (lower is better; %d of %d)"
          % (metrics.failed_share(failed, attempted), failed, attempted))
    print("perfbench: latency samples %d, tail percentile p%g"
          % (len(raw["latency_ms"]), round(q * 100, 3)))

    if args.trace:
        values = metrics.per_layer(raw)
        table = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(raw)
        table = metrics.END_TO_END
        for name, value in metrics.latency(raw).items():
            unit, better = metrics.LATENCY[name]
            print("perfbench: %s = %.6g %s (%s is better; no bound)"
                  % (name, value, unit, better))
    for name, (unit, better) in table.items():
        print("perfbench: %s = %.6g %s (%s is better)"
              % (name, values[name], unit, better))

    correct = returncode == 0 and failed == 0 and attempted > 0
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
