#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload oneshot-1e5|city-dyn|live-loopback \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library sources of the checkout
(src/) and the benchmark package (perfbench/) are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), the
benchmark's self-tests run, then the benchmark binary runs the workload.
The binary's last stdout line is the result JSON; it is passed through as
the last line printed here once its metric names are checked against
BENCHMARK.json. Exits non-zero without a result when the sources are
missing, the build or the self-tests fail, the run times out or its metric
names differ from BENCHMARK.json; exits 1 with a result when a correctness
check of the run failed. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("oneshot-1e5", "city-dyn", "live-loopback")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def declared_metrics(root, trace):
    """Metric names BENCHMARK.json declares for this mode, in order."""
    spec = root / "BENCHMARK.json"
    if not spec.is_file():
        return None
    doc = json.loads(spec.read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "sim" / "runner.hpp").is_file():
        log(f"library sources not found under {root / 'src'}")
        return 2
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 2

    try:
        subprocess.run([str(build_dir / "perfbench_selftest")], check=True,
                       stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        log(f"self-tests failed: {err}")
        return 3

    # A relative directory keeps the unix socket path short.
    out_dir = os.path.relpath(build_dir, root)
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines or not lines[-1].startswith("{"):
        log(f"no result line (exit code {proc.returncode})")
        return 5
    declared = declared_metrics(root, args.trace)
    reported = list(json.loads(lines[-1])["metrics"])
    if declared is not None and reported != declared:
        log("the binary's metrics differ from BENCHMARK.json: "
            f"{sorted(set(reported) ^ set(declared))}")
        return 6
    print(lines[-1], flush=True)
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
