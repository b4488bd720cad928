#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, then runs one workload.

    python3 perfbench/run.py --workload iid_contested --seed 1 --seconds 10 --trace 0

The first call configures and compiles the topkmon library and the
benchmark driver into perfbench/build (Release); later calls only rebuild
what changed. The benchmark's self-tests run after every build. Every
metric is printed by name with its unit, and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A failed build, self-test or correctness check exits non-zero without
that line. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
# What the benchmark compiles: the library sources and build file next to
# perfbench/, plus the benchmark's own sources.
SOURCES = [ROOT / "CMakeLists.txt", ROOT / "src", ROOT / "bench" / "alloc_hook.cpp",
           ROOT / "bench" / "alloc_hook.hpp", HERE / "CMakeLists.txt", HERE / "src"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, what):
    """Runs a build step with its output on stderr; fails the benchmark on error."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"{what} failed (exit {proc.returncode}): {' '.join(map(str, cmd))}", 3)


def build():
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                    "configure")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
                 "perfbench_selftest"], "build")
    run_checked([BUILD / "perfbench_selftest"], "self-test")


def source_digest():
    h = hashlib.sha256()
    for base in SOURCES:
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def describe_commit():
    commit = "no-git"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return f"{commit} src-sha256:{source_digest()}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "exp" / "scenario.hpp").is_file():
        fail(f"no topkmon sources next to {HERE.name}/ (expected {ROOT / 'src'})")
    build()

    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", describe_commit(), "--trace-dir", str(traces)]
    sys.stdout.flush()
    child = subprocess.Popen(cmd)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    sys.exit(child.wait())


if __name__ == "__main__":
    main()
