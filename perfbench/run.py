#!/usr/bin/env python3
"""Builds the Ginja libraries and the benchmark from source, then runs one
workload and passes its output through. The last line of standard output is
the benchmark's JSON result.

    python3 perfbench/run.py --workload tpcc_cpu --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. Build products go to $CARGO_TARGET_DIR when it
is set, else .bench_build/ (both relative to the repository root); traced
runs write their spans to traces/ inside it.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out, target):
    cmake_dir = os.path.join(out, "cmake")
    log_path = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target", target])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("build failed; full log in %s\n" % log_path)
                return None
    return os.path.join(cmake_dir, target)


def source_id():
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    parts = []
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
        if sha:
            parts.append("git:" + sha)
    parts.append("src:" + digest.hexdigest()[:16])
    return "+".join(parts)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "ginja", "ginja.h")):
        sys.stderr.write("Ginja sources not found under %s/src\n" % ROOT)
        return 2

    out = build_dir()
    target = "perfbench_selftest" if args.selftest else "ginja_perfbench"
    binary = build(out, target)
    if binary is None:
        return 1
    if args.selftest:
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
