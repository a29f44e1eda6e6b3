#!/usr/bin/env python3
"""Daemon-loop benchmark: builds e2ebench from this checkout's sources and runs
one workload, or every workload briefly with all correctness gates (--smoke).

  python3 e2ebench/run.py --workload live_tail --seed 1 --seconds 20 --trace 0
  python3 e2ebench/run.py --smoke

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench); scratch feed and data directories go to
.bench_run/ and are removed when the run ends. The last line of stdout is the
result JSON of the run (--smoke prints a summary instead).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("backfill", "live_tail", "query_mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_id():
    """git sha when the checkout is a repository, else a hash of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("e2ebench: build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(build_dir, "e2ebench")


def run_one(binary, workload, seed, seconds, trace, smoke, source):
    """Runs the harness, relaying its stdout. Returns (exit code, last line)."""
    workdir = os.path.join(ROOT, ".bench_run", "%s-%d-%d" % (workload, seed, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir, "--source-id", source]
    if smoke:
        cmd.append("--smoke")
    last = ""
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log("e2ebench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
            return 1, ""
    for line in out.splitlines():
        print(line, flush=True)
        if line.strip():
            last = line
    return proc.returncode, last


def smoke(binary, source):
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, last = run_one(binary, workload, 1, 3, trace, True, source)
            try:
                result = json.loads(last)
                ok = code == 0 and result["correct"] and result["failed"] == 0
            except (ValueError, KeyError, TypeError):
                ok = False
            log("smoke %-10s trace=%d: %s" % (workload, trace, "pass" if ok else "FAIL"))
            if not ok:
                failures.append("%s/trace=%d" % (workload, trace))
    print("smoke: %s" % ("all workloads pass every gate" if not failures
                         else "FAILED " + ", ".join(failures)))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly at small scale, traced and untraced")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "service.h")):
        log("e2ebench: the bgpcu sources (src/) are not in this checkout")
        return 2
    binary = build()
    source = source_id()
    if args.smoke:
        return smoke(binary, source)
    code, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace, False, source)
    return code


if __name__ == "__main__":
    sys.exit(main())
