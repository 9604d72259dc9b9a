#!/usr/bin/env python3
"""Builds and runs the PQS benchmark of record from the repository root.

    python3 pqsbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

The C++ benchmark binary (pqsbench.cc) is built with CMake into
.bench_build/pqsbench on first use; later runs only re-check the build. One
workload prints its tables and, as the last stdout line, one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. `--workload
all` runs the workloads listed in BENCHMARK.json one after another, each in
its own process, and ends with a combined JSON line whose metric names are
prefixed with the workload name. txn-minidb and hunt-minidb run only when
named: they fail their correctness gate on some seeds (README.md, "Known
failures").
The exit code is non-zero when the build fails or a correctness check does,
including a work fingerprint that differs from an earlier run of the same
workload and seed on the same sources (kept under .bench_build).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pqsbench")
BINARY = os.path.join(BUILD, "pqsbench")
LISTED = ["fuzz-minidb", "fuzz-sqlite3", "bigtable-minidb"]
UNLISTED = ["txn-minidb", "hunt-minidb"]
DEFAULT_SEED = 1


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; True on success."""
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        log("no repository sources next to " + HERE)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "pqsbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id(digest):
    """The git commit when there is one, else the source digest."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return "src-sha256:" + digest


def check_fingerprint(lines, workload, seed, digest):
    """Requires the work fingerprint to match every earlier run of this
    workload and seed on the same sources; returns False on a mismatch."""
    found = [line for line in lines if line.startswith("fingerprint ")]
    if not found:
        return False
    path = os.path.join(BUILD, "fingerprints", digest,
                        "%s-%d.txt" % (workload, seed))
    if os.path.isfile(path):
        with open(path) as f:
            if f.read().strip() != found[0]:
                print("PROBLEM: work fingerprint differs from an earlier "
                      "run of this seed (" + path + ")")
                return False
        return True
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(found[0] + "\n")
    return True


def run_workload(workload, args, commit, digest):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    if result is not None and not check_fingerprint(lines, workload,
                                                    args.seed, digest):
        result["correct"] = False
        return proc.returncode or 1, result
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=LISTED + UNLISTED + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2
    digest = source_digest()
    commit = commit_id(digest)
    if args.workload != "all":
        code, result = run_workload(args.workload, args, commit, digest)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in LISTED:
        code, result = run_workload(workload, args, commit, digest)
        worst = worst or code
        if result is None:
            return code or 1
        print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
