#!/usr/bin/env python3
"""Build and run the repository benchmark (see dsubench/README.md).

    python3 dsubench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 dsubench/run.py --self-test [--seconds S]

Run from the repository root.  The first run configures and builds the
benchmark package (dsubench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/dsubench, or .bench_build/dsubench when that is unset;
later runs rebuild only what changed.  Build output goes to standard error,
so the last line of standard output is always the benchmark's result
object.  Reports and traced runs' spans are written to .dsubench_out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".dsubench_out"
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "dsubench")


def build():
    """Configures and builds the benchmark; returns the binary."""
    bdir = build_dir()
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("dsubench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "dsubench")


def git_sha():
    if not os.path.exists(".git"):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the program's and the benchmark's sources, so a report
    names the code it measured even where there is no git metadata."""
    h = hashlib.sha256()
    for root in ("src", os.path.relpath(BENCH_DIR)):
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, meta):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", OUT_DIR, "--git", meta[0], "--src-digest", meta[1]]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, ""
    return r.returncode, r.stdout


def self_test(binary, seconds, meta):
    """Runs every workload briefly, untraced and traced, and checks that
    each metric BENCHMARK.json names is emitted with its unit (or its
    absence is recorded with a reason) and that every response was
    checked."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(binary, wl["name"], 1, seconds, trace, meta)
            where = "%s --trace %d" % (wl["name"], trace)
            lines = out.strip().splitlines()
            if code or not lines:
                problems.append("%s: exit %d, no result" % (where, code))
                continue
            result = json.loads(lines[-1])
            run_meta, missing = {}, {}
            for line in lines[:-1]:
                if line.startswith("dsubench-meta "):
                    run_meta = json.loads(line.split(" ", 1)[1])
                elif line.startswith("dsubench-missing "):
                    missing = json.loads(line.split(" ", 1)[1])
            if not result["correct"] or result["failed"]:
                problems.append("%s: correct=%s failed=%d" % (
                    where, result["correct"], result["failed"]))
            if not run_meta.get("responses_checked"):
                problems.append("%s: correctness checker did not run" % where)
            elif run_meta["responses_checked"] > result["attempted"]:
                problems.append("%s: more responses checked than attempted"
                                % where)
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None and m["name"] not in missing:
                    problems.append("%s: %s missing with no reason"
                                    % (where, m["name"]))
                elif got is not None and got["unit"] != m["unit"]:
                    problems.append("%s: %s unit %s, expected %s" % (
                        where, m["name"], got["unit"], m["unit"]))
            names = {m["name"] for m in spec[key]}
            for extra in set(result["metrics"]) - names:
                problems.append("%s: %s is not in BENCHMARK.json"
                                % (where, extra))
            print("self-test %-26s %3d metrics, %d attempted, %d checked, "
                  "%d missing" % (where, len(result["metrics"]),
                                  result["attempted"],
                                  run_meta.get("responses_checked", 0),
                                  len(missing)))
    for p in problems:
        print("self-test FAIL: " + p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    binary = build()
    meta = (git_sha(), source_digest())
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_test:
        return self_test(binary, min(args.seconds, 3), meta)
    code, out = run(binary, args.workload, args.seed, args.seconds,
                    args.trace, meta)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
