#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the library, the `bcclb` CLI and the benchmark driver from this
checkout's sources (CMake, Release, into .bench_build/ or $CARGO_TARGET_DIR),
then replaces itself with the driver, so the whole run is one process. The
driver prints every metric by name with its unit; its last stdout line is the
JSON result. Build output goes to stderr.

--self-test runs the driver's own unit checks and verifies that every name in
BENCHMARK.json is well formed and matches the driver's metric lists.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["bcclb", "perfbench_driver", "perfbench_selftest"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die(f"{needed} is missing; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", *TARGETS])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            die("build failed: " + " ".join(step))


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the paths and bytes of src/ and tools/ (commit stand-in)."""
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def driver_list(driver, what):
    done = subprocess.run([driver, "--list", what], capture_output=True, text=True, check=True)
    return [line.split() for line in done.stdout.splitlines() if line]


def self_test(build_dir):
    driver = os.path.join(build_dir, "perfbench_driver")
    ok = subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(set(names)) != len(names):
        print(f"FAIL malformed or repeated names in BENCHMARK.json: {bad}")
        ok = False
    expected = {
        "workloads": [[w["name"]] for w in spec["workloads"]],
        "end-to-end": [[m["name"], m["unit"]] for m in spec["end_to_end"]],
        "per-layer": [[m["name"], m["unit"]] for m in spec["per_layer"]],
    }
    for what, listed in expected.items():
        if driver_list(driver, what) != listed:
            print(f"FAIL BENCHMARK.json {what} differ from the driver's list")
            ok = False
    print("BENCHMARK.json names: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one byte of one output before checking (must fail the run)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if args.self_test:
        build(build_dir)
        sys.exit(self_test(build_dir))
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    build(build_dir)
    driver = os.path.join(build_dir, "perfbench_driver")
    argv = [driver, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--bcclb", os.path.join(build_dir, "tools", "bcclb"),
            "--work-dir", os.path.join(build_dir, "perfbench"),
            "--commit", git_commit(), "--source-digest", source_digest()]
    if args.corrupt:
        argv.append("--corrupt")
    sys.stdout.flush()
    os.execv(driver, argv)


if __name__ == "__main__":
    main()
