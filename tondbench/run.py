#!/usr/bin/env python3
"""Build the tondbench binary from this checkout and run it.

Usage (from the repository root):

    python3 tondbench/run.py --workload olap_t4 --seed 1 --seconds 25 --trace 0
    python3 tondbench/run.py --selftest

The first call configures and builds the PyTond libraries plus the binary
(Release) into .bench_build/tondbench; later calls only check the build.
Build output goes to stderr, so the last line of stdout is the binary's
result line. --selftest runs the binary's own test and also checks that
BENCHMARK.json names exactly the metrics the binary reports.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "tondbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tondbench")
REPORT_DIR = os.path.join(ROOT, ".bench_build", "reports")
BINARY = os.path.join(BUILD_DIR, "tondbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("tondbench: no PyTond sources next to tondbench/",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "tondbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def check_benchmark_json():
    """BENCHMARK.json must list exactly the binary's metrics and units."""
    listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                            text=True, check=True)
    reported = json.loads(listed.stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for group in ("end_to_end", "per_layer"):
        want = {(m["name"], m["unit"]) for m in reported[group]}
        have = {(m["name"], m["unit"]) for m in spec[group]}
        if want != have:
            ok = False
            print("  FAIL BENCHMARK.json %s differs from the binary: "
                  "missing %s, extra %s" % (group, sorted(want - have),
                                            sorted(have - want)))
    if ok:
        print("  ok   BENCHMARK.json lists the binary's metrics and units")
    return ok


def main(argv):
    if not build():
        print("tondbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--out" not in args:
        args += ["--out", REPORT_DIR]
    rc = subprocess.run([BINARY] + args).returncode
    if "--selftest" in argv and rc == 0 and not check_benchmark_json():
        rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
