#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from src/) in Release mode
under $CARGO_TARGET_DIR (default .bench_build) and runs one workload in
one process. An untraced run (--trace 0) measures for the whole of
--seconds; a traced run (--trace 1) measures an untraced half, then a
traced half. The metrics printed must be exactly those BENCHMARK.json
lists for the mode, with the same units.

The last line of standard output is the benchmark's JSON result; build
output goes to standard error. `--selftest` builds and runs the tests of
the benchmark's own helpers instead. perfbench/README.md documents the
workloads and metrics.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "closed_loop.hpp")):
        sys.stderr.write("perfbench: library sources (src/) not found\n")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_root):
        target_root = os.path.join(ROOT, target_root)
    build_dir = os.path.join(target_root, "perfbench")
    if argv == ["--selftest"]:
        if not build(build_dir, "perfbench_selftest"):
            return 1
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode
    if not build(build_dir, "mcfair_perfbench"):
        return 1
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or "--seconds" not in opts:
        sys.stderr.write("usage: run.py --workload W --seed N --seconds S "
                         "--trace 0|1\n")
        return 2
    traced = opts.get("--trace", "0") != "0"
    if traced:
        opts["--seconds"] = repr(float(opts["--seconds"]) / 2)
    cmd = [os.path.join(build_dir, "mcfair_perfbench"),
           "--work-dir", os.path.join(target_root, "perfbench-work")]
    for key, value in opts.items():
        cmd += [key, value]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: exited with %d\n" % proc.returncode)
        return proc.returncode or 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if traced else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    printed = {n: m["unit"] for n, m in json.loads(lines[-1])["metrics"].items()}
    if printed != expected:
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: %s\n"
                         % sorted(set(printed.items()) ^ set(expected.items())))
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
