#!/usr/bin/env bash
# Captures the benchmark baselines (google-benchmark JSON format) at the
# repository root:
#   BENCH_maxmin.json — the max-min solver: incremental engine vs the
#     retained reference solver.
#   BENCH_sim.json — the closed-loop simulator: event-driven session
#     engine vs the retained linear-scan driver (packet-merge scaling).
# Each run records engine and reference side by side, so the perf
# trajectory across PRs is a diff of these files.
#
# Usage: scripts/bench_baseline.sh [build-dir] [min-time-seconds]
#                                  [out-file] [sim-out-file]
#
# The out-file arguments redirect the JSON (defaults: BENCH_maxmin.json /
# BENCH_sim.json at the repo root) — scripts/check_bench.py uses them to
# capture fresh runs without clobbering the committed baselines.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
min_time="${2:-0.2}"
out_file="${3:-$repo_root/BENCH_maxmin.json}"
sim_out_file="${4:-$repo_root/BENCH_sim.json}"

if [ ! -x "$build_dir/bench_perf_maxmin" ] || \
   [ ! -x "$build_dir/bench_perf_sim" ]; then
  echo "building benchmarks in $build_dir ..." >&2
  cmake -B "$build_dir" -S "$repo_root" -DMCFAIR_BENCH=ON >/dev/null
  cmake --build "$build_dir" --target bench_perf_maxmin bench_perf_sim \
        -j >/dev/null
fi

"$build_dir/bench_perf_maxmin" \
  --benchmark_filter='BM_SingleBottleneckScaling|BM_ClosedLoopChurn|BM_BoundSolverResolve|BM_AccumScan|BM_SampledSolve|BM_SweepFleet|BM_Service|BM_SnapshotReplay' \
  --benchmark_min_time="$min_time" \
  --benchmark_format=json \
  --benchmark_out="$out_file" \
  --benchmark_out_format=json >/dev/null

echo "wrote $out_file" >&2

"$build_dir/bench_perf_sim" \
  --benchmark_filter='BM_ClosedLoopMerge|BM_ClosedLoopFluid|BM_RoutePlan|BM_ScenarioMesh|BM_FaultChurn|BM_FluidHandback|BM_ClosedLoopParallel|BM_ClosedLoopSpeculative|BM_Partition' \
  --benchmark_min_time="$min_time" \
  --benchmark_format=json \
  --benchmark_out="$sim_out_file" \
  --benchmark_out_format=json >/dev/null

echo "wrote $sim_out_file" >&2

python3 - "$out_file" "$sim_out_file" <<'EOF'
import json, sys

def load(path):
    """name -> (real_time, time_unit), aggregates skipped (the same
    shape scripts/check_bench.py parses)."""
    data = json.load(open(path))
    return {b["name"]: (b["real_time"], b.get("time_unit", "ns"))
            for b in data["benchmarks"]
            if b.get("run_type") != "aggregate" and "real_time" in b}

times = load(sys.argv[1])
print(f"{'benchmark':<44}{'engine':>12}{'reference':>12}{'speedup':>9}")
for name, (t, unit) in sorted(times.items()):
    if "Reference" in name or "/" not in name:
        continue
    refname = name.replace("Scaling/", "ScalingReference/") \
                  .replace("Churn/", "ChurnReference/")
    ref = times.get(refname)
    if refname == name or ref is None:
        continue
    print(f"{name:<44}{t:>10.0f}{unit}{ref[0]:>10.0f}{ref[1]}"
          f"{ref[0] / t:>8.1f}x")
print()
print(f"{'sampled/sweep benchmark':<44}{'time':>12}")
for name, (t, unit) in sorted(times.items()):
    if name.startswith(("BM_SampledSolve/", "BM_SweepFleet/")):
        print(f"{name:<44}{t:>10.2f}{unit}")

print()
print(f"{'service benchmark':<44}{'time':>12}{'p50':>10}{'p99':>10}"
      f"{'p999':>10}")
for b in sorted(json.load(open(sys.argv[1]))["benchmarks"],
                key=lambda b: b["name"]):
    name = b["name"]
    if (b.get("run_type") == "aggregate" or
            not name.startswith(("BM_ServiceQuery/", "BM_SnapshotReplay/"))):
        continue
    t, unit = b["real_time"], b.get("time_unit", "ns")
    # BM_ServiceQuery rows carry the service's own P2 tail histogram
    # (microseconds) as counters; BM_SnapshotReplay has none.
    if b.get("p50_us") is not None:
        tail = (f"{b['p50_us']:>8.2f}us{b['p99_us']:>8.2f}us"
                f"{b['p999_us']:>8.2f}us")
    else:
        tail = f"{'-':>10}{'-':>10}{'-':>10}"
    print(f"{name:<44}{t:>10.2f}{unit}{tail}")

sim = load(sys.argv[2])
print()
print(f"{'merge benchmark':<44}{'event':>12}{'reference':>12}{'speedup':>9}")
for name, (t, unit) in sorted(sim.items()):
    if not name.startswith("BM_ClosedLoopMergeEvent/"):
        continue
    ref = sim.get(name.replace("MergeEvent/", "MergeReference/"))
    if ref is None:
        # Event-only rows (e.g. N=100k, where the linear scan is too
        # slow to bench) still show up in the summary.
        print(f"{name:<44}{t:>10.2f}{unit}{'-':>12}{'':>9}")
        continue
    print(f"{name:<44}{t:>10.2f}{unit}{ref[0]:>10.2f}{ref[1]}"
          f"{ref[0] / t:>8.1f}x")

print()
print(f"{'fluid benchmark':<44}{'fluid':>12}{'per-packet':>12}{'speedup':>9}")
for name, (t, unit) in sorted(sim.items()):
    if not name.startswith("BM_ClosedLoopFluid/"):
        continue
    ev = sim.get(name.replace("Fluid/", "FluidEventBaseline/"))
    if ev is None:
        # Fluid-only rows (N=1M: the per-packet engine would take
        # minutes) still show up in the summary.
        print(f"{name:<44}{t:>10.2f}{unit}{'-':>12}{'':>9}")
        continue
    print(f"{name:<44}{t:>10.2f}{unit}{ev[0]:>10.2f}{ev[1]}"
          f"{ev[0] / t:>8.1f}x")

print()
print(f"{'parallel engine benchmark':<44}{'threads':>12}{'serial':>12}{'speedup':>9}")
for name, (t, unit) in sorted(sim.items()):
    if not name.startswith("BM_ClosedLoopParallel/"):
        continue
    base, _, threads = name.rpartition("/")
    if threads == "0":
        continue
    serial = sim.get(f"{base}/0")
    if serial is None:
        continue
    print(f"{name:<44}{t:>10.2f}{unit}{serial[0]:>10.2f}{serial[1]}"
          f"{serial[0] / t:>8.2f}x")
for name, (t, unit) in sorted(sim.items()):
    if name.startswith("BM_Partition/"):
        print(f"{name:<44}{t:>10.2f}{unit}{'-':>12}{'':>9}")

print()
print(f"{'speculative engine benchmark':<44}{'workers':>12}{'serial':>12}"
      f"{'speedup':>9}")
for name, (t, unit) in sorted(sim.items()):
    if not name.startswith("BM_ClosedLoopSpeculative/"):
        continue
    base, _, threads = name.rpartition("/")
    if threads == "0":
        continue
    serial = sim.get(f"{base}/0")
    if serial is None:
        continue
    print(f"{name:<44}{t:>10.2f}{unit}{serial[0]:>10.2f}{serial[1]}"
          f"{serial[0] / t:>8.2f}x")

print()
print(f"{'mesh benchmark':<44}{'mesh':>12}{'tree':>12}{'ratio':>9}")
for name, (t, unit) in sorted(sim.items()):
    if not name.startswith("BM_ScenarioMesh/"):
        continue
    tree = sim.get(name.replace("Mesh/", "MeshTreeBaseline/"))
    if tree is None:
        print(f"{name:<44}{t:>10.2f}{unit}{'-':>12}{'':>9}")
        continue
    # ratio ~1 = mesh scenarios build in the tree ballpark.
    print(f"{name:<44}{t:>10.2f}{unit}{tree[0]:>10.2f}{tree[1]}"
          f"{t / tree[0]:>8.2f}x")
for name, (t, unit) in sorted(sim.items()):
    if name.startswith("BM_RoutePlan/"):
        print(f"{name:<44}{t:>10.2f}{unit}{'-':>12}{'':>9}")

print()
print(f"{'fault benchmark':<44}{'time':>12}")
for name, (t, unit) in sorted(sim.items()):
    if name.startswith(("BM_FaultChurn/", "BM_FluidHandback/")):
        print(f"{name:<44}{t:>10.2f}{unit}")
EOF
