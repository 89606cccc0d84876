// Engineering micro-benchmarks for the max-min solver (not a paper
// figure): scaling with network size, session types, and link-rate
// functions.
//
// The *Reference benchmarks run the retained pre-refactor solver
// (per-round link-view rebuild) on the same inputs, so the incremental
// engine's speedup is recorded side by side in every run; see
// scripts/bench_baseline.sh for the JSON baseline capture.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <limits>

#include "fairness/maxmin.hpp"
#include "fairness/properties.hpp"
#include "fairness/sampled.hpp"
#include "net/topologies.hpp"
#include "serve/service.hpp"
#include "sim/closed_loop.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace mcfair;

net::Network makeRandom(std::uint64_t seed, std::size_t sessions,
                        double singleRateProb) {
  util::Rng rng(seed);
  net::RandomNetworkOptions opts;
  opts.nodes = 10 + sessions * 2;
  opts.extraLinks = sessions * 2;
  opts.sessions = sessions;
  opts.singleRateProbability = singleRateProb;
  return net::randomNetwork(rng, opts);
}

void BM_MaxMinMultiRate(benchmark::State& state) {
  const auto n = makeRandom(42, static_cast<std::size_t>(state.range(0)),
                            0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairness::maxMinFairAllocation(n));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxMinMultiRate)->RangeMultiplier(2)->Range(4, 256)->Complexity();

void BM_MaxMinMixed(benchmark::State& state) {
  const auto n = makeRandom(43, static_cast<std::size_t>(state.range(0)),
                            0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairness::maxMinFairAllocation(n));
  }
}
BENCHMARK(BM_MaxMinMixed)->RangeMultiplier(2)->Range(4, 256);

void BM_MaxMinBisectionPath(benchmark::State& state) {
  // RandomJoinExpected forces the nonlinear bisection path.
  auto n = makeRandom(44, static_cast<std::size_t>(state.range(0)), 0.0);
  const auto fn = std::make_shared<const net::RandomJoinExpected>(1e4);
  for (std::size_t i = 0; i < n.sessionCount(); ++i) {
    n = n.withLinkRateFunction(i, fn);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairness::maxMinFairAllocation(n));
  }
}
BENCHMARK(BM_MaxMinBisectionPath)->RangeMultiplier(2)->Range(4, 32);

void BM_SingleBottleneckScaling(benchmark::State& state) {
  const auto n = net::singleBottleneckNetwork(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0) / 10), 1000.0, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairness::maxMinFairAllocation(n));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SingleBottleneckScaling)
    ->RangeMultiplier(4)
    ->Range(10, 4096)
    ->Arg(640)
    ->Complexity();

void BM_SingleBottleneckScalingReference(benchmark::State& state) {
  const auto n = net::singleBottleneckNetwork(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0) / 10), 1000.0, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fairness::solveMaxMinFairReference(n).allocation);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SingleBottleneckScalingReference)
    ->RangeMultiplier(4)
    ->Range(10, 4096)
    ->Arg(640)
    ->Complexity();

// Isolates the linear accumulator/saturation scan — the flat branch-free
// sweep over the dense (const, slope, threshold) mirrors. L parallel
// unicast bottlenecks with strictly increasing capacities freeze exactly
// one link per filling round, so one solve performs ~L^2/2 scan slots
// and little else; items/sec reports scan-slot throughput.
void BM_AccumScan(benchmark::State& state) {
  const auto links = static_cast<std::size_t>(state.range(0));
  net::Network n;
  for (std::size_t j = 0; j < links; ++j) {
    const auto l = n.addLink(1.0 + 0.001 * static_cast<double>(j));
    n.addSession(net::makeUnicastSession({l}));
  }
  fairness::MaxMinSolver solver;
  solver.bind(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(links * (links + 1) / 2));
}
BENCHMARK(BM_AccumScan)->Arg(1024)->Arg(4096);

// A bound solver re-solving an unchanged network: the zero-allocation
// steady-state path in isolation (no bind, no result copy).
void BM_BoundSolverResolve(benchmark::State& state) {
  const auto n = net::singleBottleneckNetwork(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0) / 10), 1000.0, 2.0);
  fairness::MaxMinSolver solver;
  solver.bind(n);
  benchmark::DoNotOptimize(solver.solve());
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solveAllocation());
  }
}
BENCHMARK(BM_BoundSolverResolve)->RangeMultiplier(4)->Range(10, 4096);

// Closed-loop churn: receivers join/leave between solves, so every epoch
// re-solves a slightly different network. One persistent solver rides
// through the variants (its buffers stay warm); the reference twin below
// rebuilds everything per epoch like the pre-refactor code had to.
std::vector<net::Network> churnVariants(std::size_t sessions) {
  const auto base = makeRandom(45, sessions, 0.3);
  std::vector<net::Network> variants;
  variants.push_back(base);
  for (std::size_t i = 0; i < base.sessionCount(); ++i) {
    if (base.session(i).receivers.size() > 1) {
      variants.push_back(base.withoutReceiver({i, 0}));
    }
    if (variants.size() >= 16) break;
  }
  return variants;
}

void BM_ClosedLoopChurn(benchmark::State& state) {
  const auto variants = churnVariants(static_cast<std::size_t>(state.range(0)));
  fairness::MaxMinSolver solver;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solveAllocation(variants[next]));
    next = (next + 1) % variants.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClosedLoopChurn)->RangeMultiplier(2)->Range(16, 128);

void BM_ClosedLoopChurnReference(benchmark::State& state) {
  const auto variants = churnVariants(static_cast<std::size_t>(state.range(0)));
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fairness::solveMaxMinFairReference(variants[next]).allocation);
    next = (next + 1) % variants.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClosedLoopChurnReference)->RangeMultiplier(2)->Range(16, 128);

// The fair-epoch timeline of the closed-loop simulator: session arrivals
// and departures create one re-solve per epoch.
void BM_FairEpochTimeline(benchmark::State& state) {
  const std::size_t sessions = static_cast<std::size_t>(state.range(0));
  const auto n = net::singleBottleneckNetwork(sessions, sessions / 10,
                                              1000.0, 2.0);
  sim::ClosedLoopConfig config;
  config.duration = 100.0;
  config.warmup = 10.0;
  config.computeFairEpochs = true;
  config.sessions.assign(sessions, sim::ClosedLoopSessionConfig{});
  for (std::size_t i = 0; i < sessions; ++i) {
    config.sessions[i].startTime = static_cast<double>(i % 8) * 10.0;
    config.sessions[i].stopTime = 90.0 + static_cast<double>(i % 4);
  }
  config.sessions[0].startTime = 0.0;  // keep at least one session live
  config.sessions[0].stopTime = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    const auto r = sim::runClosedLoopSimulation(n, config);
    benchmark::DoNotOptimize(r.fairEpochs.size());
  }
}
BENCHMARK(BM_FairEpochTimeline)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_PropertyChecks(benchmark::State& state) {
  const auto n = makeRandom(45, 32, 0.3);
  const auto a = fairness::maxMinFairAllocation(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fairness::checkAllProperties(n, a));
  }
}
BENCHMARK(BM_PropertyChecks);

// Sampled approximate solve + expansion at 25% of the receivers, against
// the full exact solve recorded by BM_SingleBottleneckScaling — the cost
// side of the docs/SWEEPS.md error-vs-sample-size trade-off.
void BM_SampledSolve(benchmark::State& state) {
  const auto n = net::singleBottleneckNetwork(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0) / 10), 1000.0, 2.0);
  fairness::SampledOptions options;
  options.sampleFraction = 0.25;
  fairness::SampledSolver solver(options);
  solver.solve(n);  // warm the binding; the loop measures re-solves
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(n).rounds);
    benchmark::DoNotOptimize(&solver.estimateAllocation());
  }
}
BENCHMARK(BM_SampledSolve)->RangeMultiplier(4)->Range(64, 4096);

// One full Monte-Carlo sweep fleet: arg = replicas per cell over a
// 2-scenario x 3-fraction grid, serial so the baseline is thread-count
// independent (the fleet's own scaling is exercised by the tests).
void BM_SweepFleet(benchmark::State& state) {
  sim::SweepConfig config;
  sim::ScenarioSpec steady = *sim::findScenario("steady-bottleneck");
  steady.sessions = 24;
  sim::ScenarioSpec mesh = *sim::findScenario("meshed-backbone");
  mesh.sessions = 16;
  config.scenarios = {steady, mesh};
  config.sampleFractions = {0.1, 0.5, 1.0};
  config.runs = static_cast<std::size_t>(state.range(0));
  config.threads = 1;
  const sim::SweepDriver driver(config);
  for (auto _ : state) {
    const sim::SweepResult result = driver.run();
    benchmark::DoNotOptimize(result.cells.size());
  }
}
BENCHMARK(BM_SweepFleet)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Serving-layer benchmarks (serve::FairshareService). ---

serve::ServiceOptions serviceBenchOptions() {
  serve::ServiceOptions options;
  // Pinned cost estimate + non-latching hysteresis: the budget alone
  // decides the mode, so the exact and degraded rows measure exactly
  // the path their name claims.
  options.exactCostOverride = 1.0;
  options.degradeAfter = std::numeric_limits<std::size_t>::max();
  options.sampled.sampleFraction = 0.25;
  return options;
}

// One capacity delta + one budgeted query per iteration: the service's
// warm refresh-tier round trip (O(links) rebind, allocation-free).
// degraded:0 queries unbudgeted (always exact), degraded:1 queries with
// a blown budget (SampledSolver estimate). Each row also publishes the
// service's own streaming tail histogram — p50/p99/p999 per-query
// latency in microseconds — as benchmark counters.
void BM_ServiceQuery(benchmark::State& state) {
  const bool degradedPath = state.range(1) != 0;
  serve::FairshareService service(
      net::singleBottleneckNetwork(
          static_cast<std::size_t>(state.range(0)),
          static_cast<std::size_t>(state.range(0) / 10), 1000.0, 2.0),
      serviceBenchOptions());
  const double budget = degradedPath ? 1e-9 : 0.0;
  (void)service.query(budget);  // warm both workspaces
  bool flip = false;
  for (auto _ : state) {
    service.applyDelta(
        serve::setCapacityDelta(graph::LinkId{0}, flip ? 900.0 : 1000.0));
    flip = !flip;
    const serve::QueryResult q = service.query(budget);
    benchmark::DoNotOptimize(q.rates);
  }
  const serve::ServiceMetrics m = service.metrics();
  const serve::LatencyHistogram& h =
      degradedPath ? m.degradedQuery : m.exactQuery;
  state.counters["p50_us"] = h.p50.value() * 1e6;
  state.counters["p99_us"] = h.p99.value() * 1e6;
  state.counters["p999_us"] = h.p999.value() * 1e6;
}
BENCHMARK(BM_ServiceQuery)
    ->ArgsProduct({{64, 512}, {0, 1}})
    ->ArgNames({"sessions", "degraded"});

// Crash-recovery cost: load the service snapshot and replay a journal
// of `deltas` capacity records through the normal apply path.
void BM_SnapshotReplay(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string snap =
      (fs::temp_directory_path() / "mcfair_bench_snap.bin").string();
  serve::ServiceOptions options;
  options.journalPath =
      (fs::temp_directory_path() / "mcfair_bench_journal.bin").string();
  serve::FairshareService live(
      net::singleBottleneckNetwork(128, 12, 1000.0, 2.0), options);
  live.saveSnapshot(snap);
  util::Rng rng(7);
  const std::size_t links = live.network().linkCount();
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    live.applyDelta(serve::setCapacityDelta(
        graph::LinkId{static_cast<std::uint32_t>(rng.below(links))},
        rng.uniform(10.0, 1000.0)));
  }
  for (auto _ : state) {
    const auto recovered = serve::FairshareService::recover(snap, options);
    benchmark::DoNotOptimize(recovered->revision());
  }
  state.counters["deltas"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SnapshotReplay)
    ->Arg(64)
    ->ArgName("deltas")
    ->Unit(benchmark::kMicrosecond);

}  // namespace
