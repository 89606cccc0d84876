// Engineering micro-benchmarks for the packet-level simulator and the
// Markov analysis (not a paper figure).
//
// The BM_ClosedLoopMerge* pair measures what the event-driven session
// engine changed: merging N senders' packet streams costs O(log N) per
// packet in the heap engine (one component lane) versus O(N) in the
// retained reference driver (runClosedLoopSimulationReference). Both run
// the identical mega-merge scenario, so the rows are directly
// comparable; scripts/bench_baseline.sh records them side by side in
// BENCH_sim.json.
#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "graph/route_plan.hpp"
#include "markov/protocol_chain.hpp"
#include "net/fault.hpp"
#include "sim/partition.hpp"
#include "sim/scenario.hpp"
#include "sim/star.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace mcfair;

sim::Scenario mergeScenario(std::size_t sessions) {
  const sim::ScenarioSpec* base = sim::findScenario("mega-merge");
  MCFAIR_REQUIRE(base != nullptr, "mega-merge preset missing from catalog");
  sim::ScenarioSpec spec = *base;
  spec.sessions = sessions;
  return sim::buildScenario(spec);
}

// Packets per run: every session emits one single-layer stream of rate 1
// over the scenario horizon.
std::int64_t mergePackets(const sim::Scenario& s) {
  return static_cast<std::int64_t>(s.network.sessionCount()) *
         static_cast<std::int64_t>(s.config.duration);
}

// The heap engine, pinned: at 256+ single-component sessions the default
// entry dispatches to the batched engine, so the row runs the heap loop
// as the single component lane at one thread (no worker threads).
void BM_ClosedLoopMergeEvent(benchmark::State& state) {
  auto s = mergeScenario(static_cast<std::size_t>(state.range(0)));
  s.config.engineThreads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::runClosedLoopSimulationParallel(s.network, s.config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          mergePackets(s));
}
BENCHMARK(BM_ClosedLoopMergeEvent)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_ClosedLoopMergeReference(benchmark::State& state) {
  const auto s = mergeScenario(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::runClosedLoopSimulationReference(s.network, s.config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          mergePackets(s));
}
// No 100k row: the linear scan is quadratic-ish in wall clock there
// (100k sessions x 1M packets); the 10k rows already pin the ratio.
BENCHMARK(BM_ClosedLoopMergeReference)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// The BM_ClosedLoopFluid* pair measures the fluid fast-forward engine on
// the steady-fluid catalog preset (born-absorbing sessions, amply
// provisioned backbone): the fluid engine certifies the run drop-free
// and accounts every packet in closed form — O(state changes) — while
// the per-packet baseline executes all sessions x 8 packets/time-unit x
// duration of them. Items processed counts the packets covered either
// way, so items/sec is directly comparable.
sim::Scenario steadyScenario(std::size_t sessions) {
  const sim::ScenarioSpec* base = sim::findScenario("steady-fluid");
  MCFAIR_REQUIRE(base != nullptr,
                 "steady-fluid preset missing from catalog");
  sim::ScenarioSpec spec = *base;
  spec.sessions = sessions;
  return sim::buildScenario(spec);
}

std::int64_t steadyPackets(const sim::Scenario& s) {
  // Aggregate rate 8 per session (4 exponential layers) over the horizon.
  return static_cast<std::int64_t>(s.network.sessionCount()) *
         static_cast<std::int64_t>(8.0 * s.config.duration);
}

void BM_ClosedLoopFluid(benchmark::State& state) {
  const auto s = steadyScenario(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::runClosedLoopSimulationFluid(s.network, s.config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          steadyPackets(s));
}
BENCHMARK(BM_ClosedLoopFluid)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_ClosedLoopFluidEventBaseline(benchmark::State& state) {
  auto s = steadyScenario(static_cast<std::size_t>(state.range(0)));
  s.config.fluidFastForward = false;  // force per-packet execution
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::runClosedLoopSimulation(s.network, s.config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          steadyPackets(s));
}
// No 1M row: at ~10^6 packets/s the per-packet engine would need ~5
// minutes for the 320M packets the fluid engine closes out in seconds;
// the 100k rows already pin the ratio.
BENCHMARK(BM_ClosedLoopFluidEventBaseline)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Catalog sweep: one row per named preset (downscaled horizon), so a
// regression in any scenario family — churn + fair epochs, bursty loss,
// heterogeneous mixes — shows up in the bench log.
void BM_ScenarioCatalog(benchmark::State& state) {
  const auto& catalog = sim::scenarioCatalog();
  const auto idx = static_cast<std::size_t>(state.range(0));
  if (idx >= catalog.size()) {
    state.SkipWithError("catalog index out of range");
    return;
  }
  sim::ScenarioSpec spec = catalog[idx];
  spec.sessions = std::min<std::size_t>(spec.sessions, 16);
  spec.duration = std::min(spec.duration, 500.0);
  spec.warmup = std::min(spec.warmup, spec.duration / 4.0);
  spec.arrivalWindow = std::min(spec.arrivalWindow, spec.duration / 2.0);
  const auto s = sim::buildScenario(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::runScenario(s));
  }
  state.SetLabel(spec.name);
}
// Registered from the catalog size so a new preset gets its row
// automatically (the in-function guard covers only shrinkage).
BENCHMARK(BM_ScenarioCatalog)
    ->DenseRange(0, static_cast<int>(sim::scenarioCatalog().size()) - 1);

// Fault-path cost in the event engine: a dense seeded MTBF/MTTR
// schedule churns every link of the mega-merge population, and each
// event triggers the capacity refresh + incremental re-solve +
// accumulator flush. Items = fault events absorbed, so items/sec tracks
// the O(affected) fault path, not the packet loop around it.
void BM_FaultChurn(benchmark::State& state) {
  auto s = mergeScenario(static_cast<std::size_t>(state.range(0)));
  net::RandomFaultOptions opts;
  // Scale MTBF with the link count so the total event count stays
  // roughly constant (~2000) across population sizes.
  opts.mtbf = static_cast<double>(s.network.linkCount()) *
              s.config.duration / 1000.0;
  opts.mttr = opts.mtbf / 8.0;
  opts.degradeFactor = 0.5;
  s.config.faults = net::randomFaultSchedule(s.network.linkCount(),
                                             s.config.duration, opts, 9);
  MCFAIR_REQUIRE(!s.config.faults.events.empty(),
                 "churn schedule came out empty");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::runClosedLoopSimulation(s.network, s.config));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(s.config.faults.events.size()));
}
BENCHMARK(BM_FaultChurn)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Fluid hand-back cost: mild degrade/repair flaps on a certified
// steady-fluid run. Capacity stays ample through every event, so the
// engine re-certifies immediately after each fault — every event costs
// exactly one hand-back (token-bucket reconstruction, sender resync,
// queue re-seed) plus one re-engagement. Items = fault events, so
// items/sec is the price of a hand-back at this population size.
void BM_FluidHandback(benchmark::State& state) {
  auto s = steadyScenario(4096);
  const auto flaps = static_cast<std::size_t>(state.range(0));
  const graph::LinkId victim =
      s.network.session(0).receivers[0].dataPath.front();
  const double begin = s.config.duration / 4.0;
  const double spacing = (s.config.duration / 2.0) /
                         static_cast<double>(flaps);
  s.config.faults.events.reserve(2 * flaps);
  for (std::size_t f = 0; f < flaps; ++f) {
    const double t = begin + static_cast<double>(f) * spacing;
    s.config.faults.events.push_back(
        {t, net::FaultKind::kDegrade, victim, 0.9});
    s.config.faults.events.push_back(
        {t + 0.5 * spacing, net::FaultKind::kLinkUp, victim});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::runClosedLoopSimulationFluid(s.network, s.config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * flaps));
}
BENCHMARK(BM_FluidHandback)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Component-parallel engine on the sharded-bottlenecks preset (64
// disjoint bottleneck groups -> 64 independent components). The second
// arg is the thread count: 0 runs the serial event engine on the same
// scenario as the baseline row, T >= 1 runs the partitioned engine with
// engineThreads=T (T=1 measures pure partition/lane overhead). On a
// 1-CPU container the threaded rows measure coordination overhead, not
// speedup — see docs/BENCHMARKS.md. Items = sessions per run.
sim::Scenario shardedScenario(std::size_t sessions) {
  const sim::ScenarioSpec* base = sim::findScenario("sharded-bottlenecks");
  MCFAIR_REQUIRE(base != nullptr,
                 "sharded-bottlenecks preset missing from catalog");
  sim::ScenarioSpec spec = *base;
  spec.sessions = sessions;
  return sim::buildScenario(spec);
}

void BM_ClosedLoopParallel(benchmark::State& state) {
  auto s = shardedScenario(static_cast<std::size_t>(state.range(0)));
  const auto threads = static_cast<int>(state.range(1));
  if (threads == 0) {
    s.config.engineThreads = 1;  // serial event-engine baseline row
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          sim::runClosedLoopSimulation(s.network, s.config));
    }
  } else {
    s.config.engineThreads = threads;
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          sim::runClosedLoopSimulationParallel(s.network, s.config));
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(s.network.sessionCount()));
}
BENCHMARK(BM_ClosedLoopParallel)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({1000, 4})
    ->Args({1000, 8})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 8})
    ->Unit(benchmark::kMillisecond);

// Batched serial engine on the mega-merge preset — the single-dominant-
// component population the component-parallel lanes cannot split, and
// the shape runClosedLoopSimulation dispatches to it (at 256+ sessions,
// at every thread count). Compare against BM_ClosedLoopMergeEvent/N, the
// heap engine on the same scenario. Items = packets merged per run.
void BM_ClosedLoopBatched(benchmark::State& state) {
  const auto s = mergeScenario(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::runClosedLoopSimulationBatched(s.network, s.config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          mergePackets(s));
}
BENCHMARK(BM_ClosedLoopBatched)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Cold partition cost: union-find over every session's routed link
// union plus the CSR component index, on a fresh partitioner each
// iteration (the engine itself pays this once per network structure —
// partitionRebuilds is pinned at 1 by the zero-alloc suite). Items =
// sessions unioned.
void BM_Partition(benchmark::State& state) {
  const auto s = shardedScenario(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sim::SessionPartitioner partitioner;
    benchmark::DoNotOptimize(partitioner.ensure(s.network).componentCount);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(s.network.sessionCount()));
}
BENCHMARK(BM_Partition)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Routing-layer cost: building per-source shortest-path trees (weighted
// Dijkstra with the deterministic tie-break) on a BA m=2 mesh. Each
// iteration builds a fresh plan and routes from 16 spread-out sources,
// so items/sec tracks the O(E log V)-per-source construction itself,
// not the cache.
void BM_RoutePlan(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  const graph::Graph g = graph::scaleFreeGraph(rng, {nodes, 2, 1.0});
  std::vector<double> weights;
  weights.reserve(g.linkCount());
  for (std::uint32_t l = 0; l < g.linkCount(); ++l) {
    weights.push_back(rng.uniform(1.0, 2.0));
  }
  constexpr std::size_t kSources = 16;
  for (auto _ : state) {
    graph::RoutePlan plan(
        g, graph::RouteOptions{graph::RoutePolicy::kWeighted, weights});
    for (std::size_t s = 0; s < kSources; ++s) {
      plan.ensureSource(graph::NodeId{
          static_cast<std::uint32_t>(s * nodes / kSources)});
    }
    benchmark::DoNotOptimize(plan.builtSourceCount());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSources));
}
BENCHMARK(BM_RoutePlan)
    ->Arg(1024)
    ->Arg(8192)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

// Mesh-scenario expansion vs the tree baseline at matching population
// sizes (sessions x 2 receivers; 50000 -> a 100k-receiver mesh). The
// mesh row routes every receiver through the RoutePlan and provisions
// capacities from routed loads; the baseline row is the kScaleFreeTree
// topology whose paths are forced root paths. Items = receivers placed.
void BM_ScenarioMesh(benchmark::State& state) {
  const sim::ScenarioSpec* base = sim::findScenario("meshed-backbone");
  MCFAIR_REQUIRE(base != nullptr,
                 "meshed-backbone preset missing from catalog");
  sim::ScenarioSpec spec = *base;
  spec.sessions = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::buildScenario(spec));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(spec.sessions * spec.receiversPerSession));
}
BENCHMARK(BM_ScenarioMesh)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioMeshTreeBaseline(benchmark::State& state) {
  const sim::ScenarioSpec* base = sim::findScenario("scale-free-backbone");
  MCFAIR_REQUIRE(base != nullptr,
                 "scale-free-backbone preset missing from catalog");
  sim::ScenarioSpec spec = *base;
  spec.sessions = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::buildScenario(spec));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(spec.sessions * spec.receiversPerSession));
}
BENCHMARK(BM_ScenarioMeshTreeBaseline)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_StarSimulation(benchmark::State& state) {
  sim::StarConfig c;
  c.receivers = static_cast<std::size_t>(state.range(0));
  c.layers = 8;
  c.protocol = sim::ProtocolKind::kCoordinated;
  c.sharedLossRate = 0.0001;
  c.independentLossRate = 0.04;
  c.totalPackets = 100000;
  for (auto _ : state) {
    c.seed++;
    benchmark::DoNotOptimize(sim::runStarSimulation(c));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.totalPackets));
}
BENCHMARK(BM_StarSimulation)->Arg(2)->Arg(10)->Arg(100);

void BM_StarByProtocol(benchmark::State& state) {
  sim::StarConfig c;
  c.receivers = 100;
  c.layers = 8;
  c.protocol = static_cast<sim::ProtocolKind>(state.range(0));
  c.sharedLossRate = 0.0001;
  c.independentLossRate = 0.04;
  c.totalPackets = 100000;
  for (auto _ : state) {
    c.seed++;
    benchmark::DoNotOptimize(sim::runStarSimulation(c));
  }
}
BENCHMARK(BM_StarByProtocol)->Arg(0)->Arg(1)->Arg(2);

void BM_MarkovUncoordinated(benchmark::State& state) {
  markov::ProtocolChainConfig c;
  c.layers = static_cast<std::size_t>(state.range(0));
  c.protocol = sim::ProtocolKind::kUncoordinated;
  c.sharedLoss = 0.001;
  c.receiverLoss = {0.03, 0.05};
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::analyzeProtocolChain(c));
  }
}
BENCHMARK(BM_MarkovUncoordinated)->Arg(4)->Arg(6)->Arg(8);

void BM_MarkovDeterministic(benchmark::State& state) {
  markov::ProtocolChainConfig c;
  c.layers = static_cast<std::size_t>(state.range(0));
  c.protocol = sim::ProtocolKind::kDeterministic;
  c.sharedLoss = 0.001;
  c.receiverLoss = {0.03, 0.05};
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::analyzeProtocolChain(c));
  }
}
BENCHMARK(BM_MarkovDeterministic)->Arg(2)->Arg(3);

}  // namespace
