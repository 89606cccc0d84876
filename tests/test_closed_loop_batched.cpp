// Tests for the batched serial closed-loop engine and the dispatch rule
// in runClosedLoopSimulation: fluid on → heap + fluid; one component
// holding at least half the sessions and at least 256 of them → batched
// (at every thread count); more than one thread → component lanes;
// otherwise the heap. Also pins bit-identity of the direct batched entry
// across window boundaries, and that the lane pool never has more
// executors than there are components. The broad randomized parity grid
// lives in test_engine_parity_fuzz.cpp; this file pins the deliberate,
// named behaviours.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include "net/network.hpp"
#include "net/topologies.hpp"
#include "sim/closed_loop.hpp"
#include "sim/loss.hpp"
#include "sim/scenario.hpp"

namespace mcfair::sim {
namespace {

// Full trajectory comparison — EXPECT_EQ on every observable field the
// engines promise to reproduce bit-identically.
void expectSame(const ClosedLoopResult& got, const ClosedLoopResult& want,
                const std::string& label) {
  EXPECT_EQ(got.measuredRate, want.measuredRate) << label;
  EXPECT_EQ(got.linkThroughput, want.linkThroughput) << label;
  EXPECT_EQ(got.linkDropRate, want.linkDropRate) << label;
  EXPECT_EQ(got.sessionLinkRate, want.sessionLinkRate) << label;
  EXPECT_EQ(got.meanLevel, want.meanLevel) << label;
  EXPECT_EQ(got.binRates, want.binRates) << label;
}

Scenario presetScenario(const char* name, std::size_t sessions) {
  const ScenarioSpec* base = findScenario(name);
  EXPECT_NE(base, nullptr) << name;
  ScenarioSpec spec = *base;
  spec.sessions = sessions;
  return buildScenario(spec);
}

ClosedLoopResult referenceRun(const Scenario& s) {
  return runClosedLoopSimulationReference(s.network, s.config);
}

TEST(ClosedLoopBatched, DirectEntryMatchesReference) {
  // The direct entry runs batched whatever the shape; steady-fluid is
  // run per packet here (the fluid flag only steers the dispatch).
  for (const char* preset : {"mega-merge", "steady-fluid"}) {
    const Scenario s = presetScenario(preset, 300);
    const auto r = runClosedLoopSimulationBatched(s.network, s.config);
    expectSame(r, referenceRun(s), preset);
    EXPECT_EQ(r.speculationEpochs, 1u) << preset;
    EXPECT_EQ(r.speculationRollbacks, 0u) << preset;
    EXPECT_EQ(r.fluidPackets, 0u) << preset;
  }
}

TEST(ClosedLoopBatched, MultiWindowRunsMatchTheHeap) {
  // 300 mega-merge sessions over 1000 time units emit ~300k packets,
  // past the 262144-packet window budget: at least two windows, and the
  // packets on both sides of the boundary must replay the heap exactly.
  // Forced lanes at one thread are the heap loop on the one component.
  Scenario mega = presetScenario("mega-merge", 300);
  mega.config.duration = 1000.0;
  mega.config.warmup = 100.0;
  mega.config.engineThreads = 1;
  const auto megaBatched =
      runClosedLoopSimulationBatched(mega.network, mega.config);
  EXPECT_GE(megaBatched.speculationEpochs, 2u);
  expectSame(megaBatched,
             runClosedLoopSimulationParallel(mega.network, mega.config),
             "mega-merge x1000");

  // steady-bottleneck: 8 Coordinated sessions of 8 layers (~4M packets,
  // many windows) whose receivers join and leave across every window
  // boundary. Below the floor, so the default entry is the heap.
  Scenario steady = presetScenario("steady-bottleneck", 8);
  steady.config.engineThreads = 1;
  const auto steadyBatched =
      runClosedLoopSimulationBatched(steady.network, steady.config);
  EXPECT_GE(steadyBatched.speculationEpochs, 8u);
  const auto heap = runClosedLoopSimulation(steady.network, steady.config);
  EXPECT_EQ(heap.speculationEpochs, 0u);
  expectSame(steadyBatched, heap, "steady-bottleneck");
}

TEST(ClosedLoopBatched, DispatchesAboveTheFloorAtEveryThreadCount) {
  // 300 single-component sessions clear the 256-session floor: the
  // default entry must run batched at 1 thread and at N, bit-identical.
  const Scenario s = presetScenario("mega-merge", 300);
  const auto reference = referenceRun(s);
  for (const int threads : {1, 2, 4, 8}) {
    ClosedLoopConfig c = s.config;
    c.engineThreads = threads;
    const auto r = runClosedLoopSimulation(s.network, c);
    const std::string label = "dispatch T=" + std::to_string(threads);
    expectSame(r, reference, label);
    EXPECT_EQ(r.engineComponents, 1u) << label;
    EXPECT_GE(r.speculationEpochs, 1u)
        << label << ": mega-merge above the floor must run batched";
  }
}

TEST(ClosedLoopBatched, DispatchRespectsThePopulationFloor) {
  // 200 sessions sit below the floor: the heap (1 thread) or the lanes
  // (4 threads) run instead.
  const Scenario s = presetScenario("mega-merge", 200);
  const auto reference = referenceRun(s);
  for (const int threads : {1, 4}) {
    ClosedLoopConfig c = s.config;
    c.engineThreads = threads;
    const auto r = runClosedLoopSimulation(s.network, c);
    expectSame(r, reference, "below-floor T=" + std::to_string(threads));
    EXPECT_EQ(r.speculationEpochs, 0u)
        << "below the floor the batched engine must not run";
  }
}

// `big` single-layer unicast sessions share one link (one component);
// `solo` more each cross a private link (one component apiece).
net::Network bigPlusSolos(std::size_t big, std::size_t solo) {
  net::Network n;
  const auto shared = n.addLink(0.5 * static_cast<double>(big));
  for (std::size_t i = 0; i < big; ++i) {
    n.addSession(net::makeUnicastSession({shared}));
  }
  for (std::size_t i = 0; i < solo; ++i) {
    n.addSession(net::makeUnicastSession({n.addLink(2.0)}));
  }
  return n;
}

ClosedLoopConfig singleLayerConfig(const net::Network& n, int threads) {
  ClosedLoopConfig c;
  c.sessions.assign(n.sessionCount(),
                    ClosedLoopSessionConfig{ProtocolKind::kDeterministic, 1, 1});
  c.duration = 10.0;
  c.warmup = 2.0;
  c.engineThreads = threads;
  return c;
}

TEST(ClosedLoopBatched, DispatchNeedsAMajorityComponent) {
  // A 300-session component clears the floor, but it must also hold at
  // least half the population: with 400 singleton components beside it
  // the lanes run; with 250 it dominates and the batched engine runs.
  for (const std::size_t solos : {std::size_t{400}, std::size_t{250}}) {
    const net::Network n = bigPlusSolos(300, solos);
    const ClosedLoopConfig c = singleLayerConfig(n, 4);
    const auto r = runClosedLoopSimulation(n, c);
    const std::string label = "300 + " + std::to_string(solos);
    expectSame(r, runClosedLoopSimulationReference(n, c), label);
    EXPECT_EQ(r.engineComponents, solos + 1) << label;
    if (solos == 400) {
      EXPECT_EQ(r.speculationEpochs, 0u) << label << ": no majority";
    } else {
      EXPECT_GE(r.speculationEpochs, 1u) << label << ": majority";
    }
  }
}

TEST(ClosedLoopBatched, MultiComponentPopulationsStayOnLanes) {
  // sharded-bottlenecks splits 512 sessions across 64 disjoint
  // components — no component dominates, so the per-component lanes
  // remain the right engine even though the total population is large.
  const Scenario s = presetScenario("sharded-bottlenecks", 512);
  ClosedLoopConfig c = s.config;
  c.engineThreads = 4;
  const auto r = runClosedLoopSimulation(s.network, c);
  EXPECT_GT(r.engineComponents, 1u);
  EXPECT_EQ(r.speculationEpochs, 0u)
      << "multi-component populations must not run batched";
}

TEST(ClosedLoopBatched, FluidTakesPrecedenceOverBatching) {
  // steady-fluid at 300 sessions clears the floor, but the preset arms
  // the fluid fast-forward, which only the heap engine carries.
  const Scenario s = presetScenario("steady-fluid", 300);
  ASSERT_TRUE(s.config.fluidFastForward);
  const auto r = runClosedLoopSimulation(s.network, s.config);
  expectSame(r, referenceRun(s), "steady-fluid");
  EXPECT_EQ(r.speculationEpochs, 0u);
  EXPECT_GT(r.fluidPackets, 0u);
}

// This process's thread count: one /proc/self/task entry per thread
// (0 where the directory does not exist).
std::size_t processThreads() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

// A lossless loss model that records the process's thread count on its
// first draw — a probe that runs inside a lane while the pool is alive.
class ThreadProbeLoss final : public LossModel {
 public:
  explicit ThreadProbeLoss(std::atomic<std::size_t>* peak) : peak_(peak) {}
  bool lose(util::Rng&) override {
    if (!sampled_) {
      sampled_ = true;
      const std::size_t now = processThreads();
      std::size_t seen = peak_->load();
      while (seen < now && !peak_->compare_exchange_weak(seen, now)) {
      }
    }
    return false;
  }
  double averageLossRate() const noexcept override { return 0.0; }

 private:
  std::atomic<std::size_t>* peak_;
  bool sampled_ = false;
};

TEST(ClosedLoopBatched, LanePoolNeverExceedsTheComponentCount) {
  // 8 requested threads over 1 and 2 components: the pool must spawn no
  // worker for one component and at most one for two. Outputs do not
  // depend on the pool size, so only the thread count can show it.
  const std::size_t baseline = processThreads();
  if (baseline == 0) GTEST_SKIP() << "no /proc/self/task on this system";
  for (const std::size_t components : {std::size_t{1}, std::size_t{2}}) {
    const net::Network n = bigPlusSolos(4, components - 1);
    ClosedLoopConfig c = singleLayerConfig(n, 8);
    std::atomic<std::size_t> peak{0};
    c.linkLoss = [&peak](graph::LinkId) {
      return std::make_unique<ThreadProbeLoss>(&peak);
    };
    const auto r = runClosedLoopSimulationParallel(n, c);
    EXPECT_EQ(r.engineComponents, components);
    EXPECT_GE(peak.load(), baseline);
    EXPECT_LE(peak.load(), baseline + components - 1)
        << components << " component(s) at 8 threads";
  }
}

}  // namespace
}  // namespace mcfair::sim
