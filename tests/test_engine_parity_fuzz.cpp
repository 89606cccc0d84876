// Randomized cross-engine parity fuzz: a seeded generator sweeps
// topology family x protocol mix x loss model x fault preset x thread
// count and asserts that all five closed-loop drivers — reference
// linear-scan, event-driven (heap), fluid fast-forward, component-parallel
// (at 1/2/4/8 threads), and batched serial — produce EXACTLY the same
// results (EXPECT_EQ on every trajectory field; fair epochs on a subset).
// The engines share one per-packet core, so the fuzz surface is precisely
// the code that differs: merge order, fluid certificates and hand-backs,
// session partitioning, lane fault sub-schedules, per-lane scratch, and
// the batched window generation, sort and per-packet fault rule.
// Every case is a fixed function of its seed — a failure reproduces
// from the seed printed in the assertion label.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "net/network.hpp"
#include "net/topologies.hpp"
#include "sim/closed_loop.hpp"
#include "sim/loss.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace mcfair::sim {
namespace {

void expectIdentical(const ClosedLoopResult& a, const ClosedLoopResult& b,
                     const std::string& label) {
  EXPECT_EQ(a.measuredRate, b.measuredRate) << label;
  EXPECT_EQ(a.linkThroughput, b.linkThroughput) << label;
  EXPECT_EQ(a.linkDropRate, b.linkDropRate) << label;
  EXPECT_EQ(a.sessionLinkRate, b.sessionLinkRate) << label;
  EXPECT_EQ(a.meanLevel, b.meanLevel) << label;
  EXPECT_EQ(a.binRates, b.binRates) << label;
  ASSERT_EQ(a.fairEpochs.size(), b.fairEpochs.size()) << label;
  for (std::size_t e = 0; e < a.fairEpochs.size(); ++e) {
    EXPECT_EQ(a.fairEpochs[e].begin, b.fairEpochs[e].begin) << label;
    EXPECT_EQ(a.fairEpochs[e].end, b.fairEpochs[e].end) << label;
    EXPECT_EQ(a.fairEpochs[e].sessions, b.fairEpochs[e].sessions) << label;
    EXPECT_EQ(a.fairEpochs[e].fairRate, b.fairEpochs[e].fairRate) << label;
  }
}

// One fuzz case: a network + config pair, fully derived from the seed.
struct FuzzCase {
  std::string label;
  net::Network network;
  ClosedLoopConfig config;
};

constexpr ProtocolKind kKinds[] = {ProtocolKind::kCoordinated,
                                   ProtocolKind::kUncoordinated,
                                   ProtocolKind::kDeterministic};

// Randomized per-session protocol mix, layer counts, and lifetime churn.
void fuzzSessions(util::Rng& rng, std::size_t nSessions,
                  ClosedLoopConfig& c) {
  c.sessions.clear();
  for (std::size_t i = 0; i < nSessions; ++i) {
    ClosedLoopSessionConfig sc;
    sc.protocol = kKinds[rng.below(3)];
    sc.layers = 2 + rng.below(4);
    sc.initialLevel = 1 + rng.below(sc.layers);
    if (rng.bernoulli(0.35)) {
      sc.startTime = rng.uniform(0.0, 60.0);
      sc.stopTime = sc.startTime + rng.uniform(40.0, 120.0);
    }
    c.sessions.push_back(sc);
  }
}

// Randomized loss model family: none / Bernoulli / Gilbert-Elliott,
// mixed per link when both are in play.
void fuzzLoss(util::Rng& rng, ClosedLoopConfig& c) {
  const std::size_t kind = rng.below(3);
  if (kind == 0) return;
  const double p = rng.uniform(0.01, 0.08);
  if (kind == 1) {
    c.linkLoss = [p](graph::LinkId) -> std::unique_ptr<LossModel> {
      return std::make_unique<BernoulliLoss>(p);
    };
  } else {
    c.linkLoss = [p](graph::LinkId l) -> std::unique_ptr<LossModel> {
      if (l.value % 2 == 0) {
        return std::make_unique<GilbertElliottLoss>(0.04, 0.5, 0.005,
                                                    5.0 * p);
      }
      return std::make_unique<BernoulliLoss>(p);
    };
  }
}

// Randomized fault preset on links sessions actually cross: none, a
// down -> repair flap, or a degrade staircase — plus boundary events at
// t = 0 and beyond the horizon now and then.
void fuzzFaults(util::Rng& rng, const net::Network& n,
                ClosedLoopConfig& c) {
  const std::size_t kind = rng.below(3);
  if (kind == 0) return;
  const auto victimOf = [&](std::size_t session) {
    const auto& receivers = n.session(session % n.sessionCount()).receivers;
    const auto& path = receivers[rng.below(receivers.size())].dataPath;
    return path[rng.below(path.size())];
  };
  const graph::LinkId a = victimOf(rng.below(n.sessionCount()));
  const graph::LinkId b = victimOf(rng.below(n.sessionCount()));
  const double t0 = rng.uniform(30.0, 80.0);
  if (kind == 1) {
    c.faults.events = {
        {t0, net::FaultKind::kLinkDown, a},
        {t0 + rng.uniform(10.0, 40.0), net::FaultKind::kLinkUp, a},
    };
  } else {
    c.faults.events = {
        {t0, net::FaultKind::kDegrade, a, rng.uniform(0.2, 0.7)},
        {t0 + 15.0, net::FaultKind::kDegrade, b, 0.5},
        {t0 + rng.uniform(30.0, 60.0), net::FaultKind::kLinkUp, a},
        {t0 + 90.0, net::FaultKind::kLinkUp, b},
    };
  }
  if (rng.bernoulli(0.25)) {
    c.faults.events.push_back({0.0, net::FaultKind::kDegrade, b, 0.8});
  }
  if (rng.bernoulli(0.25)) {
    c.faults.events.push_back(
        {c.duration + 50.0, net::FaultKind::kLinkDown, a});
  }
}

// Builds the seed's case: topology family rotates through disjoint
// shared bottlenecks, hand-wired multicast components, random routed
// meshes (BA m=2 and Waxman — cycles, so the routing layer picks the
// trees), the scale-free tree, and unstructured random networks.
FuzzCase buildCase(std::uint64_t seed) {
  util::Rng rng(seed * 1000003 + 17);
  FuzzCase fc;
  fc.label = "fuzz seed " + std::to_string(seed);
  fc.config.duration = 120.0 + rng.uniform(0.0, 60.0);
  fc.config.warmup = rng.bernoulli(0.5) ? 20.0 : 0.0;
  if (rng.bernoulli(0.5)) fc.config.rateBinWidth = rng.uniform(15.0, 45.0);
  fc.config.seed = seed * 31 + 7;
  fc.config.computeFairEpochs = seed % 4 == 0;

  switch (seed % 5) {
    case 0: {
      // Disjoint shared bottlenecks via the scenario engine.
      ScenarioSpec spec;
      spec.name = "fuzz-sharded";
      spec.sessions = 4 + rng.below(5);
      spec.bottleneckGroups = 1 + rng.below(4);
      spec.backbonePerSession = rng.uniform(0.8, 3.0);
      spec.duration = fc.config.duration;
      spec.warmup = fc.config.warmup;
      spec.seed = seed;
      Scenario s = buildScenario(spec);
      fc.network = std::move(s.network);
      break;
    }
    case 1: {
      // Hand-wired multi-component multicast: per component one shared
      // bottleneck with private tails.
      const std::size_t comps = 2 + rng.below(3);
      for (std::size_t k = 0; k < comps; ++k) {
        const auto shared = fc.network.addLink(rng.uniform(4.0, 10.0));
        const auto tailA = fc.network.addLink(rng.uniform(2.0, 8.0));
        const auto tailB = fc.network.addLink(rng.uniform(2.0, 8.0));
        net::Session multicast;
        multicast.receivers.push_back(net::makeReceiver({shared, tailA}));
        multicast.receivers.push_back(net::makeReceiver({shared, tailB}));
        fc.network.addSession(std::move(multicast));
        fc.network.addSession(net::makeUnicastSession({shared, tailB}));
      }
      break;
    }
    case 2: {
      // Routed BA m=2 mesh (cycles: paths come from the routing layer).
      ScenarioSpec spec;
      spec.name = "fuzz-mesh";
      spec.sessions = 4 + rng.below(4);
      spec.receiversPerSession = 1 + rng.below(2);
      spec.topology = ScenarioSpec::Topology::kScaleFreeGraph;
      spec.backboneNodes = 12 + rng.below(8);
      spec.meshEdgesPerNode = 2;
      spec.backbonePerSession = rng.uniform(1.5, 4.0);
      spec.duration = fc.config.duration;
      spec.warmup = fc.config.warmup;
      spec.seed = seed;
      Scenario s = buildScenario(spec);
      fc.network = std::move(s.network);
      break;
    }
    case 3: {
      // Waxman mesh with heterogeneous private tails.
      ScenarioSpec spec;
      spec.name = "fuzz-waxman";
      spec.sessions = 4 + rng.below(4);
      spec.receiversPerSession = 1 + rng.below(2);
      spec.topology = ScenarioSpec::Topology::kWaxman;
      spec.backboneNodes = 14 + rng.below(8);
      spec.tailCapacityMin = 1.0;
      spec.tailCapacityMax = 8.0;
      spec.duration = fc.config.duration;
      spec.warmup = fc.config.warmup;
      spec.seed = seed;
      Scenario s = buildScenario(spec);
      fc.network = std::move(s.network);
      break;
    }
    default: {
      // Unstructured random multicast network.
      net::RandomNetworkOptions opts;
      opts.sessions = 2 + rng.below(5);
      opts.maxReceiversPerSession = 3;
      fc.network = net::randomNetwork(rng, opts);
      break;
    }
  }

  fuzzSessions(rng, fc.network.sessionCount(), fc.config);
  fuzzLoss(rng, fc.config);
  fuzzFaults(rng, fc.network, fc.config);
  return fc;
}

TEST(EngineParityFuzz, AllFiveEnginesAgreeAcrossTheGrid) {
  constexpr std::uint64_t kCases = 36;
  std::size_t multiComponent = 0;
  std::size_t withFaults = 0;
  std::size_t withLoss = 0;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    const FuzzCase fc = buildCase(seed);
    if (!fc.config.faults.events.empty()) ++withFaults;
    if (fc.config.linkLoss) ++withLoss;

    ClosedLoopConfig serial = fc.config;
    serial.engineThreads = 1;  // immune to MCFAIR_SIM_THREADS in the env
    const auto reference =
        runClosedLoopSimulationReference(fc.network, serial);
    expectIdentical(runClosedLoopSimulation(fc.network, serial), reference,
                    fc.label + " [event]");
    expectIdentical(runClosedLoopSimulationFluid(fc.network, serial),
                    reference, fc.label + " [fluid]");
    // Fifth column: the batched engine (serial, so no thread axis).
    const auto batched = runClosedLoopSimulationBatched(fc.network, serial);
    expectIdentical(batched, reference, fc.label + " [batched]");
    EXPECT_GE(batched.speculationEpochs, 1u) << fc.label;
    EXPECT_EQ(batched.speculationRollbacks, 0u) << fc.label;
    for (const int threads : {1, 2, 4, 8}) {
      ClosedLoopConfig pc = fc.config;
      pc.engineThreads = threads;
      const auto parallel =
          runClosedLoopSimulationParallel(fc.network, pc);
      expectIdentical(parallel, reference,
                      fc.label + " [parallel T=" + std::to_string(threads) +
                          "]");
      EXPECT_EQ(parallel.partitionRebuilds, 1u) << fc.label;
      if (threads == 8 && parallel.engineComponents > 1) ++multiComponent;
    }
    if (HasFatalFailure()) break;  // one seed's dump is enough
  }
  // The grid must actually exercise the interesting axes, not dodge
  // them: multi-component partitions, fault schedules and loss models
  // all have to appear.
  EXPECT_GE(multiComponent, 5u);
  EXPECT_GE(withFaults, 10u);
  EXPECT_GE(withLoss, 10u);
}

// Mega-merge-shaped cases: one component holding the whole population,
// above the 256-session batched dispatch floor. The default entry must
// dispatch to the batched engine at every thread count (speculationEpochs
// >= 1 proves it) and agree with the reference; the direct batched entry
// and the forced component lanes must agree too. Single-layer populations
// are the catalog's mega-merge mix; multi-layer mixes add joins and
// leaves inside the big component.
TEST(EngineParityFuzz, MegaMergeBatchedDispatchAgrees) {
  std::size_t dispatched = 0;
  for (std::uint64_t seed = 101; seed <= 106; ++seed) {
    util::Rng rng(seed * 7919 + 3);
    ScenarioSpec spec;
    spec.name = "fuzz-mega";
    spec.sessions = 256 + rng.below(64);
    spec.bottleneckGroups = 1;
    spec.backbonePerSession = rng.uniform(0.4, 0.8);
    spec.duration = 6.0;
    spec.warmup = 1.0;
    spec.seed = seed;
    const bool multiLayer = seed % 2 == 0;
    if (!multiLayer) {
      spec.mix = {SessionMix{{ProtocolKind::kDeterministic, 1, 1},
                             net::SessionType::kMultiRate, 1.0}};
    }
    Scenario s = buildScenario(spec);
    if (multiLayer) {
      fuzzSessions(rng, s.network.sessionCount(), s.config);
      for (auto& sess : s.config.sessions) {
        // Keep every session alive for the whole (short) horizon; the
        // churn times fuzzSessions draws suit the long-duration grid.
        sess.startTime = 0.0;
        sess.stopTime = std::numeric_limits<double>::infinity();
      }
    }
    const std::string label = "mega seed " + std::to_string(seed);
    ClosedLoopConfig serial = s.config;
    serial.engineThreads = 1;
    const auto reference =
        runClosedLoopSimulationReference(s.network, serial);
    expectIdentical(runClosedLoopSimulationBatched(s.network, serial),
                    reference, label + " [batched]");
    for (const int threads : {1, 2, 4, 8}) {
      ClosedLoopConfig c = s.config;
      c.engineThreads = threads;
      const auto dispatch = runClosedLoopSimulation(s.network, c);
      expectIdentical(dispatch, reference,
                      label + " [dispatch T=" + std::to_string(threads) +
                          "]");
      EXPECT_EQ(dispatch.engineComponents, 1u) << label;
      EXPECT_GE(dispatch.speculationEpochs, 1u)
          << label << " expected the mega-merge dispatch to engage";
      if (dispatch.speculationEpochs >= 1) ++dispatched;

      const auto lanes = runClosedLoopSimulationParallel(s.network, c);
      expectIdentical(lanes, reference,
                      label + " [lanes T=" + std::to_string(threads) + "]");
      EXPECT_EQ(lanes.speculationEpochs, 0u) << label;
    }
    if (HasFatalFailure()) break;
  }
  EXPECT_EQ(dispatched, 24u);  // 6 seeds x {1,2,4,8}
}

}  // namespace
}  // namespace mcfair::sim
