// Absolute output anchors for the closed-loop drivers: one FNV-1a digest
// per scenario-catalog preset at a fixed seed, over the raw IEEE-754 bits
// of every measured rate, link throughput, link drop rate, mean level and
// fair epoch. The parity suites compare engines with each other and with
// the reference driver, which shares SimCore, the token buckets and the
// receiver state machines with them; a change to that shared code moves
// every engine together and passes them all. These digests do not move
// with the code: an intended output change must update them in the same
// change, with the reason recorded.
//
// Each preset is pinned for the reference driver and for the default
// dispatch (runClosedLoopSimulation) at 1 and 4 engine threads, so every
// engine the dispatch can pick — heap, heap + fluid, batched, component
// lanes — is held to the same bits. The two 10k-session presets are cut
// to 300 sessions so the O(sessions)-per-packet reference stays fast;
// 300 single-component mega-merge sessions still clear the batched
// dispatch floor.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/snapshot.hpp"
#include "sim/closed_loop.hpp"
#include "sim/scenario.hpp"

namespace mcfair::sim {
namespace {

using net::snapshotio::fnv1a;
using net::snapshotio::putF64;
using net::snapshotio::putU64;

void putVector(std::string& bytes, const std::vector<double>& v) {
  putU64(bytes, v.size());
  for (const double x : v) putF64(bytes, x);
}

void putMatrix(std::string& bytes,
               const std::vector<std::vector<double>>& m) {
  putU64(bytes, m.size());
  for (const auto& row : m) putVector(bytes, row);
}

std::uint64_t resultDigest(const ClosedLoopResult& r) {
  std::string bytes;
  putMatrix(bytes, r.measuredRate);
  putVector(bytes, r.linkThroughput);
  putVector(bytes, r.linkDropRate);
  putMatrix(bytes, r.meanLevel);
  putU64(bytes, r.fairEpochs.size());
  for (const FairEpoch& e : r.fairEpochs) {
    putF64(bytes, e.begin);
    putF64(bytes, e.end);
    putU64(bytes, e.sessions.size());
    for (const std::size_t s : e.sessions) putU64(bytes, s);
    putMatrix(bytes, e.fairRate);
  }
  return fnv1a(bytes.data(), bytes.size());
}

struct Pin {
  const char* preset;
  std::size_t sessions;  // 0 = the preset's own population
  std::uint64_t digest;
};

constexpr std::uint64_t kSeed = 7;

const Pin kPins[] = {
    {"steady-bottleneck", 0, 0xbf41387686e29b95ull},
    {"heterogeneous-mix", 0, 0x143fb1034e7348aaull},
    {"flash-crowd", 0, 0x1b281aed2e9064adull},
    {"churn", 0, 0x31d882f4be91a074ull},
    {"lossy-backbone", 0, 0xf822af3e16500ba2ull},
    {"bursty-loss", 0, 0x5df8cc000e0ed2e9ull},
    {"scale-free-backbone", 0, 0xd262e9c677e4a036ull},
    {"steady-fluid", 300, 0x855ffca4f0c41cebull},
    {"mega-merge", 300, 0xa193740709c98dfdull},
    {"sharded-bottlenecks", 0, 0x270e7306bc94b163ull},
    {"meshed-backbone", 0, 0x4907c51983e8ba2aull},
    {"link-flap", 0, 0xa79378ba8ab4c126ull},
    {"backbone-partition", 0, 0x819d2c5ef576fdc5ull},
    {"waxman-regional", 0, 0x489d76dad069c731ull},
};

Scenario pinnedScenario(const Pin& pin) {
  const ScenarioSpec* preset = findScenario(pin.preset);
  EXPECT_NE(preset, nullptr) << pin.preset;
  ScenarioSpec spec = *preset;
  if (pin.sessions != 0) spec.sessions = pin.sessions;
  spec.seed = kSeed;
  return buildScenario(spec);
}

TEST(ClosedLoopGolden, EveryPresetCovered) {
  EXPECT_EQ(std::size(kPins), scenarioCatalog().size());
  for (const ScenarioSpec& spec : scenarioCatalog()) {
    bool pinned = false;
    for (const Pin& pin : kPins) pinned = pinned || spec.name == pin.preset;
    EXPECT_TRUE(pinned) << spec.name << " has no golden digest";
  }
}

TEST(ClosedLoopGolden, ReferenceDigestsArePinned) {
  for (const Pin& pin : kPins) {
    const Scenario s = pinnedScenario(pin);
    const std::uint64_t got =
        resultDigest(runClosedLoopSimulationReference(s.network, s.config));
    EXPECT_EQ(got, pin.digest)
        << pin.preset << " reference digest is 0x" << std::hex << got;
  }
}

TEST(ClosedLoopGolden, DefaultEngineDigestsArePinned) {
  for (const Pin& pin : kPins) {
    Scenario s = pinnedScenario(pin);
    for (const int threads : {1, 4}) {
      s.config.engineThreads = threads;
      const std::uint64_t got =
          resultDigest(runClosedLoopSimulation(s.network, s.config));
      EXPECT_EQ(got, pin.digest) << pin.preset << " at " << threads
                                 << " threads: digest is 0x" << std::hex
                                 << got;
    }
  }
}

}  // namespace
}  // namespace mcfair::sim
