// Tests of the benchmark's own helpers: percentiles under the
// ten-samples-beyond rule, span self time, the thread CPU clock, result
// digests and the determinism of the service script.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "sim/scenario.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;  // n, n-1, ..., 1 (unsorted input)
}

TEST(TailPercentile, ReportsRequestedLevelWithTenSamplesBeyond) {
  const Percentile p = tailPercentile(iota(1000), 0.99);
  EXPECT_EQ(p.level, 0.99);
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_TRUE(p.meetsRule);
  EXPECT_EQ(p.value, 990.0);  // nearest rank ceil(0.99 * 1000)
}

TEST(TailPercentile, StepsDownToTheHighestLevelTheSamplesSupport) {
  // 999 samples leave 9.99 beyond p99, so p90 is the highest allowed.
  const Percentile p = tailPercentile(iota(999), 0.99);
  EXPECT_EQ(p.level, 0.9);
  EXPECT_TRUE(p.meetsRule);
  EXPECT_EQ(p.samples, 999u);
  EXPECT_EQ(p.value, 900.0);  // ceil(0.9 * 999) = 900
  // 100 samples support p90 exactly (ten beyond) but not p99.
  EXPECT_EQ(tailPercentile(iota(100), 0.99).level, 0.9);
  // 99 samples support only the median.
  EXPECT_EQ(tailPercentile(iota(99), 0.99).level, 0.5);
}

TEST(TailPercentile, MedianBelowTwentySamplesIsFlagged) {
  const Percentile p = tailPercentile(iota(19), 0.5);
  EXPECT_EQ(p.level, 0.5);
  EXPECT_FALSE(p.meetsRule);
  EXPECT_EQ(p.value, 10.0);
  EXPECT_TRUE(tailPercentile(iota(20), 0.5).meetsRule);
  const Percentile none = tailPercentile({}, 0.99);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.value, 0.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(HostGate, BaselineIsTheLowestDecile) {
  EXPECT_EQ(hostBaseline(iota(20)), 2.0);  // nearest rank ceil(0.1 * 20)
  EXPECT_EQ(hostBaseline({5.0}), 5.0);
  EXPECT_EQ(hostBaseline({}), 0.0);
}

TEST(HostGate, KeepsOperationsWithBothNeighbouringReadingsFast) {
  // Operation i lies between readings i and i + 1.
  const std::vector<double> readings = {1.0, 1.0, 2.0, 1.0, 1.0};
  EXPECT_EQ(fastHostMask(readings, 1.1), (std::vector<char>{1, 0, 0, 1}));
  EXPECT_EQ(fastHostMask(readings, 2.0), (std::vector<char>{1, 1, 1, 1}));
  // No operation qualifies: all are kept rather than none.
  EXPECT_EQ(fastHostMask({3.0, 2.0, 3.0}, 2.5), (std::vector<char>{1, 1}));
  EXPECT_TRUE(fastHostMask({1.0}, 1.0).empty());
}

TEST(HostGate, ProbeReadsPositiveCpuTime) {
  HostProbe probe;
  EXPECT_GT(probe.read(), 0.0);
  EXPECT_GT(probe.read(), 0.0);  // sorts a fresh unsorted copy each time
}

Span span(std::uint64_t start, std::uint64_t end, std::int64_t parent) {
  Span s;
  s.name = "x";
  s.startNs = start;
  s.endNs = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, DurationMinusTimeCoveredByChildren) {
  const std::vector<Span> spans = {
      span(0, 100, -1),  // root
      span(10, 30, 0),   // child
      span(50, 60, 0),   // child
      span(12, 20, 1),   // grandchild: counts against its parent only
  };
  const std::vector<std::uint64_t> self = selfTimesNs(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 70u);  // 100 - 20 - 10
  EXPECT_EQ(self[1], 12u);  // 20 - 8
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 8u);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<Span> spans = {
      span(100, 200, -1),
      span(90, 130, 0),   // starts before the parent: clipped to 100..130
      span(120, 150, 0),  // overlaps the first child: 130..150 is new
      span(190, 260, 0),  // ends after the parent: clipped to 190..200
  };
  EXPECT_EQ(selfTimesNs(spans)[0], 100u - 30u - 20u - 10u);
}

TEST(Tracer, RecordsNestingAndDisabledTracerRecordsNothing) {
  Tracer tracer(true);
  {
    ScopedSpan root(tracer, "job", 7);
    ScopedSpan child(tracer, "sim.engine", 7);
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].op, 7u);
  EXPECT_LE(tracer.spans()[0].startNs, tracer.spans()[1].startNs);
  EXPECT_GE(tracer.spans()[0].endNs, tracer.spans()[1].endNs);

  Tracer off(false);
  { ScopedSpan s(off, "job", 1); }
  EXPECT_TRUE(off.spans().empty());
}

sim::ClosedLoopResult handBuiltResult() {
  sim::ClosedLoopResult r;
  r.measuredRate = {{1.0, 2.5}, {0.125}};
  r.linkThroughput = {3.0, 0.5};
  r.linkDropRate = {0.0, 0.25};
  r.meanLevel = {{1.5, 2.0}, {1.0}};
  sim::FairEpoch e;
  e.begin = 0.0;
  e.end = 100.0;
  e.sessions = {0, 1};
  e.fairRate = {{1.0, 2.0}, {0.5}};
  r.fairEpochs.push_back(e);
  return r;
}

TEST(ThreadCpuClock, CountsWorkButNotSleep) {
  const std::uint64_t before = threadCpuNs();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t slept = threadCpuNs() - before;
  const std::uint64_t wallStart = nowNs();
  volatile double sink = 0.0;
  while (nowNs() - wallStart < 20'000'000) sink = sink + 1.0;
  const std::uint64_t worked = threadCpuNs() - before - slept;
  EXPECT_LT(slept, 10'000'000u);  // sleeping costs (almost) no CPU
  EXPECT_GT(worked, 1'000'000u);  // busy work does
}

TEST(Digest, StableAndSensitiveToEveryDigestedField) {
  const sim::ClosedLoopResult r = handBuiltResult();
  // Pinned: a change here changes every golden digest.
  EXPECT_EQ(digestResult(r), 0x12b0a93950bcd5f7ULL);
  EXPECT_EQ(digestResult(r), digestResult(handBuiltResult()));

  auto differs = [&](auto mutate) {
    sim::ClosedLoopResult m = handBuiltResult();
    mutate(m);
    return digestResult(m) != digestResult(r);
  };
  EXPECT_TRUE(differs([](auto& m) { m.measuredRate[1][0] = 0.1250000001; }));
  EXPECT_TRUE(differs([](auto& m) { m.linkThroughput[0] = -3.0; }));
  EXPECT_TRUE(differs([](auto& m) { m.linkDropRate.push_back(0.0); }));
  EXPECT_TRUE(differs([](auto& m) { m.meanLevel[0][1] = 2.0000001; }));
  EXPECT_TRUE(differs([](auto& m) { m.fairEpochs[0].end = 99.0; }));
  EXPECT_TRUE(differs([](auto& m) { m.fairEpochs[0].sessions[1] = 2; }));
  EXPECT_TRUE(differs([](auto& m) { m.fairEpochs[0].fairRate[1][0] = 0.0; }));
  // Moving a value between rows changes the shape, hence the digest.
  EXPECT_TRUE(differs([](auto& m) {
    m.measuredRate = {{1.0}, {2.5, 0.125}};
  }));
  // Raw bits: -0.0 and +0.0 compare equal but digest differently.
  EXPECT_TRUE(differs([](auto& m) { m.linkDropRate[0] = -0.0; }));
  // Fields outside the digest do not move it.
  EXPECT_FALSE(differs([](auto& m) { m.fluidTime = 5.0; }));
}

net::Network smallServiceNetwork() {
  sim::ScenarioSpec spec = *sim::findScenario("sharded-bottlenecks");
  spec.sessions = 64;
  spec.receiversPerSession = 2;
  spec.tailCapacityMin = 1.0;
  spec.tailCapacityMax = 16.0;
  spec.seed = 5;
  return sim::buildScenario(spec).network;
}

TEST(ServiceScript, SameSeedSameDeltaSequence) {
  const net::Network net = smallServiceNetwork();
  ServiceScript a(net, 42);
  ServiceScript b(net, 42);
  ServiceScript c(net, 43);
  bool differsFromOtherSeed = false;
  std::size_t kinds[4] = {};
  for (int i = 0; i < 2000; ++i) {
    const ScriptUpdate ua = a.next();
    const ScriptUpdate ub = b.next();
    const ScriptUpdate uc = c.next();
    ASSERT_EQ(serve::encodeDelta(ua.delta), serve::encodeDelta(ub.delta));
    ASSERT_EQ(ua.budgetSeconds, ub.budgetSeconds);
    ASSERT_EQ(ua.kind, ub.kind);
    differsFromOtherSeed |=
        serve::encodeDelta(ua.delta) != serve::encodeDelta(uc.delta);
    ++kinds[static_cast<int>(ua.kind)];
    if (i % 10 == 9) {
      const ScriptWhatIf wa = a.nextWhatIf();
      const ScriptWhatIf wb = b.nextWhatIf();
      c.nextWhatIf();
      ASSERT_EQ(wa.link.value, wb.link.value);
      ASSERT_EQ(wa.capacity, wb.capacity);
    }
  }
  EXPECT_TRUE(differsFromOtherSeed);
  // About 70 / 15 / 15 %; joins trail leaves by the re-join delay.
  EXPECT_NEAR(kinds[0] / 2000.0, 0.70, 0.05);
  EXPECT_NEAR(kinds[1] / 2000.0, 0.15, 0.04);
  EXPECT_NEAR((kinds[2] + kinds[3]) / 2000.0, 0.15, 0.04);
  EXPECT_LE(kinds[3] - kinds[2], 32u);
}

serve::ServiceMetrics driveService(std::uint64_t seed, int updates) {
  serve::FairshareService svc(smallServiceNetwork());
  svc.query(0.0);
  ServiceScript script(svc.network(), seed);
  for (int i = 0; i < updates; ++i) {
    const ScriptUpdate u = script.next();
    EXPECT_EQ(svc.applyDelta(u.delta), serve::ServiceStatus::kOk);
    EXPECT_EQ(svc.query(u.budgetSeconds).status, serve::ServiceStatus::kOk);
  }
  return svc.metrics();
}

TEST(ServiceScript, SameSeedSameExactAndDegradedAnswerCounts) {
  const serve::ServiceMetrics a = driveService(9, 600);
  const serve::ServiceMetrics b = driveService(9, 600);
  EXPECT_EQ(a.exactAnswers, b.exactAnswers);
  EXPECT_EQ(a.degradedAnswers, b.degradedAnswers);
  EXPECT_EQ(a.demotions, b.demotions);
  EXPECT_EQ(a.promotions, b.promotions);
  // The 1 ns budget runs latch degraded serving and release it again.
  EXPECT_GT(a.demotions, 0u);
  EXPECT_GT(a.promotions, 0u);
  EXPECT_GT(a.degradedAnswers, 0u);
  EXPECT_EQ(a.appliedDeltas, 600u);
}

}  // namespace
}  // namespace perfbench
