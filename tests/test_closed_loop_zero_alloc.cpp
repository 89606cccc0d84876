// Verifies the event-driven closed-loop engine's allocation contract:
// every heap allocation happens during setup (SimCore construction, the
// event-queue seeding batch) or result materialization — the per-packet
// steady state allocates nothing. The check compares total allocation
// counts of two runs that differ only in duration: a 16x longer packet
// stream through the same network must allocate exactly as much as the
// short one, which is only possible if the packet loop itself is
// allocation-free.
//
// Same instrumentation idiom as test_maxmin_zero_alloc.cpp: this binary
// overrides the global allocator and counts calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/fault.hpp"
#include "net/topologies.hpp"
#include "sim/closed_loop.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};

// C11 aligned_alloc requires size to be a multiple of the alignment
// (glibc is lenient, macOS is not).
std::size_t roundUp(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  return (size + a - 1) / a * a;
}
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   roundUp(size, align))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   roundUp(size, align))) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mcfair::sim {
namespace {

std::size_t allocationsForDuration(const net::Network& n, double duration) {
  ClosedLoopConfig c;
  c.sessions.assign(n.sessionCount(),
                    ClosedLoopSessionConfig{ProtocolKind::kCoordinated, 5, 1});
  c.duration = duration;
  c.warmup = duration / 4.0;
  c.seed = 17;
  const std::size_t before = g_allocations.load();
  const auto r = runClosedLoopSimulation(n, c);
  const std::size_t after = g_allocations.load();
  // Use the result so the run cannot be elided.
  EXPECT_FALSE(r.measuredRate.empty());
  return after - before;
}

std::size_t fluidAllocationsForDuration(const net::Network& n,
                                        double duration) {
  ClosedLoopConfig c;
  c.sessions.assign(
      n.sessionCount(),
      ClosedLoopSessionConfig{ProtocolKind::kDeterministic, 3, 1});
  c.duration = duration;
  c.warmup = duration / 4.0;
  c.seed = 29;
  const std::size_t before = g_allocations.load();
  const auto r = runClosedLoopSimulationFluid(n, c);
  const std::size_t after = g_allocations.load();
  EXPECT_GT(r.fluidTime, 0.0) << "fluid mode must engage for this check";
  return after - before;
}

TEST(ClosedLoopZeroAlloc, PacketLoopAllocatesNothing) {
  net::Network n;
  const auto shared = n.addLink(8.0);
  const auto tailA = n.addLink(2.0);
  const auto tailB = n.addLink(6.0);
  net::Session s;
  s.type = net::SessionType::kMultiRate;
  s.receivers = {net::makeReceiver({shared, tailA}),
                 net::makeReceiver({shared, tailB})};
  n.addSession(std::move(s));
  n.addSession(net::makeUnicastSession({shared}));

  // Warm up once (gtest and lazy runtime structures allocate on first
  // touch), then compare a short and a 16x longer run.
  (void)allocationsForDuration(n, 100.0);
  const std::size_t shortRun = allocationsForDuration(n, 100.0);
  const std::size_t longRun = allocationsForDuration(n, 1600.0);
  EXPECT_EQ(shortRun, longRun)
      << "per-packet steady state must not allocate";
  EXPECT_GT(shortRun, 0u);  // setup/result work is real
}

TEST(ClosedLoopZeroAlloc, FluidSteadyStateAllocatesNothing) {
  // The fluid engine's contract: the per-packet transient reuses the
  // event engine's allocation-free loop, the certificate scratch is
  // built once, and the closed-form advance itself is pure arithmetic
  // over preallocated arrays. A 16x longer horizon — which only grows
  // the analytically covered interval — must therefore allocate exactly
  // as much as the short one.
  net::Network n;
  const auto shared = n.addLink(64.0);  // ample: aggregate rate is 3 * 4
  net::Session s;
  s.type = net::SessionType::kMultiRate;
  const auto tailA = n.addLink(16.0);
  const auto tailB = n.addLink(16.0);
  s.receivers = {net::makeReceiver({shared, tailA}),
                 net::makeReceiver({shared, tailB})};
  n.addSession(std::move(s));
  n.addSession(net::makeUnicastSession({shared}));
  n.addSession(net::makeUnicastSession({shared}));

  (void)fluidAllocationsForDuration(n, 100.0);
  const std::size_t shortRun = fluidAllocationsForDuration(n, 100.0);
  const std::size_t longRun = fluidAllocationsForDuration(n, 1600.0);
  EXPECT_EQ(shortRun, longRun)
      << "fluid steady state must not allocate";
  EXPECT_GT(shortRun, 0u);
}

// A run with `flaps` degrade/repair pairs on the shared link. The
// schedule vector is reserved up front, so the allocation count of the
// run is independent of the number of events IF the fault application
// path itself — capacity refresh, incremental re-solve, accumulator
// flush — is allocation-free.
std::size_t faultChurnAllocations(const net::Network& n,
                                  graph::LinkId victim, std::size_t flaps) {
  ClosedLoopConfig c;
  c.sessions.assign(n.sessionCount(),
                    ClosedLoopSessionConfig{ProtocolKind::kCoordinated, 5, 1});
  c.duration = 1600.0;
  c.warmup = 100.0;
  c.seed = 23;
  c.validate.enabled = 0;  // the paranoid checker may allocate
  c.faults.events.reserve(2 * flaps);
  for (std::size_t f = 0; f < flaps; ++f) {
    const double t = 200.0 + static_cast<double>(f) * 20.0;
    c.faults.events.push_back(
        {t, net::FaultKind::kDegrade, victim, 0.5});
    c.faults.events.push_back({t + 10.0, net::FaultKind::kLinkUp, victim});
  }
  const std::size_t before = g_allocations.load();
  const auto r = runClosedLoopSimulation(n, c);
  const std::size_t after = g_allocations.load();
  EXPECT_FALSE(r.measuredRate.empty());
  return after - before;
}

TEST(ClosedLoopZeroAlloc, FaultApplicationAllocatesNothing) {
  net::Network n;
  const auto shared = n.addLink(8.0);
  const auto tailA = n.addLink(2.0);
  const auto tailB = n.addLink(6.0);
  net::Session s;
  s.type = net::SessionType::kMultiRate;
  s.receivers = {net::makeReceiver({shared, tailA}),
                 net::makeReceiver({shared, tailB})};
  n.addSession(std::move(s));
  n.addSession(net::makeUnicastSession({shared}));

  (void)faultChurnAllocations(n, shared, 4);
  const std::size_t few = faultChurnAllocations(n, shared, 4);
  const std::size_t many = faultChurnAllocations(n, shared, 64);
  EXPECT_EQ(few, many) << "fault application must not allocate";
  EXPECT_GT(few, 0u);
}

// The fluid hand-back path — token-bucket reconstruction, sender
// resync, queue re-seeding, and the post-repair re-engagement — runs on
// preallocated scratch. Two runs with the SAME fault schedule but an 8x
// longer horizon produce the same number of hand-backs and fluid
// intervals, so they must allocate exactly as much: the extra covered
// time is pure arithmetic.
std::size_t fluidFaultAllocations(const net::Network& n,
                                  graph::LinkId victim, double duration) {
  ClosedLoopConfig c;
  c.sessions.assign(
      n.sessionCount(),
      ClosedLoopSessionConfig{ProtocolKind::kDeterministic, 3, 1});
  c.duration = duration;
  c.warmup = 100.0;
  c.seed = 31;
  c.validate.enabled = 0;  // the paranoid checker may allocate
  c.faults.events = {{300.0, net::FaultKind::kDegrade, victim, 0.5},
                     {500.0, net::FaultKind::kLinkUp, victim}};
  const std::size_t before = g_allocations.load();
  const auto r = runClosedLoopSimulationFluid(n, c);
  const std::size_t after = g_allocations.load();
  EXPECT_GT(r.fluidTime, 0.0) << "fluid mode must engage for this check";
  EXPECT_GE(r.fluidIntervals.size(), 2u)
      << "the run must hand back at the fault and re-engage after repair";
  return after - before;
}

TEST(ClosedLoopZeroAlloc, FluidHandBackAllocatesNothing) {
  net::Network n;
  const auto shared = n.addLink(64.0);  // ample even at half capacity
  net::Session s;
  s.type = net::SessionType::kMultiRate;
  const auto tailA = n.addLink(16.0);
  const auto tailB = n.addLink(16.0);
  s.receivers = {net::makeReceiver({shared, tailA}),
                 net::makeReceiver({shared, tailB})};
  n.addSession(std::move(s));
  n.addSession(net::makeUnicastSession({shared}));
  n.addSession(net::makeUnicastSession({shared}));

  (void)fluidFaultAllocations(n, shared, 800.0);
  const std::size_t shortRun = fluidFaultAllocations(n, shared, 800.0);
  const std::size_t longRun = fluidFaultAllocations(n, shared, 6400.0);
  EXPECT_EQ(shortRun, longRun)
      << "hand-back and re-engagement must not allocate per covered time";
  EXPECT_GT(shortRun, 0u);
}

// ---- component-parallel engine ------------------------------------------

// A 3-component network (one shared bottleneck + tails per component):
// the parallel engine's allocation contract mirrors the serial one —
// everything heap-side happens in setup (SimCore, partition, lanes,
// thread pool) or result materialization, never per packet. The
// ThreadPool and lane scratch are rebuilt per run, but their footprint
// is a function of the network alone, so short-vs-16x-longer EXPECT_EQ
// still isolates the packet loop.
net::Network parallelNetwork() {
  net::Network n;
  for (int comp = 0; comp < 3; ++comp) {
    const auto shared = n.addLink(8.0);
    const auto tailA = n.addLink(2.0);
    const auto tailB = n.addLink(6.0);
    net::Session s;
    s.type = net::SessionType::kMultiRate;
    s.receivers = {net::makeReceiver({shared, tailA}),
                   net::makeReceiver({shared, tailB})};
    n.addSession(std::move(s));
    n.addSession(net::makeUnicastSession({shared}));
  }
  return n;
}

std::size_t parallelAllocationsForDuration(const net::Network& n,
                                           double duration, int threads,
                                           std::uint64_t* rebuilds) {
  ClosedLoopConfig c;
  c.sessions.assign(n.sessionCount(),
                    ClosedLoopSessionConfig{ProtocolKind::kCoordinated, 5, 1});
  c.duration = duration;
  c.warmup = duration / 4.0;
  c.seed = 37;
  c.engineThreads = threads;
  const std::size_t before = g_allocations.load();
  const auto r = runClosedLoopSimulationParallel(n, c);
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(r.engineComponents, 3u);
  if (rebuilds != nullptr) *rebuilds = r.partitionRebuilds;
  return after - before;
}

TEST(ClosedLoopZeroAlloc, ParallelPacketLoopAllocatesNothing) {
  const net::Network n = parallelNetwork();
  for (const int threads : {1, 4}) {
    (void)parallelAllocationsForDuration(n, 100.0, threads, nullptr);
    std::uint64_t rebuilds = 0;
    const std::size_t shortRun =
        parallelAllocationsForDuration(n, 100.0, threads, &rebuilds);
    const std::size_t longRun =
        parallelAllocationsForDuration(n, 1600.0, threads, nullptr);
    EXPECT_EQ(shortRun, longRun)
        << "parallel per-packet steady state must not allocate (T="
        << threads << ")";
    EXPECT_GT(shortRun, 0u);
    // One structural partition per run — packet-only steps never
    // recompute components.
    EXPECT_EQ(rebuilds, 1u);
  }
}

std::size_t parallelFaultChurnAllocations(const net::Network& n,
                                          graph::LinkId victim,
                                          std::size_t flaps,
                                          std::uint64_t* rebuilds) {
  ClosedLoopConfig c;
  c.sessions.assign(n.sessionCount(),
                    ClosedLoopSessionConfig{ProtocolKind::kCoordinated, 5, 1});
  c.duration = 1600.0;
  c.warmup = 100.0;
  c.seed = 43;
  c.engineThreads = 4;
  c.validate.enabled = 0;  // the paranoid checker may allocate
  c.faults.events.reserve(2 * flaps);
  for (std::size_t f = 0; f < flaps; ++f) {
    const double t = 200.0 + static_cast<double>(f) * 20.0;
    c.faults.events.push_back({t, net::FaultKind::kDegrade, victim, 0.5});
    c.faults.events.push_back({t + 10.0, net::FaultKind::kLinkUp, victim});
  }
  const std::size_t before = g_allocations.load();
  const auto r = runClosedLoopSimulationParallel(n, c);
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(r.engineComponents, 3u);
  if (rebuilds != nullptr) *rebuilds = r.partitionRebuilds;
  return after - before;
}

TEST(ClosedLoopZeroAlloc, ParallelFaultApplicationAllocatesNothing) {
  // 64 degrade/repair flaps on one component's bottleneck versus 4: the
  // lane fault sub-schedules are carved out during setup (the counting
  // sort scales with the SCHEDULE, which is held fixed per comparison
  // by reserving up front and identical except in count), and applying
  // an event is a bucket reconfiguration — allocation-free. Faults are
  // capacity edits, so the structural partition is computed exactly
  // once per run through all 64 flaps.
  const net::Network n = parallelNetwork();
  const graph::LinkId victim{0};  // component 0's shared bottleneck

  (void)parallelFaultChurnAllocations(n, victim, 4, nullptr);
  std::uint64_t rebuilds = 0;
  const std::size_t few =
      parallelFaultChurnAllocations(n, victim, 4, &rebuilds);
  EXPECT_EQ(rebuilds, 1u);
  const std::size_t many =
      parallelFaultChurnAllocations(n, victim, 64, &rebuilds);
  EXPECT_EQ(rebuilds, 1u)
      << "a 64-flap schedule must not trigger partition rebuilds";
  // The event vector is reserved up front and the lane sub-schedules
  // are single sized-on-construction vectors, so the allocation CALL
  // count is flap-independent; any per-event allocation in the lane
  // fault path would break the equality 60 times over.
  EXPECT_EQ(many, few) << "parallel fault application must not allocate";
  EXPECT_GT(few, 0u);
}

// ---- batched serial engine -------------------------------------------------

// The batched engine's allocation contract: its packet arena is sized
// once from the closed-form per-window bound, and the window loop
// (generate, sort, fault, per-packet) runs entirely on it. The window
// width is a fixed packet budget over the aggregate rate, so a 16x
// longer horizon runs more windows on an arena of the same size: the
// allocation-call count must not change.
std::size_t batchedAllocationsForDuration(const net::Network& n,
                                          double duration,
                                          std::uint64_t* windows) {
  ClosedLoopConfig c;
  c.sessions.assign(n.sessionCount(),
                    ClosedLoopSessionConfig{ProtocolKind::kCoordinated, 5, 1});
  c.duration = duration;
  c.warmup = duration / 4.0;
  c.seed = 53;
  c.faults.events = {{50.0, net::FaultKind::kDegrade, graph::LinkId{1}, 0.5},
                     {80.0, net::FaultKind::kLinkUp, graph::LinkId{1}}};
  const std::size_t before = g_allocations.load();
  const auto r = runClosedLoopSimulationBatched(n, c);
  const std::size_t after = g_allocations.load();
  *windows = r.speculationEpochs;
  return after - before;
}

TEST(ClosedLoopZeroAlloc, BatchedWindowLoopAllocatesNothing) {
  // Multi-layer Coordinated receivers join and leave, and a degrade /
  // repair pair reconfigures a tail mid-run: the loop's every branch.
  net::Network n;
  const auto shared = n.addLink(8.0);
  const auto tailA = n.addLink(2.0);
  const auto tailB = n.addLink(6.0);
  net::Session s;
  s.type = net::SessionType::kMultiRate;
  s.receivers = {net::makeReceiver({shared, tailA}),
                 net::makeReceiver({shared, tailB})};
  n.addSession(std::move(s));
  n.addSession(net::makeUnicastSession({shared}));

  std::uint64_t shortWindows = 0;
  std::uint64_t longWindows = 0;
  (void)batchedAllocationsForDuration(n, 600.0, &shortWindows);
  const std::size_t shortRun =
      batchedAllocationsForDuration(n, 600.0, &shortWindows);
  const std::size_t longRun =
      batchedAllocationsForDuration(n, 9600.0, &longWindows);
  EXPECT_EQ(shortWindows, 1u);
  EXPECT_GE(longWindows, 2u) << "the long run must cross a window boundary";
  EXPECT_EQ(shortRun, longRun) << "the batched window loop must not allocate";
  EXPECT_GT(shortRun, 0u);
}

}  // namespace
}  // namespace mcfair::sim
