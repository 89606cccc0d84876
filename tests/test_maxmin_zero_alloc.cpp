// Verifies the incremental engine's zero-allocation contract: once a
// MaxMinSolver is bound and has solved a network once, subsequent solves
// of same-shaped networks perform no heap allocation at all — the whole
// steady-state filling loop (and the usage write-out) runs out of the
// workspace built at bind time.
//
// The check instruments the global allocator for this test binary: every
// operator new bumps a counter, and the assertions read the counter delta
// across a solve call.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "fairness/maxmin.hpp"
#include "net/topologies.hpp"

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
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mcfair::fairness {
namespace {

// The MCFAIR_VALIDATE harness re-solves with the (allocating) reference
// oracle; the allocation contract under test is the solver's own, so
// this binary pins validation off regardless of the environment.
MaxMinOptions noValidate() {
  MaxMinOptions options;
  options.validate.enabled = 0;
  return options;
}

std::size_t allocationsDuring(MaxMinSolver& solver, bool withUsage) {
  const std::size_t before = g_allocations;
  if (withUsage) {
    (void)solver.solve();
  } else {
    (void)solver.solveAllocation();
  }
  return g_allocations - before;
}

TEST(MaxMinZeroAlloc, LinearPathSteadyStateAllocatesNothing) {
  const auto n = net::singleBottleneckNetwork(64, 6, 1000.0, 2.0);
  MaxMinSolver solver(noValidate());
  solver.bind(n);
  (void)solver.solve();  // warm-up: builds workspace capacity
  EXPECT_EQ(allocationsDuring(solver, /*withUsage=*/false), 0u);
  EXPECT_EQ(allocationsDuring(solver, /*withUsage=*/true), 0u);
}

TEST(MaxMinZeroAlloc, MixedSessionTypesAllocateNothing) {
  const auto n = net::fig2Network(false);  // single-rate step-7 path
  MaxMinSolver solver(noValidate());
  solver.bind(n);
  (void)solver.solve();
  EXPECT_EQ(allocationsDuring(solver, /*withUsage=*/true), 0u);
}

TEST(MaxMinZeroAlloc, NonlinearBisectionPathAllocatesNothing) {
  auto n = net::fig2Network(true);
  const auto fn = std::make_shared<const net::RandomJoinExpected>(100.0);
  for (std::size_t i = 0; i < n.sessionCount(); ++i) {
    n = n.withLinkRateFunction(i, fn);
  }
  MaxMinSolver solver(noValidate());
  solver.bind(n);
  (void)solver.solve();
  EXPECT_EQ(allocationsDuring(solver, /*withUsage=*/true), 0u);
}

TEST(MaxMinZeroAlloc, SigmaLimitedSessionsAllocateNothing) {
  net::Network n;
  const auto a = n.addLink(10.0);
  const auto b = n.addLink(4.0);
  n.addSession(net::makeUnicastSession({a}, /*maxRate=*/2.0));
  n.addSession(net::makeUnicastSession({a, b}, /*maxRate=*/3.5));
  n.addSession(net::makeUnicastSession({b}));
  MaxMinSolver solver(noValidate());
  solver.bind(n);
  (void)solver.solve();
  EXPECT_EQ(allocationsDuring(solver, /*withUsage=*/true), 0u);
}

TEST(MaxMinZeroAlloc, RebindSameStructureStaysWarm) {
  const auto n = net::singleBottleneckNetwork(32, 4, 500.0, 1.5);
  MaxMinSolver solver(noValidate());
  (void)solver.solve(n);
  // Re-solving through the bind(net) entry point must not rebuild the
  // workspace when the network is unchanged (identity short-circuit).
  const std::size_t before = g_allocations;
  (void)solver.solve(n);
  EXPECT_EQ(g_allocations - before, 0u);
}

// The fault path is allocation-free end to end: setCapacity mutates the
// network in place (down / degrade / repair), and the capacity-refresh
// rebind plus the re-solve reuse the bound workspace — no per-fault heap
// traffic.
TEST(MaxMinZeroAlloc, FaultChurnStaysAllocationFree) {
  auto n = net::fig2Network(true);
  std::vector<double> base;
  for (std::uint32_t j = 0; j < n.linkCount(); ++j) {
    base.push_back(n.capacity(graph::LinkId{j}));
  }
  MaxMinSolver solver(noValidate());
  solver.bind(n);
  (void)solver.solve();  // warm-up builds workspace capacity
  const std::size_t before = g_allocations;
  for (std::uint32_t step = 0; step < 30; ++step) {
    const graph::LinkId l{step % static_cast<std::uint32_t>(n.linkCount())};
    const double cap = step % 3 == 0   ? 0.0
                       : step % 3 == 1 ? 0.5 * base[l.value]
                                       : base[l.value];
    n.setCapacity(l, cap);
    solver.bind(n);  // structure unchanged: O(links) refresh in place
    (void)solver.solveAllocation();
  }
  EXPECT_EQ(g_allocations - before, 0u);
}

}  // namespace
}  // namespace mcfair::fairness
