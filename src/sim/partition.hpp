// Session partitioning for the component-parallel transient engine.
//
// Two sessions interact in the closed-loop simulation exactly when their
// routed link unions intersect: every coupling between sessions flows
// through shared token buckets (and the shared links' loss models and
// accumulators). Partitioning the sessions into LINK-SET CONNECTED
// COMPONENTS — union-find over each session's data-path union — therefore
// splits the simulation state into fully disjoint slices that can execute
// concurrently and bit-identically (see runClosedLoopSimulationParallel in
// sim/closed_loop.hpp).
//
// The partition is STRUCTURAL, not temporal: sessions with disjoint
// lifetimes that cross the same link still share a component, because the
// link's token-bucket level carries over between them (the first session's
// last admit determines the refill state the second one sees). Start/stop
// churn and fault events never change which sessions share links, so one
// partition is valid for an entire run — SessionPartitioner caches it on
// net::Network::structureIdentity(), the same tier the max-min solver uses:
// capacity changes (setCapacity, fault reconfigurations) preserve the
// identity and hit the cache; only structural mutation triggers a rebuild.
// The rebuilds() counter makes that observable, and the zero-alloc suite
// pins it at 1 across packet-only steps and 64-flap fault schedules.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/network.hpp"

namespace mcfair::sim {

/// Link-set connected components of a network's sessions. Component ids
/// are dense and deterministic: components are numbered in order of their
/// smallest session index, so equal networks always partition identically
/// regardless of thread count or build history.
struct SessionPartition {
  /// Sentinel for links no session crosses (their buckets are never
  /// offered a packet, so they belong to no component).
  static constexpr std::uint32_t kUnattached = 0xffffffffu;

  std::uint32_t componentCount = 0;
  /// session -> component id.
  std::vector<std::uint32_t> componentOf;
  /// link -> component id, kUnattached for orphan links.
  std::vector<std::uint32_t> linkComponent;
  /// CSR component -> sessions, each component's sessions ascending.
  std::vector<std::uint32_t> sessionsBegin;  // componentCount + 1
  std::vector<std::uint32_t> sessions;

  /// The sessions of one component, in ascending session order.
  std::span<const std::uint32_t> sessionsOf(std::uint32_t comp) const {
    return {sessions.data() + sessionsBegin[comp],
            sessions.data() + sessionsBegin[comp + 1]};
  }

  /// Session count of the most populous component (0 when empty).
  /// runClosedLoopSimulation uses it to detect the mega-merge shape: when
  /// one large component dominates the population, per-component lanes
  /// hit their Amdahl bound and the batched serial engine runs instead.
  std::size_t largestComponentSessions() const noexcept;
};

/// Builds and caches a SessionPartition per network structure. Reusable
/// across runs: ensure() is O(1) (one identity compare) when the
/// network's structureIdentity() is unchanged — capacity edits and fault
/// reconfigurations never invalidate it — and rebuilds into reused
/// storage otherwise.
class SessionPartitioner {
 public:
  /// Returns the partition of `network`, rebuilding only when its
  /// structureIdentity() differs from the cached one.
  const SessionPartition& ensure(const net::Network& network);

  /// How many times ensure() actually rebuilt — the observable contract
  /// that packet steps, churn, and faults do not recompute components.
  std::uint64_t rebuilds() const noexcept { return rebuilds_; }

 private:
  void build(const net::Network& network);
  std::uint32_t findRoot(std::uint32_t link) noexcept;

  SessionPartition partition_;
  bool bound_ = false;
  std::uint64_t boundStructure_ = 0;
  std::uint64_t rebuilds_ = 0;
  // Union-find scratch over links, reused across rebuilds.
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::vector<std::uint32_t> rootComponent_;
};

}  // namespace mcfair::sim
