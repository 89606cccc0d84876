// Max-min fair allocation solver — the paper's Appendix A algorithm,
// generalized to arbitrary monotone session link-rate functions v_i.
//
// Progressive filling: all active receivers' rates rise uniformly from 0;
// a receiver freezes when some link on its data-path reaches capacity or
// its session's sigma_i is reached; when a single-rate session loses any
// receiver, the whole session freezes (step 7 of the algorithm), keeping
// its rates equal. With chi all-multi-rate / all-single-rate / mixed this
// produces the (unique) multi-rate / single-rate / mixed max-min fair
// allocation (Lemma 5 and Corollary 5 of the technical report).
//
// For the Section 2 model (v_i = max) each round's increment has a closed
// form; for general v_i (Section 3.1 redundancy functions) the increment
// is found by bisection on the monotone feasibility predicate. Both paths
// are implemented; the closed form is used automatically whenever every
// session's v_i declares itself rate-linear.
//
// Weighted max-min fairness (the paper's Section 5 suggestion for
// approximating TCP-fairness by weighting receiver rates with inverse
// round-trip times) is supported through Receiver::weight: active
// receivers fill at rate weight * level, so the solver maximizes
// min(rate/weight) lexicographically. Unit weights recover the paper's
// algorithm exactly.
//
// Two implementations share this interface:
//  * MaxMinSolver — the incremental filling engine. It builds a flat
//    CSR-style link->receiver adjacency and per-link accumulators
//    (frozen-rate constant part, active slope sum, active count) once at
//    bind() time, then updates only the links on a freezing receiver's
//    data-path as the filling progresses. All scratch buffers live in the
//    solver, so repeated solves on same-shaped networks perform no heap
//    allocation in the filling loop. solveMaxMinFair() runs this engine.
//  * solveMaxMinFairReference — the original per-round rebuild, retained
//    as the independent oracle for the randomized parity tests. Both
//    produce identical allocations within MaxMinOptions::tolerance.
#pragma once

#include <cstddef>
#include <memory>

#include "fairness/allocation.hpp"
#include "util/validate.hpp"

namespace mcfair::fairness {

/// Solver knobs.
struct MaxMinOptions {
  /// Absolute convergence tolerance on rates (bisection width).
  double tolerance = 1e-10;
  /// Slack within which a link counts as fully utilized when deciding
  /// which receivers freeze. Scales with capacity magnitude internally.
  double saturationSlack = 1e-7;
  /// Hard cap on bisection iterations per round.
  std::size_t maxBisectionSteps = 200;
  /// Paranoid cross-checking (see util/validate.hpp): when resolved on,
  /// every solve() re-runs the reference oracle on the bound network and
  /// throws NumericError if the incremental rates deviate beyond the
  /// parity tolerance. Orders of magnitude slower — CI/debug only. The
  /// default (-1) follows the MCFAIR_VALIDATE environment variable.
  util::ValidateOptions validate;
};

/// Result of the solver: the allocation plus the usage it induces and the
/// number of filling rounds taken.
struct MaxMinResult {
  Allocation allocation;
  LinkUsage usage;
  std::size_t rounds = 0;
};

/// Computes the max-min fair allocation of `net`. Throws NumericError if
/// the filling fails to make progress (cannot happen for well-formed
/// monotone v_i; guards against faulty user-provided functions).
MaxMinResult solveMaxMinFair(const net::Network& net,
                             const MaxMinOptions& options = {});

/// Convenience: solveMaxMinFair(...).allocation.
Allocation maxMinFairAllocation(const net::Network& net,
                                const MaxMinOptions& options = {});

/// The original solver (per-round link-view rebuild, O(links x receivers)
/// per round). Retained as the reference oracle for parity tests and as
/// the baseline for the perf benchmarks; use solveMaxMinFair otherwise.
MaxMinResult solveMaxMinFairReference(const net::Network& net,
                                      const MaxMinOptions& options = {});

/// Reusable incremental progressive-filling engine.
///
/// Typical churn loop (closed-loop simulation, what-if sweeps):
///
///   MaxMinSolver solver;
///   for (const net::Network& variant : scenarios) {
///     const MaxMinResult& r = solver.solve(variant);  // workspace reused
///     ...
///   }
///
/// bind() captures a raw pointer to the network: the network must outlive
/// the binding and must not be mutated between bind() and solve(). After
/// the first solve on a given shape, subsequent solves reuse every buffer
/// — the steady-state filling loop performs zero heap allocations.
class MaxMinSolver {
 public:
  explicit MaxMinSolver(MaxMinOptions options = {});
  ~MaxMinSolver();
  MaxMinSolver(MaxMinSolver&&) noexcept;
  MaxMinSolver& operator=(MaxMinSolver&&) noexcept;

  /// Builds the CSR adjacency and per-link accumulators for `net`.
  /// Rebinds are tiered: an unchanged identity() is a no-op; an
  /// unchanged structureIdentity() (only capacities changed, e.g. via
  /// Network::setCapacity on a fault) refreshes the capacity-derived
  /// arrays in place — O(links), allocation-free; anything else does
  /// the full workspace rebuild.
  void bind(const net::Network& net);

  /// True once bind() has been called.
  bool bound() const noexcept;

  /// Solves the bound network from scratch. The returned reference is
  /// owned by the solver and is invalidated by the next bind()/solve().
  const MaxMinResult& solve();

  /// bind(net) + solve().
  const MaxMinResult& solve(const net::Network& net);

  /// Runs the filling only, skipping the O(sessions x links) usage
  /// materialization — the fast path when only rates are needed.
  const Allocation& solveAllocation();

  /// bind(net) + solveAllocation().
  const Allocation& solveAllocation(const net::Network& net);

  /// Moves the last result out of the solver (no copy of the dense usage
  /// matrix). The solver must solve again before the result is readable;
  /// meant for transient solvers that are discarded right after.
  MaxMinResult takeResult();

  const MaxMinOptions& options() const noexcept { return options_; }

  /// Always 0: the solver is serial.
  std::size_t threadCount() const noexcept { return 0; }

 private:
  struct Engine;
  MaxMinOptions options_;
  std::unique_ptr<Engine> engine_;
};

}  // namespace mcfair::fairness
