// Closed-loop simulation: layered congestion-control protocols running
// over a capacity-limited network.
//
// The paper's Section 4 experiments use exogenous (Bernoulli) loss; its
// argument, however, is that receiver-driven join/leave protocols bring
// receiver rates close to the max-min fair allocation ("it can be argued
// that these protocols come 'close' to achieving the max-min fair
// rates"). This module closes the loop: every link of a net::Network
// enforces its capacity with a token bucket, packets that exceed it are
// dropped for the receivers downstream, and the resulting congestion
// events drive the same protocol state machines as sim/receiver.hpp.
// Comparing measured long-run receiver rates against
// fairness::solveMaxMinFair quantifies how close each protocol gets.
//
// Model notes (documented simplifications):
//  * Time is continuous; each session's sender emits per-layer periodic
//    packet streams (sim/sender.hpp). A multicast packet consumes one
//    token on every link that leads to at least one subscribed receiver,
//    regardless of subscriber count (true multicast forwarding).
//  * A packet is lost to receiver r when ANY link on r's data-path had
//    no token for it; drop decisions across links of one packet are
//    independent (no upstream/downstream ordering — data-paths are link
//    sets in the fairness model).
//  * Joins/leaves take effect instantly (the paper's idealization).
//
// Four drivers share the per-packet machinery (token buckets, protocol
// state machines, measurement accumulators, all held in one SoA SimCore)
// and produce bit-identical trajectories on configurations where their
// execution orders provably agree:
//  * runClosedLoopSimulation — the event-driven session engine. Every
//    session keeps exactly one lookahead packet in a global
//    sim::EventQueue, so advancing the simulation is one pop + one push:
//    O(log sessions) per packet, independent of the population size.
//    Steady-state operation allocates nothing. With
//    ClosedLoopConfig::fluidFastForward it additionally runs the fluid
//    engine below.
//  * runClosedLoopSimulationFluid — the fluid fast-forward engine. It
//    executes per-packet until the population reaches a provably steady
//    regime (every live receiver absorbing, every link certified
//    drop-free by a token-bucket arrival-curve bound, no exogenous
//    loss), then advances every remaining packet in CLOSED FORM:
//    per-stream packet counts over the lifetime/warmup/bin boundaries
//    are computed analytically from the senders' exact emission-time
//    formula, so the run costs O(state changes), not O(packets) — yet
//    the result is bit-identical to the per-packet engines. Where the
//    certificate cannot be established (endogenous congestion, bursty
//    Gilbert-Elliott state, per-packet Bernoulli draws), it simply keeps
//    executing per-packet, preserving exact per-packet parity and RNG
//    draw counts.
//  * runClosedLoopSimulationReference — the original driver, which scans
//    all sessions' lookahead packets per event: O(sessions) per packet.
//    Retained as the oracle for the trajectory-parity tests and as the
//    baseline the merge benchmarks measure against (the same role
//    fairness::solveMaxMinFairReference plays for the solver).
//  * runClosedLoopSimulationParallel — the component-parallel transient
//    engine. Sessions are partitioned into link-set connected components
//    (sim/partition.hpp); each component gets its own event queue and
//    executes on the shared util::ThreadPool, touching only its own
//    disjoint slice of the SimCore arrays. Because all coupling between
//    sessions flows through shared links, and per-receiver/per-link RNG
//    streams make every draw depend only on within-component order, the
//    merged result is bit-identical to the serial event engine at every
//    thread count (the parity fuzz suite pins this across topologies,
//    mixes, loss models, and fault schedules).
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "fairness/allocation.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "sim/loss.hpp"
#include "sim/receiver.hpp"
#include "util/validate.hpp"

namespace mcfair::sim {

/// Per-session protocol configuration.
struct ClosedLoopSessionConfig {
  ProtocolKind protocol = ProtocolKind::kCoordinated;
  /// Layer count of the exponential scheme (cumulative rate 2^(i-1)
  /// packets per time unit at level i).
  std::size_t layers = 8;
  std::size_t initialLevel = 1;
  /// Session lifetime [startTime, stopTime): outside it the sender is
  /// silent and its receivers hold at initialLevel. Models the Section 5
  /// concern that "a session's fair allocation may vary due to startup
  /// and/or termination of other sessions".
  double startTime = 0.0;
  double stopTime = std::numeric_limits<double>::infinity();
};

/// One piecewise-constant segment of the time-varying max-min fair
/// reference: the sessions listed were live for all of [begin, end).
struct FairEpoch {
  double begin = 0.0;
  double end = 0.0;
  /// Original session indices live throughout this epoch.
  std::vector<std::size_t> sessions;
  /// Max-min fair rates of the live sessions' receivers, indexed parallel
  /// to `sessions` (fairRate[s][k] for receiver k of sessions[s]).
  std::vector<std::vector<double>> fairRate;
};

/// Experiment parameters.
struct ClosedLoopConfig {
  /// One entry per session of the Network; missing entries default.
  std::vector<ClosedLoopSessionConfig> sessions;
  /// Simulated duration (time units).
  double duration = 2000.0;
  /// Rates are measured over [warmup, duration].
  double warmup = 500.0;
  /// Token-bucket depth per link, in time units of capacity
  /// (depth = capacity * tokenBurst). Absorbs packet-scale burstiness.
  double tokenBurst = 2.0;
  std::uint64_t seed = 1;
  /// When positive, delivered rates are additionally recorded per time
  /// bin of this width over [0, duration) — the timeline used to observe
  /// adaptation to session arrivals/departures.
  double rateBinWidth = 0.0;
  /// When set, the piecewise max-min fair reference is recomputed at
  /// every session start/stop boundary (one incremental-solver re-solve
  /// per epoch) and returned in ClosedLoopResult::fairEpochs.
  bool computeFairEpochs = false;
  /// When true, runClosedLoopSimulation fast-forwards provably steady
  /// intervals analytically (see runClosedLoopSimulationFluid). Off by
  /// default so existing experiments keep their exact execution path.
  bool fluidFastForward = false;
  /// Thread count for the component-parallel transient engine: sessions
  /// are partitioned into link-set connected components and executed
  /// concurrently with per-component event queues, bit-identical to the
  /// serial event engine at every value (see
  /// runClosedLoopSimulationParallel). 0/1 = serial; -1 (default) = the
  /// MCFAIR_SIM_THREADS environment variable (unset/invalid = serial).
  /// When fluidFastForward is also set, the fluid engine takes
  /// precedence in runClosedLoopSimulation (the two modes cover
  /// complementary regimes: fluid closes out steady populations in
  /// closed form, the parallel engine shards the congested/transient
  /// per-packet phases); call runClosedLoopSimulationParallel directly
  /// to force the partitioned engine.
  int engineThreads = -1;
  /// Thread count for the speculative intra-component engine
  /// (runClosedLoopSimulationSpeculative): epochs of simulated time are
  /// generated, admitted, and accounted by pool workers against a frozen
  /// subscription snapshot, with divergent epochs rolled back and
  /// replayed serially — bit-identical to the serial event engine at
  /// every value. Also gates the parallel engine's dispatch: when one
  /// link-set component dominates the session population (the mega-merge
  /// shape, where per-component lanes cannot help),
  /// runClosedLoopSimulationParallel reroutes here. 0 = never dispatch
  /// speculatively (lanes only); -1 (default) = inherit the resolved
  /// engineThreads / MCFAIR_SIM_THREADS count; >= 1 = that many workers.
  int speculationThreads = -1;
  /// Epoch-boundary density for the speculative engine: the run is split
  /// at every shared-link state-change time (session start/stop, fault
  /// application) plus this many uniform divisions of [0, duration].
  /// 0 (default) = auto-size epochs toward a fixed packet budget per
  /// reconciliation; larger values force more, shorter epochs (useful in
  /// tests to exercise the rollback path).
  std::size_t speculativeEpochs = 0;
  /// Optional exogenous per-link loss, layered on top of the endogenous
  /// token-bucket drops — the plumbing for sim/loss models (the paper's
  /// Section 4 Bernoulli process, or GilbertElliottLoss for bursty
  /// sensitivity studies). Called once per link id at simulation start;
  /// may return null for "no extra loss on this link". A forwarded packet
  /// that the loss model kills counts as dropped on that link and as a
  /// congestion event for the receivers behind it. Null (default) =
  /// endogenous loss only. The fluid engine never fast-forwards while a
  /// loss model is installed (each packet owes its per-link RNG draw).
  std::function<std::unique_ptr<LossModel>(graph::LinkId)> linkLoss;
  /// Deterministic fault schedule (net/fault.hpp): link-down, link-up,
  /// and capacity-degrade events applied at exact simulation times. A
  /// fault reconfigures the link's token bucket in place (rate and depth
  /// follow capacity * factor; a down link admits nothing) before any
  /// packet at or after the fault time is processed — an ordering all
  /// three drivers implement identically, so trajectories stay
  /// bit-identical through arbitrary schedules. Receivers whose
  /// data-path crosses a dead link simply see every packet dropped and
  /// degrade to the layers their surviving links sustain; nothing
  /// crashes or deadlocks. The fluid engine treats the next fault time
  /// as its fast-forward horizon: it advances analytically up to the
  /// fault, reconstructs exact per-packet state (senders, merge queue,
  /// token buckets), and hands execution back to the per-packet path —
  /// then re-engages after repair once the population is steady again.
  net::FaultSchedule faults;
  /// Paranoid invariant checking (util/validate.hpp), resolved against
  /// MCFAIR_VALIDATE by default: per-link accumulator conservation is
  /// asserted after every fault and at finalize, the fluid hand-back
  /// cross-checks its windowed token-bucket reconstruction against a
  /// full replay, and the fair-epoch solver re-validates each epoch
  /// against the reference oracle. Orders of magnitude slower — meant
  /// for CI debug/sanitizer jobs.
  util::ValidateOptions validate;
};

/// One maximal interval the fluid engine covered analytically.
struct FluidInterval {
  double begin = 0.0;
  double end = 0.0;
};

/// Measured outcome.
struct ClosedLoopResult {
  /// Delivered packets per time unit over the measurement window,
  /// indexed [session][receiver].
  std::vector<std::vector<double>> measuredRate;
  /// Forwarded packets per time unit per link (all sessions).
  std::vector<double> linkThroughput;
  /// Fraction of packet-link traversal attempts dropped per link.
  std::vector<double> linkDropRate;
  /// Measured session link rates u_{i,j} (forwarded, packets per time
  /// unit), indexed [session][link].
  std::vector<std::vector<double>> sessionLinkRate;
  /// Mean subscription level per receiver over the window.
  std::vector<std::vector<double>> meanLevel;
  /// When rateBinWidth > 0: delivered packets per time unit per bin,
  /// indexed [session][receiver][bin], covering [0, duration).
  std::vector<std::vector<std::vector<double>>> binRates;
  /// When computeFairEpochs: the time-varying fair reference, one entry
  /// per maximal interval with a constant set of live sessions.
  std::vector<FairEpoch> fairEpochs;
  /// Fluid engine diagnostics: total simulated time covered analytically
  /// and packets accounted in closed form instead of being executed.
  /// Both 0 for the per-packet engines and for runs where the
  /// steady-state certificate never held. With a fault schedule the
  /// coverage can be split into several intervals (fast-forward up to a
  /// fault, per-packet through the disruption, fast-forward again after
  /// recovery); fluidIntervals lists them in time order.
  double fluidTime = 0.0;
  std::uint64_t fluidPackets = 0;
  std::vector<FluidInterval> fluidIntervals;
  /// Component-parallel engine diagnostics (0 for the other drivers):
  /// the number of link-set connected components the sessions split
  /// into, and how many times the session partition was (re)built —
  /// exactly 1 per run, because packet steps, churn, and fault events
  /// never change which sessions share links (the zero-alloc suite pins
  /// this through a 64-flap fault schedule).
  std::size_t engineComponents = 0;
  std::uint64_t partitionRebuilds = 0;
  /// Speculative engine diagnostics (0 for the other drivers):
  /// speculationEpochs counts reconciliation intervals executed,
  /// speculationRollbacks counts the ones whose speculative admit/drop
  /// outcomes diverged from the frozen-subscription prediction and were
  /// re-executed serially. Certified-steady populations (e.g. the
  /// single-layer mega-merge preset, whose receivers provably never move)
  /// roll back zero times — a contract the tests assert.
  std::uint64_t speculationEpochs = 0;
  std::uint64_t speculationRollbacks = 0;
};

/// Runs the closed-loop experiment with the event-driven session engine
/// (O(log sessions) packet merge). Link capacities of `network` are
/// interpreted in packets per time unit. Throws PreconditionError on
/// inconsistent configuration. When ClosedLoopConfig::engineThreads
/// resolves to more than one thread (and fluidFastForward is off), this
/// dispatches to runClosedLoopSimulationParallel — bit-identical, just
/// faster on multi-component workloads.
ClosedLoopResult runClosedLoopSimulation(const net::Network& network,
                                         const ClosedLoopConfig& config);

/// The component-parallel transient engine: sessions are partitioned
/// into link-set connected components (union-find over each session's
/// routed link union, cached on the network's structure identity), each
/// component runs the event-driven per-packet loop on its own event
/// queue over its own disjoint slice of the shared SoA state, and
/// components execute concurrently on a util::ThreadPool sized by
/// ClosedLoopConfig::engineThreads. Per-component queues preserve the
/// serial pop order within every component (seeds enter in ascending
/// session order, reschedules follow pops), faults apply per component
/// strictly before any packet at or after their time, and all RNG
/// streams are per-receiver or per-link — so trajectories, bins, and
/// fair epochs are bit-identical to runClosedLoopSimulation at every
/// thread count. Always takes the partitioned path (even at one
/// thread); the fluid fast-forward mode is never armed here.
ClosedLoopResult runClosedLoopSimulationParallel(
    const net::Network& network, const ClosedLoopConfig& config);

/// The speculative intra-component engine: simulated time is split into
/// epochs bounded by shared-link state-change events (session start/stop
/// and fault times — the same horizons that clip the fluid engine's
/// fast-forward), sender-side packet generation for the NEXT epoch runs
/// on util::ThreadPool workers via the closed-form emission formula
/// while the current epoch's admit loop is still in flight, token-bucket
/// admits shard by link, and receiver accounting shards by session
/// against a frozen snapshot of every receiver's subscription level.
/// Reconciliation validates the speculative arrival curve of each bucket
/// against the serial-order admit decisions: an epoch in which some
/// receiver's level moved off its snapshot in a way that changes any
/// packet's touched-link set is rolled back wholesale (receivers, RNG
/// streams, buckets, loss state, and accumulators restored from the
/// epoch-entry snapshot) and replayed serially in exact merge order, so
/// the committed trajectory is bit-identical to the serial event engine
/// at every thread count — the parity fuzz suite pins this across
/// topologies, loss models, fault schedules, and 1/2/4/8 workers. The
/// steady packet loop is allocation-free; every arena is sized up front
/// from the closed-form per-epoch packet bounds.
ClosedLoopResult runClosedLoopSimulationSpeculative(
    const net::Network& network, const ClosedLoopConfig& config);

/// The event-driven engine with the fluid fast-forward mode always armed:
/// per-packet execution until every live receiver is absorbing and every
/// link is certified drop-free, closed-form advance from there to the end
/// of the run. Bit-identical to runClosedLoopSimulation whenever the
/// certificate is sound (which the parity suite pins), and identical by
/// construction when it never engages.
ClosedLoopResult runClosedLoopSimulationFluid(const net::Network& network,
                                              const ClosedLoopConfig& config);

/// The original driver: identical trajectories, but the per-packet merge
/// scans all sessions (O(sessions) per packet). Retained as the parity
/// oracle and benchmark baseline; use runClosedLoopSimulation otherwise.
ClosedLoopResult runClosedLoopSimulationReference(
    const net::Network& network, const ClosedLoopConfig& config);

/// Mean relative deviation of measured rates from a reference
/// allocation: mean_r |measured(r) - ref(r)| / max(ref(r), floor).
/// `floor` guards division for near-zero fair rates.
double fairnessGap(const net::Network& network,
                   const ClosedLoopResult& result,
                   const fairness::Allocation& reference,
                   double floor = 1e-9);

}  // namespace mcfair::sim
