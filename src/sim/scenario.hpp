// Scenario engine: parameterized closed-loop experiment populations.
//
// The paper's Section 4 experiments are hand-built topologies with a
// handful of sessions; the scenario engine generalizes that driver into
// a generator for large, heterogeneous populations — the workloads the
// event-driven session engine exists for (10k-100k concurrent sessions).
// A ScenarioSpec describes a population statistically (session count,
// protocol mix, arrival/departure processes, private-tail capacity
// distribution, exogenous loss); buildScenario() expands it into a
// concrete Scenario — a net::Network plus a ClosedLoopConfig — fully
// deterministically from the spec's seed, so every scenario is
// reproducible and shareable by (name, seed) alone.
//
// The catalog (scenarioCatalog()) names the standard presets used by the
// benches: steady shared bottlenecks, heterogeneous protocol mixes with
// single-rate (CBR-like) competitors, flash-crowd arrivals, sustained
// churn with the fair-epoch reference enabled, lossy and bursty-loss
// backbones, and the mega-merge stress population for the packet-merge
// benchmarks.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "net/network.hpp"
#include "sim/closed_loop.hpp"

namespace mcfair::sim {

/// One entry of a heterogeneous session-population mix.
struct SessionMix {
  /// Protocol / layer configuration stamped onto sessions drawn from this
  /// entry. startTime/stopTime are overwritten by the spec's arrival and
  /// lifetime processes.
  ClosedLoopSessionConfig session;
  /// chi(S_i) recorded in the generated Network. kSingleRate models the
  /// paper's non-layered (CBR-like) competitors; pair it with
  /// session.layers == 1 so the sender cannot adapt its rate.
  net::SessionType type = net::SessionType::kMultiRate;
  /// Relative probability of drawing this entry; must be positive.
  double weight = 1.0;
};

/// Exogenous-loss selector, expanded into ClosedLoopConfig::linkLoss.
struct LossSpec {
  enum class Kind {
    kNone,            ///< endogenous (token-bucket) loss only
    kBernoulli,       ///< independent per-packet loss at `rate`
    kGilbertElliott,  ///< bursty loss averaging `rate` (see below)
  };
  Kind kind = Kind::kNone;
  /// Long-run average loss probability per link (both lossy kinds).
  double rate = 0.0;
  /// Gilbert-Elliott only: expected number of packets per bad-state
  /// burst (badToGood = 1 / meanBurst).
  double meanBurst = 8.0;
  /// Gilbert-Elliott only: loss probability inside the bad state; the
  /// good state is loss-free and goodToBad is solved so the stationary
  /// loss rate equals `rate`. Requires badLossRate > rate.
  double badLossRate = 0.5;
};

/// Fault-injection axis, expanded into ClosedLoopConfig::faults (see
/// net/fault.hpp). The expansion is load-aware: targeted kinds pick
/// their victim links from the routed session load the topology section
/// just computed, so "fail the busiest edge" means the same thing on a
/// shared link, a scale-free tree, and a routed mesh.
struct FaultAxis {
  enum class Kind {
    kNone,  ///< no faults (the default)
    /// The `links` most-crossed backbone edges flap: down at `start`,
    /// optionally degraded to `degradeFactor` at the midpoint of the
    /// outage, fully repaired at `repair`. Works on every topology
    /// (ties break toward the lower link id).
    kFlap,
    /// Every backbone edge incident to the highest-degree hub node goes
    /// down at `start` and is repaired at `repair` — the correlated
    /// regional outage. Mesh topologies only (a tree partition is just
    /// kFlap on the hub's up-edge).
    kPartition,
    /// Independent per-link MTBF/MTTR renewal processes over every link
    /// (tails included), drawn from the spec seed via
    /// net::randomFaultSchedule.
    kRandom,
  };
  Kind kind = Kind::kNone;
  /// kFlap: how many top-loaded backbone edges flap.
  std::size_t links = 1;
  /// kFlap / kPartition: outage window [start, repair).
  double start = 600.0;
  double repair = 1200.0;
  /// kFlap: when > 0, the outage passes through a degraded middle phase
  /// (capacity * degradeFactor at the window midpoint) instead of going
  /// straight from down to repaired — the down -> degrade -> up
  /// staircase the acceptance suite pins. Also the kRandom degrade
  /// factor (0 = failures take links fully down).
  double degradeFactor = 0.0;
  /// kRandom: mean time between failures / to repair per link.
  double mtbf = 400.0;
  double mttr = 60.0;
};

/// A parameterized closed-loop experiment population.
///
/// Topology: one shared backbone link (capacity scales with the session
/// count) — the shape of the paper's star experiments, scaled out — a
/// Barabási–Albert scale-free *tree* backbone (unique paths), or a
/// routed *mesh* backbone (BA m >= 2 / Waxman / random-regular graphs,
/// per-session multicast trees picked by a graph::RoutePlan); in every
/// case optionally plus one private tail link per receiver.
struct ScenarioSpec {
  /// Backbone shape.
  enum class Topology {
    /// One shared link crossed by every receiver (the default).
    kSharedLink,
    /// The *tree* scale-free variant: a Barabási–Albert preferential-
    /// attachment tree (m = 1) of backboneNodes nodes rooted at the
    /// sender side. Every session transmits from the root, each
    /// receiver sits at a uniformly drawn non-root node, and — because
    /// a tree has unique paths — its data-path is forced to be its root
    /// path; no routing decision exists. Degrees follow the scale-free
    /// power law, so a few hub edges carry most sessions — the
    /// bottleneck-distribution setting of the PAPERS.md (Sreenivasan et
    /// al.) study. For the graph variant, where paths are *chosen* by
    /// the routing layer rather than forced, see kScaleFreeGraph.
    kScaleFreeTree,
    /// Routed mesh: a Barabási–Albert graph with m = meshEdgesPerNode
    /// (>= 2 gives cycles). Each session gets a uniformly drawn sender
    /// node and receivers on other nodes; data-paths come from a
    /// graph::RoutePlan (weighted SPT over jittered link weights when
    /// meshWeightJitter > 0, hop count otherwise), so routing — not
    /// topology — picks the bottlenecks.
    kScaleFreeGraph,
    /// Routed mesh over a Waxman geometric random graph
    /// (waxmanAlpha/waxmanBeta) — the classic meshed-backbone model.
    kWaxman,
    /// Routed mesh over a random regularDegree-regular graph — the
    /// degree-homogeneous control for the scale-free families.
    kRandomRegular,
  };

  std::string name = "custom";
  std::string description;

  std::size_t sessions = 4;
  std::size_t receiversPerSession = 1;

  Topology topology = Topology::kSharedLink;
  /// Node count of the non-kSharedLink backbones (>= 2; ignored for
  /// kSharedLink).
  std::size_t backboneNodes = 32;

  /// kScaleFreeGraph: the BA "m" — edges each new node attaches with
  /// (>= 2 creates the cycles that make routing meaningful; requires
  /// backboneNodes > meshEdgesPerNode).
  std::size_t meshEdgesPerNode = 2;
  /// kWaxman link probability alpha * exp(-d / (beta * sqrt(2))).
  double waxmanAlpha = 0.6;
  double waxmanBeta = 0.35;
  /// kRandomRegular node degree (nodes * degree must be even).
  std::size_t regularDegree = 4;
  /// Mesh topologies: > 0 routes on per-link weights drawn uniformly
  /// from [1, 1 + jitter) — path diversity that makes routed paths
  /// deviate from (and occasionally be longer than) hop-shortest ones;
  /// 0 routes on hop count.
  double meshWeightJitter = 1.0;

  /// kSharedLink: backbone capacity = sessions * backbonePerSession
  /// (packets per time unit), so per-session contention is
  /// scale-invariant. Tree/mesh backbones: per-edge capacity =
  /// backbonePerSession * sessions whose routed paths cross the edge
  /// (load-proportional provisioning).
  double backbonePerSession = 2.0;
  /// kSharedLink only: number of DISJOINT backbone links the sessions
  /// round-robin across (session i crosses link i % bottleneckGroups),
  /// each provisioned for its own crossing count. 1 (the default) is the
  /// classic single shared bottleneck; > 1 yields that many independent
  /// link-set components — the workload the component-parallel engine
  /// (ClosedLoopConfig::engineThreads) spreads across threads. Adds no
  /// RNG draws, so group 1 replays existing seeds bit-identically.
  std::size_t bottleneckGroups = 1;
  /// When tailCapacityMax > 0, every receiver gets a private tail link
  /// with capacity uniform in [tailCapacityMin, tailCapacityMax] — the
  /// heterogeneous-receiver setting where multi-rate delivery pays off.
  double tailCapacityMin = 0.0;
  double tailCapacityMax = 0.0;

  double duration = 2000.0;
  double warmup = 500.0;

  /// Arrival process: 0 = every session starts at t = 0; > 0 = start
  /// times drawn uniformly from [0, arrivalWindow).
  double arrivalWindow = 0.0;
  /// Departure process: finite = exponential session lifetime with this
  /// mean (floored at minLifetime); infinity (default) = sessions run to
  /// the end of the experiment.
  double meanLifetime = std::numeric_limits<double>::infinity();
  double minLifetime = 50.0;

  /// Heterogeneous session mix; empty = all Coordinated with 8 layers.
  std::vector<SessionMix> mix;

  LossSpec loss;

  /// Fault-injection axis; expanded into ClosedLoopConfig::faults after
  /// the topology (and its routed link loads) is built.
  FaultAxis faults;

  /// Forwarded into ClosedLoopConfig (see closed_loop.hpp).
  bool computeFairEpochs = false;
  /// Forwarded into ClosedLoopConfig::engineThreads: thread count for
  /// the component-parallel transient engine (-1 = MCFAIR_SIM_THREADS).
  int engineThreads = -1;
  double rateBinWidth = 0.0;
  /// Forwarded into ClosedLoopConfig::fluidFastForward: lets a preset
  /// opt into the fluid fast-forward engine (analytic steady-interval
  /// execution; see runClosedLoopSimulationFluid).
  bool fluidFastForward = false;

  std::uint64_t seed = 1;
};

/// A fully built experiment: expanded topology plus driver config. The
/// config's per-session entries may be edited freely before running
/// (benches pin specific lifetimes this way).
struct Scenario {
  std::string name;
  net::Network network;
  ClosedLoopConfig config;
  /// Mesh topologies only (node count 0 otherwise): the backbone graph
  /// the data-paths were routed over. Network link j < linkCount() of
  /// the backbone is graph link j; tail links follow. Tests use it to
  /// check routed paths against the substrate (e.g. BFS-tree
  /// containment).
  graph::Graph backbone;
  /// Mesh topologies only: each session's sender node and each
  /// receiver's node (session-major, receiversPerSession per session).
  std::vector<graph::NodeId> senderNode;
  std::vector<graph::NodeId> receiverNode;
};

/// Expands a spec deterministically (equal specs produce equal
/// scenarios). Throws PreconditionError on inconsistent parameters.
Scenario buildScenario(const ScenarioSpec& spec);

/// Convenience: runClosedLoopSimulation(s.network, s.config).
ClosedLoopResult runScenario(const Scenario& s);

/// Builds one loss model for a LossSpec (null for Kind::kNone). Exposed
/// for tests; buildScenario installs it for every link via
/// ClosedLoopConfig::linkLoss.
std::unique_ptr<LossModel> makeLossModel(const LossSpec& loss);

/// The named presets (stable order, unique names).
const std::vector<ScenarioSpec>& scenarioCatalog();

/// Catalog lookup by name; null when absent.
const ScenarioSpec* findScenario(std::string_view name);

}  // namespace mcfair::sim
