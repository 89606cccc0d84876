#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/generators.hpp"
#include "graph/route_plan.hpp"
#include "net/fault.hpp"
#include "util/error.hpp"

namespace mcfair::sim {

namespace {

// Draws one mix entry index by relative weight.
std::size_t drawMixEntry(const std::vector<SessionMix>& mix,
                         double totalWeight, util::Rng& rng) {
  double u = rng.uniform01() * totalWeight;
  for (std::size_t m = 0; m < mix.size(); ++m) {
    u -= mix[m].weight;
    if (u < 0.0) return m;
  }
  return mix.size() - 1;
}

}  // namespace

std::unique_ptr<LossModel> makeLossModel(const LossSpec& loss) {
  switch (loss.kind) {
    case LossSpec::Kind::kNone:
      return nullptr;
    case LossSpec::Kind::kBernoulli:
      return std::make_unique<BernoulliLoss>(loss.rate);
    case LossSpec::Kind::kGilbertElliott: {
      // Stationary loss rate of GilbertElliottLoss with a loss-free good
      // state is g * pBad / (g + b); solve g for the requested average.
      MCFAIR_REQUIRE(loss.meanBurst >= 1.0,
                     "GilbertElliott meanBurst must be >= 1");
      MCFAIR_REQUIRE(loss.badLossRate > loss.rate && loss.rate >= 0.0,
                     "GilbertElliott needs badLossRate > rate >= 0");
      const double badToGood = 1.0 / loss.meanBurst;
      const double goodToBad =
          loss.rate * badToGood / (loss.badLossRate - loss.rate);
      return std::make_unique<GilbertElliottLoss>(goodToBad, badToGood, 0.0,
                                                 loss.badLossRate);
    }
  }
  return nullptr;
}

Scenario buildScenario(const ScenarioSpec& spec) {
  MCFAIR_REQUIRE(spec.sessions >= 1, "scenario needs >= 1 session");
  MCFAIR_REQUIRE(spec.receiversPerSession >= 1,
                 "scenario needs >= 1 receiver per session");
  MCFAIR_REQUIRE(spec.backbonePerSession > 0.0,
                 "backbonePerSession must be positive");
  MCFAIR_REQUIRE(spec.bottleneckGroups >= 1,
                 "bottleneckGroups must be >= 1");
  MCFAIR_REQUIRE(spec.topology == ScenarioSpec::Topology::kSharedLink ||
                     spec.bottleneckGroups == 1,
                 "bottleneckGroups > 1 is a kSharedLink knob");
  MCFAIR_REQUIRE(spec.topology == ScenarioSpec::Topology::kSharedLink ||
                     spec.backboneNodes >= 2,
                 "graph backbones need >= 2 nodes");
  MCFAIR_REQUIRE(spec.topology != ScenarioSpec::Topology::kScaleFreeGraph ||
                     (spec.meshEdgesPerNode >= 1 &&
                      spec.backboneNodes > spec.meshEdgesPerNode),
                 "scale-free mesh needs 1 <= meshEdgesPerNode < "
                 "backboneNodes");
  MCFAIR_REQUIRE(spec.meshWeightJitter >= 0.0,
                 "meshWeightJitter must be >= 0");
  MCFAIR_REQUIRE(spec.tailCapacityMax == 0.0 ||
                     (spec.tailCapacityMin > 0.0 &&
                      spec.tailCapacityMin <= spec.tailCapacityMax),
                 "need 0 < tailCapacityMin <= tailCapacityMax (or max = 0)");
  MCFAIR_REQUIRE(spec.arrivalWindow >= 0.0 &&
                     spec.arrivalWindow < spec.duration,
                 "arrivalWindow must lie inside [0, duration)");
  MCFAIR_REQUIRE(spec.meanLifetime > 0.0 && spec.minLifetime > 0.0,
                 "lifetimes must be positive");
  if (spec.faults.kind == FaultAxis::Kind::kFlap ||
      spec.faults.kind == FaultAxis::Kind::kPartition) {
    MCFAIR_REQUIRE(spec.faults.start >= 0.0 &&
                       spec.faults.repair > spec.faults.start,
                   "fault axis needs 0 <= start < repair");
  }
  MCFAIR_REQUIRE(
      spec.faults.kind != FaultAxis::Kind::kFlap || spec.faults.links >= 1,
      "kFlap needs links >= 1");
  MCFAIR_REQUIRE(spec.faults.kind != FaultAxis::Kind::kRandom ||
                     (spec.faults.mtbf > 0.0 && spec.faults.mttr > 0.0),
                 "kRandom needs positive mtbf and mttr");

  std::vector<SessionMix> mix = spec.mix;
  if (mix.empty()) {
    mix.push_back(SessionMix{});  // Coordinated, 8 layers (the defaults)
  }
  double totalWeight = 0.0;
  for (const auto& m : mix) {
    MCFAIR_REQUIRE(m.weight > 0.0, "mix weights must be positive");
    MCFAIR_REQUIRE(m.type == net::SessionType::kMultiRate ||
                       spec.receiversPerSession == 1 ||
                       m.session.layers == 1,
                   "single-rate mix entries with several receivers need "
                   "layers == 1 (one uniform rate)");
    totalWeight += m.weight;
  }

  // Structure and dynamics are drawn from separate child streams so that
  // adding a knob to one cannot silently reshuffle the other.
  util::Rng root(spec.seed);
  util::Rng topologyRng = root.split();
  util::Rng mixRng = root.split();
  util::Rng dynamicsRng = root.split();
  util::Rng faultRng = root.split();

  Scenario s;
  s.name = spec.name;

  // Mix choices come off their own stream up front, so the topology
  // branch below cannot perturb them (and the kSharedLink per-stream
  // draw sequences stay exactly what they were before the scale-free
  // generator existed).
  std::vector<std::size_t> mixChoice(spec.sessions);
  for (std::size_t i = 0; i < spec.sessions; ++i) {
    mixChoice[i] = drawMixEntry(mix, totalWeight, mixRng);
  }

  const bool scaleFree =
      spec.topology == ScenarioSpec::Topology::kScaleFreeTree;
  const bool mesh =
      spec.topology == ScenarioSpec::Topology::kScaleFreeGraph ||
      spec.topology == ScenarioSpec::Topology::kWaxman ||
      spec.topology == ScenarioSpec::Topology::kRandomRegular;
  MCFAIR_REQUIRE(spec.faults.kind != FaultAxis::Kind::kPartition || mesh,
                 "kPartition targets a mesh hub; use kFlap on tree or "
                 "shared-link topologies");
  // kSharedLink: the disjoint backbone links sessions round-robin
  // across (groupLinks[i % groups]; one entry when bottleneckGroups=1).
  std::vector<graph::LinkId> groupLinks;
  // Sessions crossing each backbone link — the load the targeted fault
  // kinds pick their victims from (tails are never load-targeted).
  std::vector<std::size_t> backboneLoad;
  // kScaleFreeTree structure: parent pointers of the preferential-
  // attachment tree, each receiver's node, and one link per tree edge
  // (edgeLink[v] is the up-edge of non-root node v).
  std::vector<std::size_t> parent;
  std::vector<std::size_t> receiverNode;  // session-major, per receiver
  std::vector<graph::LinkId> edgeLink;
  // Mesh structure: routed per-receiver backbone paths (session-major).
  std::vector<std::vector<graph::LinkId>> meshPath;
  if (mesh) {
    // Substrate first, all draws off the topology stream.
    graph::Graph g;
    switch (spec.topology) {
      case ScenarioSpec::Topology::kScaleFreeGraph:
        g = graph::scaleFreeGraph(
            topologyRng, {spec.backboneNodes, spec.meshEdgesPerNode, 1.0});
        break;
      case ScenarioSpec::Topology::kWaxman:
        g = graph::waxmanGraph(topologyRng, {spec.backboneNodes,
                                             spec.waxmanAlpha,
                                             spec.waxmanBeta, 1.0});
        break;
      default:
        g = graph::randomRegularGraph(
            topologyRng, {spec.backboneNodes, spec.regularDegree, 1.0, 200});
        break;
    }
    // Routing policy: jittered link weights give path diversity (routed
    // paths deviate from hop-shortest ones), hop count otherwise.
    graph::RouteOptions ropts;
    if (spec.meshWeightJitter > 0.0) {
      ropts.policy = graph::RoutePolicy::kWeighted;
      ropts.weights.reserve(g.linkCount());
      for (std::uint32_t l = 0; l < g.linkCount(); ++l) {
        ropts.weights.push_back(
            topologyRng.uniform(1.0, 1.0 + spec.meshWeightJitter));
      }
    }
    graph::RoutePlan plan(g, std::move(ropts));
    // Member placement: uniform sender per session, receivers on other
    // nodes; the plan caches one SPT per distinct sender, so large
    // populations on a fixed-size backbone stay cheap.
    meshPath.resize(spec.sessions * spec.receiversPerSession);
    s.senderNode.reserve(spec.sessions);
    s.receiverNode.reserve(meshPath.size());
    for (std::size_t i = 0; i < spec.sessions; ++i) {
      const graph::NodeId sender{
          static_cast<std::uint32_t>(topologyRng.below(g.nodeCount()))};
      s.senderNode.push_back(sender);
      for (std::size_t k = 0; k < spec.receiversPerSession; ++k) {
        std::uint32_t node =
            static_cast<std::uint32_t>(topologyRng.below(g.nodeCount()));
        while (node == sender.value) {
          node = static_cast<std::uint32_t>(topologyRng.below(g.nodeCount()));
        }
        s.receiverNode.push_back(graph::NodeId{node});
        meshPath[i * spec.receiversPerSession + k] =
            plan.path(sender, graph::NodeId{node});
      }
    }
    // Load-proportional provisioning: a session crosses a link when any
    // of its receivers' routed paths does (stamp-deduplicated), and
    // each link is provisioned backbonePerSession per crossing session.
    std::vector<std::size_t> crossing(g.linkCount(), 0);
    std::vector<std::uint32_t> stamp(g.linkCount(), 0);
    for (std::size_t i = 0; i < spec.sessions; ++i) {
      for (std::size_t k = 0; k < spec.receiversPerSession; ++k) {
        for (const graph::LinkId l :
             meshPath[i * spec.receiversPerSession + k]) {
          if (stamp[l.value] == i + 1) continue;
          stamp[l.value] = static_cast<std::uint32_t>(i + 1);
          ++crossing[l.value];
        }
      }
    }
    for (std::uint32_t l = 0; l < g.linkCount(); ++l) {
      s.network.addLink(spec.backbonePerSession *
                        static_cast<double>(
                            std::max<std::size_t>(1, crossing[l])));
    }
    backboneLoad = crossing;
    s.backbone = std::move(g);
  } else if (!scaleFree) {
    // Disjoint shared bottlenecks: session i crosses group i % groups,
    // each link provisioned for exactly its crossing count. groups = 1
    // is the classic single shared link (and draws nothing from any RNG
    // stream, so existing seeds replay bit-identically).
    const std::size_t groups =
        std::min(spec.bottleneckGroups, spec.sessions);
    groupLinks.reserve(groups);
    backboneLoad.assign(groups, 0);
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t load =
          spec.sessions / groups + (g < spec.sessions % groups ? 1 : 0);
      groupLinks.push_back(s.network.addLink(
          static_cast<double>(load) * spec.backbonePerSession));
      backboneLoad[g] = load;
    }
  } else {
    const std::size_t nodes = spec.backboneNodes;
    parent.assign(nodes, 0);
    // Classic BA growth with m = 1: each endpoint slot of the edge list
    // appears once per incident edge, so a uniform draw over the slots
    // attaches the new node with probability proportional to degree.
    std::vector<std::size_t> endpoints;
    endpoints.reserve(2 * (nodes - 1));
    for (std::size_t v = 1; v < nodes; ++v) {
      parent[v] =
          v == 1 ? 0 : endpoints[topologyRng.below(endpoints.size())];
      endpoints.push_back(parent[v]);
      endpoints.push_back(v);
    }
    // Receiver placement, then per-edge session counts (a session
    // crosses an edge when any of its receivers' root paths does) for
    // load-proportional provisioning: hub edges near the root carry many
    // sessions and get capacity to match, leaf edges stay thin — the
    // scale-free bottleneck distribution.
    receiverNode.resize(spec.sessions * spec.receiversPerSession);
    std::vector<std::size_t> crossing(nodes, 0);
    std::vector<std::uint32_t> seenBySession(nodes, 0);
    for (std::size_t i = 0; i < spec.sessions; ++i) {
      for (std::size_t k = 0; k < spec.receiversPerSession; ++k) {
        const std::size_t node = 1 + topologyRng.below(nodes - 1);
        receiverNode[i * spec.receiversPerSession + k] = node;
        for (std::size_t v = node; v != 0; v = parent[v]) {
          if (seenBySession[v] == i + 1) break;  // rest of path counted
          seenBySession[v] = static_cast<std::uint32_t>(i + 1);
          ++crossing[v];
        }
      }
    }
    edgeLink.resize(nodes);
    backboneLoad.assign(nodes - 1, 0);
    for (std::size_t v = 1; v < nodes; ++v) {
      edgeLink[v] = s.network.addLink(
          spec.backbonePerSession *
          static_cast<double>(std::max<std::size_t>(1, crossing[v])));
      backboneLoad[edgeLink[v].value] = crossing[v];
    }
  }

  s.config.duration = spec.duration;
  s.config.warmup = spec.warmup;
  s.config.rateBinWidth = spec.rateBinWidth;
  s.config.computeFairEpochs = spec.computeFairEpochs;
  s.config.engineThreads = spec.engineThreads;
  s.config.speculationThreads = spec.speculationThreads;
  s.config.speculativeEpochs = spec.speculativeEpochs;
  s.config.fluidFastForward = spec.fluidFastForward;
  s.config.seed = spec.seed;
  s.config.sessions.reserve(spec.sessions);

  for (std::size_t i = 0; i < spec.sessions; ++i) {
    const SessionMix& entry = mix[mixChoice[i]];
    net::Session session;
    session.type = entry.type;
    session.name = "S" + std::to_string(i + 1);
    for (std::size_t k = 0; k < spec.receiversPerSession; ++k) {
      std::vector<graph::LinkId> path;
      if (mesh) {
        path = std::move(meshPath[i * spec.receiversPerSession + k]);
      } else if (scaleFree) {
        for (std::size_t v = receiverNode[i * spec.receiversPerSession + k];
             v != 0; v = parent[v]) {
          path.push_back(edgeLink[v]);
        }
      } else {
        path.push_back(groupLinks[i % groupLinks.size()]);
      }
      if (spec.tailCapacityMax > 0.0) {
        path.push_back(s.network.addLink(topologyRng.uniform(
            spec.tailCapacityMin, spec.tailCapacityMax)));
      }
      session.receivers.push_back(net::makeReceiver(
          std::move(path),
          "r" + std::to_string(i + 1) + "," + std::to_string(k + 1)));
    }
    s.network.addSession(std::move(session));

    ClosedLoopSessionConfig sc = entry.session;
    sc.startTime = spec.arrivalWindow > 0.0
                       ? dynamicsRng.uniform(0.0, spec.arrivalWindow)
                       : 0.0;
    if (std::isfinite(spec.meanLifetime)) {
      // Exponential lifetime via inverse transform; 1 - u avoids log(0).
      const double life =
          -spec.meanLifetime * std::log(1.0 - dynamicsRng.uniform01());
      sc.stopTime = sc.startTime + std::max(spec.minLifetime, life);
    }
    s.config.sessions.push_back(sc);
  }

  if (spec.faults.kind == FaultAxis::Kind::kRandom) {
    net::RandomFaultOptions fopt;
    fopt.mtbf = spec.faults.mtbf;
    fopt.mttr = spec.faults.mttr;
    fopt.degradeFactor = spec.faults.degradeFactor;
    s.config.faults = net::randomFaultSchedule(
        s.network.linkCount(), spec.duration, fopt, faultRng());
  } else if (spec.faults.kind != FaultAxis::Kind::kNone) {
    std::vector<graph::LinkId> victims;
    if (spec.faults.kind == FaultAxis::Kind::kFlap) {
      // The `links` most-crossed backbone edges, ties to the lower id.
      std::vector<std::uint32_t> order(backboneLoad.size());
      for (std::uint32_t l = 0; l < order.size(); ++l) order[l] = l;
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  if (backboneLoad[a] != backboneLoad[b]) {
                    return backboneLoad[a] > backboneLoad[b];
                  }
                  return a < b;
                });
      const std::size_t n = std::min(spec.faults.links, order.size());
      for (std::size_t i = 0; i < n; ++i) {
        victims.push_back(graph::LinkId{order[i]});
      }
    } else {  // kPartition: everything incident to the busiest hub
      graph::NodeId hub{0};
      std::size_t hubDegree = 0;
      for (std::uint32_t v = 0; v < s.backbone.nodeCount(); ++v) {
        const std::size_t d = s.backbone.neighbors(graph::NodeId{v}).size();
        if (d > hubDegree) {
          hubDegree = d;
          hub = graph::NodeId{v};
        }
      }
      for (const graph::Adjacency& a : s.backbone.neighbors(hub)) {
        victims.push_back(a.link);
      }
    }
    const double mid =
        spec.faults.start + 0.5 * (spec.faults.repair - spec.faults.start);
    for (const graph::LinkId l : victims) {
      s.config.faults.events.push_back(
          net::FaultEvent{spec.faults.start, net::FaultKind::kLinkDown, l});
      if (spec.faults.kind == FaultAxis::Kind::kFlap &&
          spec.faults.degradeFactor > 0.0) {
        s.config.faults.events.push_back(
            net::FaultEvent{mid, net::FaultKind::kDegrade, l,
                            spec.faults.degradeFactor});
      }
      s.config.faults.events.push_back(
          net::FaultEvent{spec.faults.repair, net::FaultKind::kLinkUp, l});
    }
  }
  s.config.faults.normalize(s.network.linkCount());

  if (spec.loss.kind != LossSpec::Kind::kNone) {
    s.config.linkLoss = [loss = spec.loss](graph::LinkId) {
      return makeLossModel(loss);
    };
  }
  return s;
}

ClosedLoopResult runScenario(const Scenario& s) {
  return runClosedLoopSimulation(s.network, s.config);
}

const std::vector<ScenarioSpec>& scenarioCatalog() {
  static const std::vector<ScenarioSpec> catalog = [] {
    std::vector<ScenarioSpec> v;

    {
      ScenarioSpec s;
      s.name = "steady-bottleneck";
      s.description =
          "8 homogeneous Coordinated sessions on one shared backbone; the "
          "baseline convergence workload";
      s.sessions = 8;
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "heterogeneous-mix";
      s.description =
          "12 sessions mixing all three layered protocols with single-rate "
          "(CBR-like) competitors, heterogeneous private tails";
      s.sessions = 12;
      s.tailCapacityMin = 1.0;
      s.tailCapacityMax = 16.0;
      s.mix = {
          SessionMix{{ProtocolKind::kCoordinated, 6, 1},
                     net::SessionType::kMultiRate, 3.0},
          SessionMix{{ProtocolKind::kDeterministic, 6, 1},
                     net::SessionType::kMultiRate, 2.0},
          SessionMix{{ProtocolKind::kUncoordinated, 6, 1},
                     net::SessionType::kMultiRate, 2.0},
          SessionMix{{ProtocolKind::kDeterministic, 1, 1},
                     net::SessionType::kSingleRate, 1.0},
      };
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "flash-crowd";
      s.description =
          "16 sessions all arriving within the first 200 time units — the "
          "Section 5 startup transient, en masse";
      s.sessions = 16;
      s.arrivalWindow = 200.0;
      s.warmup = 400.0;
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "churn";
      s.description =
          "12 sessions with staggered arrivals and exponential lifetimes; "
          "fair epochs recomputed at every boundary (the incremental "
          "solver's churn workload)";
      s.sessions = 12;
      s.arrivalWindow = 1000.0;
      s.meanLifetime = 600.0;
      s.minLifetime = 100.0;
      s.warmup = 0.0;
      s.computeFairEpochs = true;
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "lossy-backbone";
      s.description =
          "8 sessions with 2% independent exogenous loss on every link on "
          "top of the endogenous token-bucket drops (the paper's Bernoulli "
          "model, closed-loop)";
      s.sessions = 8;
      s.loss.kind = LossSpec::Kind::kBernoulli;
      s.loss.rate = 0.02;
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "bursty-loss";
      s.description =
          "8 sessions under Gilbert-Elliott loss averaging 2% in bursts of "
          "~12 packets — the temporally-correlated sensitivity study";
      s.sessions = 8;
      s.loss.kind = LossSpec::Kind::kGilbertElliott;
      s.loss.rate = 0.02;
      s.loss.meanBurst = 12.0;
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "scale-free-backbone";
      s.description =
          "24 sessions, 2 receivers each, routed over a 48-node "
          "Barabasi-Albert tree backbone: hub edges near the root carry "
          "most sessions (power-law bottleneck distribution, per the "
          "PAPERS.md Sreenivasan et al. study)";
      s.sessions = 24;
      s.receiversPerSession = 2;
      s.topology = ScenarioSpec::Topology::kScaleFreeTree;
      s.backboneNodes = 48;
      s.mix = {SessionMix{{ProtocolKind::kCoordinated, 6, 1},
                          net::SessionType::kMultiRate, 1.0}};
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "steady-fluid";
      s.description =
          "Analytically steady large population: born-absorbing 4-layer "
          "Deterministic sessions (initialLevel == layers) on an amply "
          "provisioned backbone — the fluid fast-forward engine certifies "
          "the whole run drop-free and executes it in closed form "
          "(override `sessions` to sweep)";
      s.sessions = 10000;
      s.backbonePerSession = 10.0;  // aggregate session rate is 8
      s.duration = 40.0;
      s.warmup = 10.0;
      s.mix = {SessionMix{{ProtocolKind::kDeterministic, 4, 4},
                          net::SessionType::kMultiRate, 1.0}};
      s.fluidFastForward = true;
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "mega-merge";
      s.description =
          "Large-N merge stress: 10k single-layer sessions on one "
          "backbone, short horizon — isolates the per-packet merge cost "
          "the event-driven engine removes (override `sessions` to sweep)";
      s.sessions = 10000;
      s.backbonePerSession = 0.5;
      s.duration = 10.0;
      s.warmup = 2.0;
      s.mix = {SessionMix{{ProtocolKind::kDeterministic, 1, 1},
                          net::SessionType::kMultiRate, 1.0}};
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "sharded-bottlenecks";
      s.description =
          "512 congested 3-layer Coordinated sessions round-robined "
          "across 64 disjoint shared bottlenecks (bottleneckGroups), "
          "each provisioned at 1.0 per session against an aggregate "
          "demand of 4 — 64 independent link-set components, the "
          "component-parallel transient engine's reference workload "
          "(override `sessions`/`engineThreads` to sweep)";
      s.sessions = 512;
      s.bottleneckGroups = 64;
      s.backbonePerSession = 1.0;
      s.duration = 10.0;
      s.warmup = 2.0;
      s.mix = {SessionMix{{ProtocolKind::kCoordinated, 3, 1},
                          net::SessionType::kMultiRate, 1.0}};
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "meshed-backbone";
      s.description =
          "24 sessions, 2 receivers each, routed over a 48-node "
          "Barabasi-Albert m=2 mesh: the graph has cycles, so the "
          "routing layer (weighted SPT over jittered link weights, "
          "lowest-id tie-break) — not the topology — picks each "
          "session's distribution tree; per-edge capacity is "
          "proportional to routed load";
      s.sessions = 24;
      s.receiversPerSession = 2;
      s.topology = ScenarioSpec::Topology::kScaleFreeGraph;
      s.backboneNodes = 48;
      s.meshEdgesPerNode = 2;
      s.mix = {SessionMix{{ProtocolKind::kCoordinated, 6, 1},
                          net::SessionType::kMultiRate, 1.0}};
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "link-flap";
      s.description =
          "16 sessions, 2 receivers each, on a 32-node Barabasi-Albert "
          "m=2 mesh whose two busiest routed edges flap (down at t=600, "
          "degraded to half capacity at t=900, repaired at t=1200); the "
          "fluid engine fast-forwards up to the fault, runs per-packet "
          "through the disruption, and re-engages after repair";
      s.sessions = 16;
      s.receiversPerSession = 2;
      s.topology = ScenarioSpec::Topology::kScaleFreeGraph;
      s.backboneNodes = 32;
      s.meshEdgesPerNode = 2;
      s.mix = {SessionMix{{ProtocolKind::kCoordinated, 6, 1},
                          net::SessionType::kMultiRate, 1.0}};
      s.faults.kind = FaultAxis::Kind::kFlap;
      s.faults.links = 2;
      s.faults.start = 600.0;
      s.faults.repair = 1200.0;
      s.faults.degradeFactor = 0.5;
      s.fluidFastForward = true;
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "backbone-partition";
      s.description =
          "16 sessions, 2 receivers each, on a 48-node Waxman mesh whose "
          "highest-degree hub loses every incident edge at t=700 until "
          "t=1400 — the correlated regional outage; receivers behind the "
          "partition degrade to their surviving layers and the fair-epoch "
          "reference (recomputed at each fault boundary) zeroes the "
          "severed receivers";
      s.sessions = 16;
      s.receiversPerSession = 2;
      s.topology = ScenarioSpec::Topology::kWaxman;
      s.backboneNodes = 48;
      s.faults.kind = FaultAxis::Kind::kPartition;
      s.faults.start = 700.0;
      s.faults.repair = 1400.0;
      s.computeFairEpochs = true;
      s.warmup = 0.0;
      v.push_back(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "waxman-regional";
      s.description =
          "16 sessions, 2 receivers each, on a 64-node Waxman "
          "geometric random graph (alpha 0.6, beta 0.35) with "
          "heterogeneous private tails — the meshed regional-backbone "
          "setting of the PAPERS.md ATM fairness studies";
      s.sessions = 16;
      s.receiversPerSession = 2;
      s.topology = ScenarioSpec::Topology::kWaxman;
      s.backboneNodes = 64;
      s.tailCapacityMin = 1.0;
      s.tailCapacityMax = 16.0;
      v.push_back(std::move(s));
    }
    return v;
  }();
  return catalog;
}

const ScenarioSpec* findScenario(std::string_view name) {
  for (const ScenarioSpec& s : scenarioCatalog()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace mcfair::sim
