#include "fairness/maxmin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "util/error.hpp"

namespace mcfair::fairness {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Returns the slope s such that u_{i,j} = s * top whenever `top` is at
// least every other rate in the set, or nullopt when v_i is not of that
// form. Recognizes the two rate-linear functions shipped with the library;
// user-defined functions fall back to bisection.
std::optional<double> topRateSlope(const net::LinkRateFunction& fn,
                                   std::size_t receiversOnLink) {
  if (dynamic_cast<const net::EfficientMax*>(&fn) != nullptr) return 1.0;
  if (const auto* cf = dynamic_cast<const net::ConstantFactor*>(&fn)) {
    return receiversOnLink >= 2 ? cf->factor() : 1.0;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Reference implementation: rebuilds every link view each round. Kept as the
// independent oracle for the parity tests and the perf baseline.
// ---------------------------------------------------------------------------

// Per-round view of one link: the frozen rates per session plus the number
// of active receivers per session, enough to evaluate u_j(level) cheaply.
struct LinkView {
  struct SessionGroup {
    std::size_t session;
    std::vector<double> frozenRates;
    /// Weights of the group's active receivers: each contributes rate
    /// weight * level while filling.
    std::vector<double> activeWeights;
  };
  std::vector<SessionGroup> groups;
  double capacity = 0.0;
  bool hasActive = false;
};

double linkUsageAt(const net::Network& net, const LinkView& view,
                   double level) {
  double u = 0.0;
  std::vector<double> rates;
  for (const auto& g : view.groups) {
    rates.assign(g.frozenRates.begin(), g.frozenRates.end());
    for (double w : g.activeWeights) rates.push_back(w * level);
    u += net.session(g.session).linkRateFn->linkRate(rates);
  }
  return u;
}

}  // namespace

MaxMinResult solveMaxMinFairReference(const net::Network& net,
                                      const MaxMinOptions& options) {
  MCFAIR_REQUIRE(options.tolerance > 0.0, "tolerance must be positive");
  MaxMinResult result{Allocation(net), LinkUsage{}, 0};
  if (net.receiverCount() == 0 || net.linkCount() == 0) {
    result.usage = computeLinkUsage(net, result.allocation);
    return result;
  }

  const auto receivers = net.allReceivers();
  std::vector<bool> frozen(receivers.size(), false);
  // Flat receiver index: offsets[i] + k for receiver r_{i,k}.
  std::vector<std::size_t> offsets(net.sessionCount() + 1, 0);
  for (std::size_t i = 0; i < net.sessionCount(); ++i) {
    offsets[i + 1] = offsets[i] + net.session(i).receivers.size();
  }
  auto flat = [&](net::ReceiverRef ref) {
    return offsets[ref.session] + ref.receiver;
  };
  auto weightOf = [&](net::ReceiverRef ref) {
    return net.session(ref.session).receivers[ref.receiver].weight;
  };
  // Weighted max-min: each active receiver's rate is weight * level, so
  // the filling maximizes min(rate/weight) lexicographically. With unit
  // weights this is the paper's Appendix A algorithm verbatim.
  bool unitWeights = true;
  for (const auto& ref : receivers) {
    if (weightOf(ref) != 1.0) {
      unitWeights = false;
      break;
    }
  }

  double level = 0.0;
  const std::size_t maxRounds = net.receiverCount() + 2;

  while (true) {
    // Collect active receivers; freeze any already at sigma.
    std::vector<net::ReceiverRef> active;
    for (const auto& ref : receivers) {
      if (frozen[flat(ref)]) continue;
      const double sigma = net.session(ref.session).maxRate;
      if (level * weightOf(ref) >= sigma) {  // exact: can reach, not pass
        frozen[flat(ref)] = true;
        result.allocation.setRate(ref, sigma);
        continue;
      }
      active.push_back(ref);
    }
    if (active.empty()) break;
    if (++result.rounds > maxRounds) {
      throw NumericError(
          "solveMaxMinFair: filling failed to terminate; check that custom "
          "link-rate functions are monotone with v(X) >= max(X)");
    }

    // Build per-link views restricted to links with at least one receiver.
    std::vector<LinkView> views(net.linkCount());
    bool allLinear = true;
    for (std::uint32_t j = 0; j < net.linkCount(); ++j) {
      const graph::LinkId l{j};
      const auto refs = net.receiversOnLink(l);
      if (refs.empty()) continue;
      LinkView& view = views[j];
      view.capacity = net.capacity(l);
      std::size_t pos = 0;
      while (pos < refs.size()) {
        LinkView::SessionGroup g;
        g.session = refs[pos].session;
        std::size_t total = 0;
        while (pos < refs.size() && refs[pos].session == g.session) {
          if (frozen[flat(refs[pos])]) {
            g.frozenRates.push_back(result.allocation.rate(refs[pos]));
          } else {
            g.activeWeights.push_back(weightOf(refs[pos]));
          }
          ++total;
          ++pos;
        }
        if (!g.activeWeights.empty()) {
          view.hasActive = true;
          if (!unitWeights ||
              !topRateSlope(*net.session(g.session).linkRateFn, total)) {
            allLinear = false;
          }
        }
        view.groups.push_back(std::move(g));
      }
    }

    // Upper bound on this round's increment: sigma caps and raw capacity
    // (u_j >= w * level for a crossing active receiver, so the level
    // cannot exceed any crossed capacity divided by the weight).
    double hi = kInf;
    for (const auto& ref : active) {
      const double w = weightOf(ref);
      hi = std::min(hi, net.session(ref.session).maxRate / w - level);
      for (graph::LinkId l :
           net.session(ref.session).receivers[ref.receiver].dataPath) {
        hi = std::min(hi, net.capacity(l) / w - level);
      }
    }
    hi = std::max(hi, 0.0);

    // The largest feasible increment.
    double delta;
    if (allLinear) {
      delta = hi;
      for (std::uint32_t j = 0; j < net.linkCount(); ++j) {
        const LinkView& view = views[j];
        if (!view.hasActive) continue;
        // u_j(level+d) = constPart + slopeSum * (level+d).
        double constPart = 0.0;
        double slopeSum = 0.0;
        for (const auto& g : view.groups) {
          const auto& fn = *net.session(g.session).linkRateFn;
          const std::size_t total =
              g.frozenRates.size() + g.activeWeights.size();
          if (!g.activeWeights.empty()) {
            // Unit weights on this path: active receivers carry the top
            // rate of the session on this link (frozen rates froze at
            // lower levels).
            slopeSum += *topRateSlope(fn, total);
          } else {
            constPart += fn.linkRate(g.frozenRates);
          }
        }
        if (slopeSum > 0.0) {
          delta = std::min(delta,
                           (view.capacity - constPart) / slopeSum - level);
        }
      }
      delta = std::max(delta, 0.0);
    } else {
      auto feasibleAt = [&](double d) {
        for (std::uint32_t j = 0; j < net.linkCount(); ++j) {
          const LinkView& view = views[j];
          if (!view.hasActive) continue;
          const double slack = 1e-12 * std::max(1.0, view.capacity);
          if (linkUsageAt(net, view, level + d) > view.capacity + slack) {
            return false;
          }
        }
        return true;
      };
      if (hi == 0.0 || feasibleAt(hi)) {
        delta = hi;
      } else {
        double lo = 0.0;
        double up = hi;
        std::size_t steps = 0;
        while (up - lo > options.tolerance &&
               steps++ < options.maxBisectionSteps) {
          const double mid = 0.5 * (lo + up);
          (feasibleAt(mid) ? lo : up) = mid;
        }
        delta = lo;
      }
    }

    level += delta;

    // Freeze: receivers at sigma, and all active receivers crossing a
    // saturated link.
    std::size_t frozenThisRound = 0;
    auto freezeAt = [&](net::ReceiverRef ref, double rate) {
      if (frozen[flat(ref)]) return;
      frozen[flat(ref)] = true;
      result.allocation.setRate(ref, rate);
      ++frozenThisRound;
    };

    std::vector<bool> saturated(net.linkCount(), false);
    for (std::uint32_t j = 0; j < net.linkCount(); ++j) {
      const LinkView& view = views[j];
      if (!view.hasActive) continue;
      const double slack =
          options.saturationSlack * std::max(1.0, view.capacity);
      saturated[j] = linkUsageAt(net, view, level) >= view.capacity - slack;
    }
    for (const auto& ref : active) {
      const auto& sess = net.session(ref.session);
      const double w = weightOf(ref);
      const double sigmaSlack =
          options.saturationSlack * std::max(1.0, std::isinf(sess.maxRate)
                                                      ? 1.0
                                                      : sess.maxRate);
      if (!std::isinf(sess.maxRate) &&
          level * w >= sess.maxRate - sigmaSlack) {
        freezeAt(ref, sess.maxRate);
        continue;
      }
      for (graph::LinkId l : sess.receivers[ref.receiver].dataPath) {
        if (saturated[l.value]) {
          freezeAt(ref, level * w);
          break;
        }
      }
    }

    // Guard against stalls from a badly-conditioned custom v_i: force the
    // receivers on the most-utilized active link to freeze.
    if (frozenThisRound == 0) {
      double worst = -kInf;
      std::uint32_t worstLink = 0;
      for (std::uint32_t j = 0; j < net.linkCount(); ++j) {
        if (!views[j].hasActive) continue;
        const double headroom =
            views[j].capacity - linkUsageAt(net, views[j], level);
        if (-headroom > worst) {
          worst = -headroom;
          worstLink = j;
        }
      }
      for (const auto& ref : active) {
        if (net.onLink(ref, graph::LinkId{worstLink})) {
          freezeAt(ref, level * weightOf(ref));
        }
      }
      if (frozenThisRound == 0) {
        throw NumericError("solveMaxMinFair: no receiver could be frozen");
      }
    }

    // Step 7: a single-rate session freezes as a unit.
    for (const auto& ref : active) {
      if (frozen[flat(ref)]) continue;
      const auto& sess = net.session(ref.session);
      if (sess.type != net::SessionType::kSingleRate) continue;
      bool anyFrozen = false;
      for (std::size_t k = 0; k < sess.receivers.size(); ++k) {
        if (frozen[offsets[ref.session] + k]) {
          anyFrozen = true;
          break;
        }
      }
      if (anyFrozen) freezeAt(ref, level * weightOf(ref));
    }

    // Active receivers that remain continue at `level` into the next
    // round; record their provisional rate so usage queries mid-run (and
    // the final write-out below) are consistent.
    for (const auto& ref : active) {
      if (!frozen[flat(ref)]) {
        result.allocation.setRate(ref, level * weightOf(ref));
      }
    }
  }

  result.usage = computeLinkUsage(net, result.allocation);
  return result;
}

// ---------------------------------------------------------------------------
// Incremental engine.
//
// All per-network structure (link->receiver adjacency in CSR form, session
// groups per link, per-receiver data-paths with back-pointers into the
// groups, freeze-level orderings) is built once in bind(). During the
// filling loop the only per-round work is:
//   * advancing lazy pointers over the pre-sorted sigma orderings,
//   * reading the minimum link-saturation level off a lazy min-heap
//     (linear path) or bisecting over the compact active-link list
//     (nonlinear path),
//   * a saturation sweep over active links (O(1) per link on the linear
//     path), and
//   * for each receiver that freezes, recomputing the accumulators of the
//     links on its data-path only.
// Every buffer is preallocated in bind(); the loop allocates nothing.
// ---------------------------------------------------------------------------

struct MaxMinSolver::Engine {
  const net::Network* net = nullptr;
  std::uint64_t boundIdentity = 0;   // 0 = never bound
  std::uint64_t boundStructure = 0;  // structureIdentity() of that bind

  // ---- static structure, rebuilt by bind() ----
  std::size_t nSessions = 0;
  std::size_t nLinks = 0;
  std::size_t nReceivers = 0;

  // Per receiver, flat (session-major) index.
  std::vector<std::size_t> sessionOf;
  std::vector<double> weight;
  std::vector<double> sigma;            // sigma_i copied per receiver
  std::vector<double> sigmaLevel;       // sigma_i / w: exact-freeze level
  std::vector<double> sigmaSlackLevel;  // (sigma_i - slack_i) / w
  std::vector<std::size_t> pathBegin;   // nReceivers + 1
  std::vector<std::uint32_t> pathLink;
  std::vector<std::uint32_t> pathGroup;  // group index per path slot

  // Link -> receiver adjacency (flat ids), receivers grouped by session.
  std::vector<std::size_t> adjBegin;  // nLinks + 1
  std::vector<std::uint32_t> adj;

  // R_{i,j} session groups, stored in link order.
  struct Group {
    std::size_t session = 0;
    std::size_t begin = 0, end = 0;  // adj range
    double slope = 0.0;              // top-rate slope; valid when linear
    bool linear = false;
    std::size_t active = 0;  // dynamic: unfrozen receivers in the group
  };
  std::vector<Group> groups;
  std::vector<std::size_t> groupBegin;  // nLinks + 1

  // Per link.
  std::vector<double> capacity;
  std::vector<double> satSlack;      // saturationSlack * max(1, c_j)
  std::vector<double> satThreshold;  // capacity[j] - satSlack[j]
  std::vector<double> bisectSlack;   // 1e-12 * max(1, c_j)

  std::vector<char> sessionSingleRate;
  bool unitWeights = true;

  // Freeze-level orderings (ascending; lazy frozen-skipping pointers).
  std::vector<std::uint32_t> sigmaOrder;       // by sigmaLevel
  std::vector<std::uint32_t> sigmaSlackOrder;  // by sigmaSlackLevel, finite
  struct CapKey {
    double key;  // c_j / w for one (receiver, path-link) pair
    std::uint32_t receiver;
  };
  std::vector<CapKey> capOrder;  // by key

  // Session link-rate function kinds, resolved once at bind() so neither
  // bind() nor the filling loop pays a dynamic_cast per group per round.
  enum class FnKind : std::uint8_t { kMax, kConstFactor, kOther };
  std::vector<FnKind> fnKind;    // per session
  std::vector<double> fnFactor;  // per session; ConstantFactor only

  // ---- dynamic state, reset by solve() ----
  std::vector<char> frozen;
  std::vector<double> rate;
  std::vector<double> linkConst;   // sum of fully-frozen groups' v_i values
  std::vector<double> linkSlope;   // sum of active linear groups' slopes
  std::vector<std::uint32_t> linkActive;
  std::vector<char> linkNonlinear;  // has an active unrecognized group
  std::vector<std::uint32_t> linkVersion;
  std::vector<std::uint32_t> activeLinks;  // compact, unordered
  std::vector<std::uint32_t> activeLinkPos;
  // Dense mirrors of the linear saturation-scan inputs, parallel to
  // activeLinks: slot idx holds (linkConst, linkSlope,
  // capacity - satSlack) of link activeLinks[idx]. The per-round linear
  // scan then reads three contiguous arrays with no indirection and no
  // branch in the loop body — a flat, vectorization-friendly sweep —
  // instead of gathering through activeLinks into the per-link arrays.
  // Maintained by recomputeLink (scatter via activeLinkPos) and the
  // freeze-time swap-remove, i.e. O(affected links) per freeze.
  std::vector<double> denseConst;
  std::vector<double> denseSlope;
  std::vector<double> denseThresh;
  struct Cand {
    double key;  // level at which the link saturates
    std::uint32_t link;
    std::uint32_t version;
  };
  std::vector<Cand> heap;  // lazy min-heap on key
  std::vector<std::uint32_t> dirtyLinks;
  std::vector<char> linkDirty;
  std::vector<std::uint32_t> satLinks;
  std::vector<std::size_t> sessActive;
  std::vector<std::size_t> sessFrozen;
  std::vector<std::uint32_t> pendingSingle;
  std::vector<char> singleQueued;
  std::size_t nonlinearActiveGroups = 0;
  std::size_t activeReceivers = 0;
  std::size_t sigmaPtr = 0;
  std::size_t sigmaSlackPtr = 0;
  std::size_t capPtr = 0;
  std::size_t frozenThisRound = 0;
  double level = 0.0;

  std::vector<double> gather;  // rate-set scratch for v_i calls
  bool usageZeroed = false;    // usage rows hold only stale group cells

  std::optional<MaxMinResult> result;

  static constexpr std::uint32_t kNoPos =
      std::numeric_limits<std::uint32_t>::max();

  void bind(const net::Network& network, const MaxMinOptions& options);
  const MaxMinResult& solve(const MaxMinOptions& options, bool withUsage);

 private:
  // The capacity-only rebind (structureIdentity unchanged, e.g. a fault
  // applied via Network::setCapacity): refreshes every capacity-derived
  // array in place — O(links + pathSlots), allocation-free.
  void refreshCapacities(const net::Network& network,
                         const MaxMinOptions& options);
  void writeUsage();
  void resetDynamicState();
  void freeze(std::uint32_t f, double frozenRate);
  void flushDirtyLinks();
  void heapPush(std::uint32_t j);
  double heapMinKey();
  double nextSigmaMin();
  double nextCapMin();
  // v_i evaluation of one group at `lv`, frozen rates first (matching the
  // reference's gather order so nonlinear v_i see identical inputs).
  double groupUsageAt(const Group& g, double lv);
  double linkUsageFullAt(std::uint32_t j, double lv);
  void recomputeLink(std::uint32_t j);
};

void MaxMinSolver::Engine::bind(const net::Network& network,
                                const MaxMinOptions& options) {
  if (boundIdentity == network.identity()) {
    // Identical structure (identities are process-unique and bumped on
    // every mutation): the CSR workspace is already correct.
    net = &network;
    return;
  }
  if (boundStructure != 0 &&
      boundStructure == network.structureIdentity() && result.has_value()) {
    // Same shape, different capacities (Network::setCapacity — the fault
    // delta path): only the capacity-derived arrays need refreshing.
    refreshCapacities(network, options);
    return;
  }
  net = &network;
  nSessions = network.sessionCount();
  nLinks = network.linkCount();
  nReceivers = network.receiverCount();

  sessionOf.resize(nReceivers);
  weight.resize(nReceivers);
  sigma.resize(nReceivers);
  sigmaLevel.resize(nReceivers);
  sigmaSlackLevel.resize(nReceivers);
  sessionSingleRate.resize(nSessions);
  unitWeights = true;

  const auto refs = network.receiverRefs();
  std::size_t totalPathSlots = 0;
  for (std::size_t f = 0; f < nReceivers; ++f) {
    const auto ref = refs[f];
    const auto& sess = network.session(ref.session);
    const auto& rcv = sess.receivers[ref.receiver];
    sessionOf[f] = ref.session;
    weight[f] = rcv.weight;
    if (rcv.weight != 1.0) unitWeights = false;
    sigma[f] = sess.maxRate;
    sigmaLevel[f] = sess.maxRate / rcv.weight;
    if (std::isinf(sess.maxRate)) {
      sigmaSlackLevel[f] = kInf;
    } else {
      const double slack =
          options.saturationSlack * std::max(1.0, sess.maxRate);
      sigmaSlackLevel[f] = (sess.maxRate - slack) / rcv.weight;
    }
    totalPathSlots += rcv.dataPath.size();
  }
  for (std::size_t i = 0; i < nSessions; ++i) {
    sessionSingleRate[i] =
        network.session(i).type == net::SessionType::kSingleRate ? 1 : 0;
  }

  // Resolve each session's v_i kind once. Sessions typically share a few
  // function instances (efficientMax() is a singleton), so a tiny
  // pointer-keyed cache avoids re-running dynamic_cast per session, let
  // alone per group per round.
  fnKind.resize(nSessions);
  fnFactor.assign(nSessions, 1.0);
  {
    struct CacheEntry {
      const net::LinkRateFunction* fn;
      FnKind kind;
      double factor;
    };
    std::vector<CacheEntry> cache;
    for (std::size_t i = 0; i < nSessions; ++i) {
      const auto* fn = network.session(i).linkRateFn.get();
      const CacheEntry* hit = nullptr;
      for (const auto& e : cache) {
        if (e.fn == fn) {
          hit = &e;
          break;
        }
      }
      if (hit == nullptr) {
        CacheEntry e{fn, FnKind::kOther, 1.0};
        if (dynamic_cast<const net::EfficientMax*>(fn) != nullptr) {
          e.kind = FnKind::kMax;
        } else if (const auto* cf =
                       dynamic_cast<const net::ConstantFactor*>(fn)) {
          e.kind = FnKind::kConstFactor;
          e.factor = cf->factor();
        }
        cache.push_back(e);
        hit = &cache.back();
      }
      fnKind[i] = hit->kind;
      fnFactor[i] = hit->factor;
    }
  }

  // Receiver data-paths, CSR.
  pathBegin.resize(nReceivers + 1);
  pathLink.resize(totalPathSlots);
  pathGroup.assign(totalPathSlots, 0);
  {
    std::size_t pos = 0;
    for (std::size_t f = 0; f < nReceivers; ++f) {
      pathBegin[f] = pos;
      const auto ref = refs[f];
      for (graph::LinkId l :
           network.session(ref.session).receivers[ref.receiver].dataPath) {
        pathLink[pos++] = l.value;
      }
    }
    pathBegin[nReceivers] = pos;
  }

  // Link adjacency and session groups. The per-session top-rate slope is
  // resolved here, once, instead of dynamic_cast-ing every round.
  adjBegin.resize(nLinks + 1);
  adj.clear();
  adj.reserve(totalPathSlots);
  groups.clear();
  groupBegin.resize(nLinks + 1);
  capacity.resize(nLinks);
  satSlack.resize(nLinks);
  satThreshold.resize(nLinks);
  bisectSlack.resize(nLinks);
  std::size_t maxGroupSize = 1;
  for (std::uint32_t j = 0; j < nLinks; ++j) {
    const graph::LinkId l{j};
    adjBegin[j] = adj.size();
    groupBegin[j] = groups.size();
    capacity[j] = network.capacity(l);
    satSlack[j] = options.saturationSlack * std::max(1.0, capacity[j]);
    satThreshold[j] = capacity[j] - satSlack[j];
    bisectSlack[j] = 1e-12 * std::max(1.0, capacity[j]);
    const auto onLink = network.receiversOnLink(l);
    std::size_t pos = 0;
    while (pos < onLink.size()) {
      Group g;
      g.session = onLink[pos].session;
      g.begin = adj.size();
      while (pos < onLink.size() && onLink[pos].session == g.session) {
        adj.push_back(
            static_cast<std::uint32_t>(network.flatIndex(onLink[pos])));
        ++pos;
      }
      g.end = adj.size();
      switch (fnKind[g.session]) {
        case FnKind::kMax:
          g.linear = true;
          g.slope = 1.0;
          break;
        case FnKind::kConstFactor:
          g.linear = true;
          g.slope = g.end - g.begin >= 2 ? fnFactor[g.session] : 1.0;
          break;
        case FnKind::kOther:
          g.linear = false;
          g.slope = 0.0;
          break;
      }
      maxGroupSize = std::max(maxGroupSize, g.end - g.begin);
      groups.push_back(g);
    }
  }
  adjBegin[nLinks] = adj.size();
  groupBegin[nLinks] = groups.size();

  // Back-pointers: for each (receiver, path-link) slot, the group that
  // holds the receiver on that link — freezing updates only these.
  for (std::uint32_t j = 0; j < nLinks; ++j) {
    for (std::size_t gi = groupBegin[j]; gi < groupBegin[j + 1]; ++gi) {
      const Group& g = groups[gi];
      for (std::size_t s = g.begin; s < g.end; ++s) {
        const std::uint32_t f = adj[s];
        // Locate link j in receiver f's (sorted) data-path.
        const std::size_t lo = pathBegin[f];
        const std::size_t hi = pathBegin[f + 1];
        const auto* first = pathLink.data() + lo;
        const auto* last = pathLink.data() + hi;
        const auto* it = std::lower_bound(first, last, j);
        pathGroup[lo + static_cast<std::size_t>(it - first)] =
            static_cast<std::uint32_t>(gi);
      }
    }
  }

  // Freeze-level orderings (ties broken by index for determinism). When
  // every sigma is unlimited the order is irrelevant — skip the sort.
  sigmaOrder.resize(nReceivers);
  bool anyFiniteSigma = false;
  for (std::size_t f = 0; f < nReceivers; ++f) {
    sigmaOrder[f] = static_cast<std::uint32_t>(f);
    if (!std::isinf(sigmaLevel[f])) anyFiniteSigma = true;
  }
  if (anyFiniteSigma) {
    std::sort(sigmaOrder.begin(), sigmaOrder.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (sigmaLevel[a] != sigmaLevel[b]) {
                  return sigmaLevel[a] < sigmaLevel[b];
                }
                return a < b;
              });
  }
  sigmaSlackOrder.clear();
  sigmaSlackOrder.reserve(nReceivers);
  for (std::uint32_t f = 0; f < nReceivers; ++f) {
    if (!std::isinf(sigmaSlackLevel[f])) sigmaSlackOrder.push_back(f);
  }
  std::sort(sigmaSlackOrder.begin(), sigmaSlackOrder.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (sigmaSlackLevel[a] != sigmaSlackLevel[b]) {
                return sigmaSlackLevel[a] < sigmaSlackLevel[b];
              }
              return a < b;
            });
  // The capacity/weight ordering feeds the nonlinear path's upper bound.
  // With unit weights and only rate-linear groups, every round takes the
  // closed form, so skip building it (nonlinearActiveGroups can only
  // decrease during a solve and unitWeights is static).
  bool anyNonlinearGroup = false;
  for (const Group& g : groups) {
    if (!g.linear) {
      anyNonlinearGroup = true;
      break;
    }
  }
  capOrder.clear();
  if (!unitWeights || anyNonlinearGroup) {
    capOrder.reserve(totalPathSlots);
    for (std::size_t f = 0; f < nReceivers; ++f) {
      for (std::size_t s = pathBegin[f]; s < pathBegin[f + 1]; ++s) {
        capOrder.push_back(CapKey{capacity[pathLink[s]] / weight[f],
                                  static_cast<std::uint32_t>(f)});
      }
    }
    std::sort(capOrder.begin(), capOrder.end(),
              [](const CapKey& a, const CapKey& b) {
                if (a.key != b.key) return a.key < b.key;
                return a.receiver < b.receiver;
              });
  }

  // Dynamic buffers: size once here so solve() never allocates.
  frozen.resize(nReceivers);
  rate.resize(nReceivers);
  linkConst.resize(nLinks);
  linkSlope.resize(nLinks);
  linkActive.resize(nLinks);
  linkNonlinear.resize(nLinks);
  linkVersion.resize(nLinks);
  activeLinks.reserve(nLinks);
  activeLinkPos.resize(nLinks);
  denseConst.resize(nLinks);
  denseSlope.resize(nLinks);
  denseThresh.resize(nLinks);
  // One heap entry per link at the start of a solve plus at most one per
  // (receiver, path-link) freeze update over the whole filling.
  heap.reserve(nLinks + totalPathSlots + 1);
  dirtyLinks.reserve(nLinks);
  linkDirty.resize(nLinks);
  satLinks.reserve(nLinks);
  sessActive.resize(nSessions);
  sessFrozen.resize(nSessions);
  pendingSingle.reserve(nSessions);
  singleQueued.resize(nSessions);
  gather.reserve(maxGroupSize);

  // Reuse the result object when the shape matches; otherwise rebuild.
  bool shapeMatches = result.has_value() &&
                      result->allocation.sessionCount() == nSessions;
  for (std::size_t i = 0; shapeMatches && i < nSessions; ++i) {
    shapeMatches = result->allocation.sessionRates(i).size() ==
                   network.session(i).receivers.size();
  }
  if (!shapeMatches) {
    result.emplace(MaxMinResult{Allocation(network), LinkUsage{}, 0});
  }
  usageZeroed = false;
  boundIdentity = network.identity();
  boundStructure = network.structureIdentity();
}

void MaxMinSolver::Engine::refreshCapacities(const net::Network& network,
                                             const MaxMinOptions& options) {
  net = &network;
  for (std::uint32_t j = 0; j < nLinks; ++j) {
    capacity[j] = network.capacity(graph::LinkId{j});
    satSlack[j] = options.saturationSlack * std::max(1.0, capacity[j]);
    satThreshold[j] = capacity[j] - satSlack[j];
    bisectSlack[j] = 1e-12 * std::max(1.0, capacity[j]);
  }
  // capOrder keys are capacity-dependent; re-derive and re-sort in place
  // (std::sort allocates nothing, and the (key, receiver) comparator is a
  // total order, so the result is identical to a full rebuild's).
  if (!capOrder.empty()) {
    std::size_t pos = 0;
    for (std::size_t f = 0; f < nReceivers; ++f) {
      for (std::size_t s = pathBegin[f]; s < pathBegin[f + 1]; ++s) {
        capOrder[pos++] = CapKey{capacity[pathLink[s]] / weight[f],
                                 static_cast<std::uint32_t>(f)};
      }
    }
    std::sort(capOrder.begin(), capOrder.end(),
              [](const CapKey& a, const CapKey& b) {
                if (a.key != b.key) return a.key < b.key;
                return a.receiver < b.receiver;
              });
  }
  boundIdentity = network.identity();
}

void MaxMinSolver::Engine::resetDynamicState() {
  std::fill(frozen.begin(), frozen.end(), char{0});
  std::fill(rate.begin(), rate.end(), 0.0);
  std::fill(linkVersion.begin(), linkVersion.end(), 0u);
  std::fill(linkDirty.begin(), linkDirty.end(), char{0});
  std::fill(singleQueued.begin(), singleQueued.end(), char{0});
  std::fill(sessFrozen.begin(), sessFrozen.end(), std::size_t{0});
  for (std::size_t i = 0; i < nSessions; ++i) {
    sessActive[i] = net->session(i).receivers.size();
  }
  nonlinearActiveGroups = 0;
  for (auto& g : groups) {
    g.active = g.end - g.begin;
    if (!g.linear) ++nonlinearActiveGroups;
  }
  activeLinks.clear();
  heap.clear();
  dirtyLinks.clear();
  satLinks.clear();
  pendingSingle.clear();
  for (std::uint32_t j = 0; j < nLinks; ++j) {
    linkActive[j] =
        static_cast<std::uint32_t>(adjBegin[j + 1] - adjBegin[j]);
    if (linkActive[j] > 0) {
      activeLinkPos[j] = static_cast<std::uint32_t>(activeLinks.size());
      activeLinks.push_back(j);
    } else {
      activeLinkPos[j] = kNoPos;
      linkConst[j] = 0.0;
      linkSlope[j] = 0.0;
      linkNonlinear[j] = 0;
    }
  }
  // Initial accumulator scan; saturation-level candidates enter the lazy
  // min-heap in active-list order.
  for (const std::uint32_t j : activeLinks) {
    recomputeLink(j);
    heapPush(j);
  }
  activeReceivers = nReceivers;
  sigmaPtr = 0;
  sigmaSlackPtr = 0;
  capPtr = 0;
  frozenThisRound = 0;
  level = 0.0;
}

double MaxMinSolver::Engine::groupUsageAt(const Group& g, double lv) {
  gather.clear();
  for (std::size_t s = g.begin; s < g.end; ++s) {
    const std::uint32_t f = adj[s];
    if (frozen[f]) gather.push_back(rate[f]);
  }
  for (std::size_t s = g.begin; s < g.end; ++s) {
    const std::uint32_t f = adj[s];
    if (!frozen[f]) gather.push_back(weight[f] * lv);
  }
  return net->session(g.session).linkRateFn->linkRate(gather);
}

double MaxMinSolver::Engine::linkUsageFullAt(std::uint32_t j, double lv) {
  double u = 0.0;
  for (std::size_t gi = groupBegin[j]; gi < groupBegin[j + 1]; ++gi) {
    u += groupUsageAt(groups[gi], lv);
  }
  return u;
}

void MaxMinSolver::Engine::recomputeLink(std::uint32_t j) {
  double constPart = 0.0;
  double slopeSum = 0.0;
  bool nonlinear = false;
  for (std::size_t gi = groupBegin[j]; gi < groupBegin[j + 1]; ++gi) {
    const Group& g = groups[gi];
    if (g.active > 0) {
      if (g.linear) {
        slopeSum += g.slope;
      } else {
        nonlinear = true;
      }
    } else {
      // Fully frozen group: contributes a constant v_i of its frozen
      // rates (gathered in adjacency order, like the reference).
      gather.clear();
      for (std::size_t s = g.begin; s < g.end; ++s) {
        gather.push_back(rate[adj[s]]);
      }
      constPart += net->session(g.session).linkRateFn->linkRate(gather);
    }
  }
  linkConst[j] = constPart;
  linkSlope[j] = slopeSum;
  linkNonlinear[j] = nonlinear ? 1 : 0;
  // Scatter into the dense scan mirrors (every link recomputed here is
  // in the active list).
  const std::uint32_t pos = activeLinkPos[j];
  denseConst[pos] = constPart;
  denseSlope[pos] = slopeSum;
  denseThresh[pos] = satThreshold[j];
}

void MaxMinSolver::Engine::heapPush(std::uint32_t j) {
  const double key = (linkNonlinear[j] || linkSlope[j] <= 0.0)
                         ? kInf
                         : (capacity[j] - linkConst[j]) / linkSlope[j];
  heap.push_back(Cand{key, j, linkVersion[j]});
  std::push_heap(heap.begin(), heap.end(),
                 [](const Cand& a, const Cand& b) { return a.key > b.key; });
}

double MaxMinSolver::Engine::heapMinKey() {
  const auto later = [](const Cand& a, const Cand& b) {
    return a.key > b.key;
  };
  while (!heap.empty()) {
    const Cand& top = heap.front();
    if (linkActive[top.link] > 0 && top.version == linkVersion[top.link]) {
      return top.key;
    }
    std::pop_heap(heap.begin(), heap.end(), later);
    heap.pop_back();
  }
  return kInf;
}

double MaxMinSolver::Engine::nextSigmaMin() {
  while (sigmaPtr < sigmaOrder.size() && frozen[sigmaOrder[sigmaPtr]]) {
    ++sigmaPtr;
  }
  return sigmaPtr < sigmaOrder.size() ? sigmaLevel[sigmaOrder[sigmaPtr]]
                                      : kInf;
}

double MaxMinSolver::Engine::nextCapMin() {
  while (capPtr < capOrder.size() && frozen[capOrder[capPtr].receiver]) {
    ++capPtr;
  }
  return capPtr < capOrder.size() ? capOrder[capPtr].key : kInf;
}

void MaxMinSolver::Engine::freeze(std::uint32_t f, double frozenRate) {
  frozen[f] = 1;
  rate[f] = frozenRate;
  ++frozenThisRound;
  --activeReceivers;
  const std::size_t sess = sessionOf[f];
  --sessActive[sess];
  ++sessFrozen[sess];
  if (sessionSingleRate[sess] && sessActive[sess] > 0 &&
      !singleQueued[sess]) {
    singleQueued[sess] = 1;
    pendingSingle.push_back(static_cast<std::uint32_t>(sess));
  }
  for (std::size_t s = pathBegin[f]; s < pathBegin[f + 1]; ++s) {
    const std::uint32_t j = pathLink[s];
    Group& g = groups[pathGroup[s]];
    --g.active;
    if (g.active == 0 && !g.linear) --nonlinearActiveGroups;
    --linkActive[j];
    if (!linkDirty[j]) {
      linkDirty[j] = 1;
      dirtyLinks.push_back(j);
    }
    if (linkActive[j] == 0) {
      // Swap-remove from the compact active-link list, mirrored on the
      // dense scan arrays so slot idx keeps describing activeLinks[idx].
      const std::uint32_t pos = activeLinkPos[j];
      const std::uint32_t lastLink = activeLinks.back();
      const auto lastPos =
          static_cast<std::uint32_t>(activeLinks.size() - 1);
      activeLinks[pos] = lastLink;
      activeLinkPos[lastLink] = pos;
      denseConst[pos] = denseConst[lastPos];
      denseSlope[pos] = denseSlope[lastPos];
      denseThresh[pos] = denseThresh[lastPos];
      activeLinks.pop_back();
      activeLinkPos[j] = kNoPos;
    }
  }
}

void MaxMinSolver::Engine::flushDirtyLinks() {
  // Recompute the dirtied links' accumulators and push their fresh
  // saturation-level candidates into the lazy min-heap, in dirty order.
  for (const std::uint32_t j : dirtyLinks) {
    linkDirty[j] = 0;
    if (linkActive[j] == 0) continue;  // no longer constrains the filling
    recomputeLink(j);
    ++linkVersion[j];
    heapPush(j);
  }
  dirtyLinks.clear();
}

// Materializes u_{i,j}/u_j from the final frozen rates using the group
// structure: only cells with receivers are touched, so repeated solves do
// not re-zero the dense sessions x links matrix.
void MaxMinSolver::Engine::writeUsage() {
  LinkUsage& usage = result->usage;
  usage.sessionLinkRate.resize(nSessions);
  if (!usageZeroed) {
    for (auto& row : usage.sessionLinkRate) row.assign(nLinks, 0.0);
    usageZeroed = true;
  }
  usage.linkRate.assign(nLinks, 0.0);
  for (std::uint32_t j = 0; j < nLinks; ++j) {
    for (std::size_t gi = groupBegin[j]; gi < groupBegin[j + 1]; ++gi) {
      const Group& g = groups[gi];
      gather.clear();
      for (std::size_t s = g.begin; s < g.end; ++s) {
        gather.push_back(rate[adj[s]]);
      }
      const double u =
          net->session(g.session).linkRateFn->linkRate(gather);
      usage.sessionLinkRate[g.session][j] = u;
      usage.linkRate[j] += u;
    }
  }
}

const MaxMinResult& MaxMinSolver::Engine::solve(const MaxMinOptions& options,
                                                bool withUsage) {
  MCFAIR_REQUIRE(net != nullptr, "MaxMinSolver::solve before bind");
  MaxMinResult& out = *result;
  out.rounds = 0;
  if (nReceivers == 0 || nLinks == 0) {
    if (withUsage) {
      std::vector<double> scratch;
      computeLinkUsageInto(*net, out.allocation, out.usage, scratch);
      usageZeroed = true;
    }
    return out;
  }

  resetDynamicState();
  const std::size_t maxRounds = nReceivers + 2;

  while (true) {
    // Freeze receivers whose sigma is exactly reachable at this level.
    {
      double sigMin;
      while ((sigMin = nextSigmaMin()) <= level) {
        const std::uint32_t f = sigmaOrder[sigmaPtr];
        freeze(f, sigma[f]);
        ++sigmaPtr;
      }
    }
    flushDirtyLinks();
    if (activeReceivers == 0) break;
    if (++out.rounds > maxRounds) {
      throw NumericError(
          "solveMaxMinFair: filling failed to terminate; check that custom "
          "link-rate functions are monotone with v(X) >= max(X)");
    }

    const bool linear = unitWeights && nonlinearActiveGroups == 0;
    double delta;
    if (linear) {
      // Closed form: the next event is the smallest of the remaining
      // sigma levels and the link saturation levels off the heap.
      delta = std::min(nextSigmaMin(), heapMinKey()) - level;
      delta = std::max(delta, 0.0);
    } else {
      // Upper bound from sigma caps and raw capacities (lazy pointers
      // over the static orderings), then bisection on feasibility over
      // the active links only.
      double hi = std::min(nextSigmaMin(), nextCapMin()) - level;
      hi = std::max(hi, 0.0);
      auto feasibleAt = [&](double d) {
        const double lv = level + d;
        for (const std::uint32_t j : activeLinks) {
          if (linkUsageFullAt(j, lv) > capacity[j] + bisectSlack[j]) {
            return false;
          }
        }
        return true;
      };
      if (hi == 0.0 || feasibleAt(hi)) {
        delta = hi;
      } else {
        double lo = 0.0;
        double up = hi;
        std::size_t steps = 0;
        while (up - lo > options.tolerance &&
               steps++ < options.maxBisectionSteps) {
          const double mid = 0.5 * (lo + up);
          (feasibleAt(mid) ? lo : up) = mid;
        }
        delta = lo;
      }
    }

    level += delta;
    frozenThisRound = 0;

    // Saturation snapshot over active links, taken before any freezing so
    // it reflects the same state the reference evaluates.
    if (linear) {
      // Flat sweep over the dense mirrors: three contiguous loads, one
      // fused compare, and a branchless compaction (store the candidate
      // unconditionally, advance the cursor by the comparison result).
      // No gather through activeLinks, no branch in the loop body — the
      // compiler can vectorize the whole scan.
      const std::size_t n = activeLinks.size();
      satLinks.resize(n);  // within bind()-reserved capacity
      const double lv = level;
      const double* cst = denseConst.data();
      const double* slp = denseSlope.data();
      const double* thr = denseThresh.data();
      const std::uint32_t* lk = activeLinks.data();
      std::uint32_t* dst = satLinks.data();
      std::size_t count = 0;
      for (std::size_t idx = 0; idx < n; ++idx) {
        dst[count] = lk[idx];
        count += static_cast<std::size_t>(cst[idx] + slp[idx] * lv >=
                                          thr[idx]);
      }
      satLinks.resize(count);
    } else {
      satLinks.clear();
      for (const std::uint32_t j : activeLinks) {
        if (linkUsageFullAt(j, level) >= satThreshold[j]) satLinks.push_back(j);
      }
    }

    // Receivers within saturation slack of sigma freeze at sigma (takes
    // precedence over link freezing, like the reference).
    while (sigmaSlackPtr < sigmaSlackOrder.size()) {
      const std::uint32_t f = sigmaSlackOrder[sigmaSlackPtr];
      if (frozen[f]) {
        ++sigmaSlackPtr;
        continue;
      }
      if (sigmaSlackLevel[f] <= level) {
        freeze(f, sigma[f]);
        ++sigmaSlackPtr;
        continue;
      }
      break;
    }

    // Every active receiver crossing a saturated link freezes at the
    // current level.
    for (const std::uint32_t j : satLinks) {
      for (std::size_t s = adjBegin[j]; s < adjBegin[j + 1]; ++s) {
        const std::uint32_t f = adj[s];
        if (!frozen[f]) freeze(f, level * weight[f]);
      }
    }

    // Guard against stalls from a badly-conditioned custom v_i: force the
    // receivers on the most-utilized active link to freeze. (Scans links
    // in ascending id order to match the reference's tie-breaking.)
    if (frozenThisRound == 0) {
      double worst = -kInf;
      std::uint32_t worstLink = 0;
      for (std::uint32_t j = 0; j < nLinks; ++j) {
        if (linkActive[j] == 0) continue;
        const double headroom =
            capacity[j] - linkUsageFullAt(j, level);
        if (-headroom > worst) {
          worst = -headroom;
          worstLink = j;
        }
      }
      for (std::size_t s = adjBegin[worstLink];
           s < adjBegin[worstLink + 1]; ++s) {
        const std::uint32_t f = adj[s];
        if (!frozen[f]) freeze(f, level * weight[f]);
      }
      if (frozenThisRound == 0) {
        throw NumericError("solveMaxMinFair: no receiver could be frozen");
      }
    }

    // Step 7: a single-rate session freezes as a unit.
    for (const std::uint32_t sess : pendingSingle) {
      const std::size_t base = net->receiverOffset(sess);
      const std::size_t count = net->session(sess).receivers.size();
      for (std::size_t k = 0; k < count; ++k) {
        const auto f = static_cast<std::uint32_t>(base + k);
        if (!frozen[f]) freeze(f, level * weight[f]);
      }
    }
    pendingSingle.clear();
  }

  const auto refs = net->receiverRefs();
  for (std::size_t f = 0; f < nReceivers; ++f) {
    out.allocation.setRate(refs[f], rate[f]);
  }
  if (withUsage) writeUsage();
  return out;
}

MaxMinSolver::MaxMinSolver(MaxMinOptions options)
    : options_(options), engine_(std::make_unique<Engine>()) {
  MCFAIR_REQUIRE(options_.tolerance > 0.0, "tolerance must be positive");
}

MaxMinSolver::~MaxMinSolver() = default;
MaxMinSolver::MaxMinSolver(MaxMinSolver&&) noexcept = default;
MaxMinSolver& MaxMinSolver::operator=(MaxMinSolver&&) noexcept = default;

void MaxMinSolver::bind(const net::Network& net) {
  engine_->bind(net, options_);
}

bool MaxMinSolver::bound() const noexcept { return engine_->net != nullptr; }

namespace {

// MCFAIR_VALIDATE harness: re-solve with the independent reference
// oracle and require the incremental rates to agree within the parity
// tolerance (the same bound the randomized parity suite enforces).
void validateAgainstReference(const net::Network& net,
                              const MaxMinResult& got,
                              const MaxMinOptions& options) {
  // The oracle rebuilds its link views every round — O(links x
  // receivers) per round. Cap the cross-check to instances where that
  // stays affordable, so MCFAIR_VALIDATE=1 CI sweeps do not turn the
  // large stress tests into hour-long runs.
  constexpr std::size_t kMaxValidateCells = std::size_t{1} << 16;
  if (net.receiverCount() * net.linkCount() > kMaxValidateCells) return;
  MaxMinOptions refOptions = options;
  refOptions.validate.enabled = 0;  // the oracle is not re-validated
  const MaxMinResult ref = solveMaxMinFairReference(net, refOptions);
  if (got.rounds != ref.rounds) {
    throw NumericError(
        "MCFAIR_VALIDATE: incremental solver took " +
        std::to_string(got.rounds) + " rounds, reference took " +
        std::to_string(ref.rounds));
  }
  for (const auto r : net.receiverRefs()) {
    const double a = got.allocation.rate(r);
    const double b = ref.allocation.rate(r);
    const double tol = 1e-6 * std::max(1.0, std::abs(b));
    if (!(std::abs(a - b) <= tol)) {
      throw NumericError(
          "MCFAIR_VALIDATE: incremental max-min rate for receiver (" +
          std::to_string(r.session) + "," + std::to_string(r.receiver) +
          ") is " + std::to_string(a) + ", reference oracle says " +
          std::to_string(b));
    }
  }
}

}  // namespace

const MaxMinResult& MaxMinSolver::solve() {
  const MaxMinResult& r = engine_->solve(options_, /*withUsage=*/true);
  if (options_.validate.resolve() && options_.validate.solverOptimality) {
    validateAgainstReference(*engine_->net, r, options_);
  }
  return r;
}

const MaxMinResult& MaxMinSolver::solve(const net::Network& net) {
  bind(net);
  return solve();
}

const Allocation& MaxMinSolver::solveAllocation() {
  const MaxMinResult& r = engine_->solve(options_, /*withUsage=*/false);
  if (options_.validate.resolve() && options_.validate.solverOptimality) {
    validateAgainstReference(*engine_->net, r, options_);
  }
  return r.allocation;
}

const Allocation& MaxMinSolver::solveAllocation(const net::Network& net) {
  bind(net);
  return solveAllocation();
}

MaxMinResult MaxMinSolver::takeResult() {
  MCFAIR_REQUIRE(engine_->result.has_value(),
                 "MaxMinSolver::takeResult before any solve");
  MaxMinResult out = std::move(*engine_->result);
  // The workspace no longer owns a result: force a full rebind so the
  // next solve re-creates it.
  engine_->result.reset();
  engine_->boundIdentity = 0;
  engine_->boundStructure = 0;
  return out;
}

namespace {

// One engine per thread amortizes workspace building across the one-shot
// calls that dominate the tests and what-if sweeps. A user-provided v_i
// could re-enter (it is virtual); fall back to a fresh solver then. The
// cache is also skipped for networks whose workspace would be large (the
// dense sessions x links usage matrix dominates), so a long-lived thread
// never silently retains more than a few MB after one big solve.
// The callback receives the solver plus whether it is a transient
// instance (discarded on return) — transient callers may move internals
// out instead of copying.
template <typename Fn>
auto withThreadLocalSolver(const net::Network& net,
                           const MaxMinOptions& options, Fn&& fn) {
  thread_local MaxMinSolver solver;
  thread_local bool busy = false;
  constexpr std::size_t kMaxCachedUsageCells = 1u << 18;  // 2 MB of rates
  const MaxMinOptions& cached = solver.options();
  if (busy || net.sessionCount() * net.linkCount() > kMaxCachedUsageCells ||
      options.tolerance != cached.tolerance ||
      options.saturationSlack != cached.saturationSlack ||
      options.maxBisectionSteps != cached.maxBisectionSteps ||
      options.validate.resolve() != cached.validate.resolve() ||
      options.validate.solverOptimality !=
          cached.validate.solverOptimality) {
    MaxMinSolver fresh(options);
    return fn(fresh, /*transient=*/true);
  }
  busy = true;
  try {
    auto result = fn(solver, /*transient=*/false);
    busy = false;
    return result;
  } catch (...) {
    busy = false;
    throw;
  }
}

}  // namespace

MaxMinResult solveMaxMinFair(const net::Network& net,
                             const MaxMinOptions& options) {
  MCFAIR_REQUIRE(options.tolerance > 0.0, "tolerance must be positive");
  return withThreadLocalSolver(
      net, options, [&](MaxMinSolver& s, bool transient) -> MaxMinResult {
        const MaxMinResult& r = s.solve(net);
        if (transient) return s.takeResult();  // move, don't copy
        return r;
      });
}

Allocation maxMinFairAllocation(const net::Network& net,
                                const MaxMinOptions& options) {
  MCFAIR_REQUIRE(options.tolerance > 0.0, "tolerance must be positive");
  return withThreadLocalSolver(
      net, options, [&](MaxMinSolver& s, bool transient) -> Allocation {
        const Allocation& a = s.solveAllocation(net);
        if (transient) return std::move(s.takeResult().allocation);
        return a;
      });
}

}  // namespace mcfair::fairness
