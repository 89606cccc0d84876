#include "sim/closed_loop.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "fairness/maxmin.hpp"
#include "sim/event_queue.hpp"
#include "sim/partition.hpp"
#include "sim/sender.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mcfair::sim {

namespace {

// Continuous-refill token bucket enforcing a link's capacity.
class TokenBucket {
 public:
  TokenBucket(double rate, double depth)
      : rate_(rate), depth_(depth), tokens_(depth) {}

  /// Consumes one token at time `now`; false = drop.
  bool admit(double now) {
    tokens_ = std::min(depth_, tokens_ + rate_ * (now - lastRefill_));
    lastRefill_ = now;
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      return true;
    }
    return false;
  }

  double rate() const noexcept { return rate_; }
  double depth() const noexcept { return depth_; }

  /// Token level at `now` without consuming — the exact value admit()
  /// would observe. The fluid engine's no-drop certificate starts from
  /// this state.
  double tokensAt(double now) const noexcept {
    return std::min(depth_, tokens_ + rate_ * (now - lastRefill_));
  }

  /// Reconfigures the bucket in place at a fault boundary: the current
  /// token level is materialized at `now` and clamped into the new
  /// depth, then the rate and depth switch over. A dead link (rate 0)
  /// keeps no residual tokens — it admits nothing until repaired, and a
  /// repair refills from empty at the restored rate.
  void reconfigure(double rate, double depth, double now) {
    tokens_ = std::min(depth, tokensAt(now));
    if (rate == 0.0) tokens_ = 0.0;
    rate_ = rate;
    depth_ = depth;
    lastRefill_ = now;
  }

  /// Pins the exact post-admit state of an admit() that found the
  /// bucket full: exactly `depth` tokens before the packet, depth - 1
  /// after. The fluid hand-back's windowed replay enters exact tracking
  /// through this (see SimCore::reconstructBuckets).
  void resyncFullAdmit(double now) {
    tokens_ = depth_ - 1.0;
    lastRefill_ = now;
  }

  double tokens() const noexcept { return tokens_; }
  double lastRefill() const noexcept { return lastRefill_; }

 private:
  double rate_;
  double depth_;
  double tokens_;
  double lastRefill_ = 0.0;
};

// The piecewise-constant fair reference: between consecutive session
// start/stop boundaries AND fault events the live session set and the
// effective link capacities are both constant, so one max-min solve per
// epoch suffices. A single MaxMinSolver is reused across the epochs,
// which is exactly the churn workload its incremental workspace is
// built for.
//
// Fault semantics: an epoch's link capacities are base * factor of the
// last fault event at or before the epoch's start. A receiver whose
// data-path crosses a dead link (factor 0) is severed — it is excluded
// from the solve and reported at fair rate 0.0, with fairRate keeping
// the session's full receiver shape; a session with no surviving
// receiver contributes nothing to the solve. Dead links enter the epoch
// network at base capacity: no surviving data-path crosses them, so the
// value never constrains the filling.
std::vector<FairEpoch> buildFairEpochs(
    const net::Network& network,
    const std::vector<ClosedLoopSessionConfig>& sessionConfigs,
    const ClosedLoopConfig& config) {
  const double duration = config.duration;
  net::FaultSchedule faults = config.faults;
  faults.normalize(network.linkCount());

  std::vector<double> bounds;
  bounds.push_back(0.0);
  bounds.push_back(duration);
  for (const auto& sc : sessionConfigs) {
    if (sc.startTime > 0.0 && sc.startTime < duration) {
      bounds.push_back(sc.startTime);
    }
    if (sc.stopTime > 0.0 && sc.stopTime < duration) {
      bounds.push_back(sc.stopTime);
    }
  }
  for (const net::FaultEvent& ev : faults.events) {
    if (ev.time > 0.0 && ev.time < duration) bounds.push_back(ev.time);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  fairness::MaxMinOptions solverOptions;
  solverOptions.validate = config.validate;
  fairness::MaxMinSolver solver(solverOptions);
  std::vector<double> factor(network.linkCount(), 1.0);
  std::size_t nextFault = 0;
  std::vector<FairEpoch> epochs;
  epochs.reserve(bounds.size() - 1);
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    FairEpoch epoch;
    epoch.begin = bounds[b];
    epoch.end = bounds[b + 1];
    while (nextFault < faults.events.size() &&
           faults.events[nextFault].time <= epoch.begin) {
      const net::FaultEvent& ev = faults.events[nextFault++];
      factor[ev.link.value] = ev.appliedFactor();
    }
    for (std::size_t i = 0; i < network.sessionCount(); ++i) {
      if (sessionConfigs[i].startTime <= epoch.begin &&
          sessionConfigs[i].stopTime >= epoch.end) {
        epoch.sessions.push_back(i);
      }
    }
    if (!epoch.sessions.empty()) {
      net::Network live;
      for (std::uint32_t j = 0; j < network.linkCount(); ++j) {
        const double c = network.capacity(graph::LinkId{j});
        live.addLink(factor[j] > 0.0 ? c * factor[j] : c);
      }
      epoch.fairRate.reserve(epoch.sessions.size());
      // (epoch slot, surviving original receiver indices) of the
      // sessions that made it into the solve, in live-network order.
      std::vector<std::pair<std::size_t, std::vector<std::size_t>>> solved;
      for (std::size_t s = 0; s < epoch.sessions.size(); ++s) {
        const net::Session& orig = network.session(epoch.sessions[s]);
        net::Session filtered = orig;
        filtered.receivers.clear();
        std::vector<std::size_t> surviving;
        for (std::size_t k = 0; k < orig.receivers.size(); ++k) {
          bool severed = false;
          for (const graph::LinkId l : orig.receivers[k].dataPath) {
            if (factor[l.value] == 0.0) {
              severed = true;
              break;
            }
          }
          if (!severed) {
            filtered.receivers.push_back(orig.receivers[k]);
            surviving.push_back(k);
          }
        }
        epoch.fairRate.emplace_back(orig.receivers.size(), 0.0);
        if (!surviving.empty()) {
          live.addSession(std::move(filtered));
          solved.emplace_back(s, std::move(surviving));
        }
      }
      if (!solved.empty()) {
        const fairness::Allocation& a = solver.solveAllocation(live);
        for (std::size_t li = 0; li < solved.size(); ++li) {
          const auto rates = a.sessionRates(li);
          const auto& [s, surviving] = solved[li];
          for (std::size_t p = 0; p < surviving.size(); ++p) {
            epoch.fairRate[s][surviving[p]] = rates[p];
          }
        }
      }
    }
    epochs.push_back(std::move(epoch));
  }
  return epochs;
}

// The largest emission index n >= 0 whose time satisfies the boundary
// (time <= x, or strictly < x when `strict`); n = 0 means no emission
// qualifies — packets are numbered from 1. The floating-point estimate
// only seeds the search; the verdict for every boundary index comes from
// evaluating the sender's exact emission-time expression, which is what
// makes analytic interval counts bit-identical to per-packet execution.
std::uint64_t lastEmissionAt(double phase, double period, double x,
                             bool strict) noexcept {
  const double est = (x - phase) / period;
  std::uint64_t n =
      est <= 0.0 ? 0
                 : (est >= 9.0e15 ? static_cast<std::uint64_t>(9.0e15)
                                  : static_cast<std::uint64_t>(est));
  const auto within = [&](std::uint64_t i) noexcept {
    const double t = layerEmissionTime(phase, period, i);
    return strict ? t < x : t <= x;
  };
  while (n > 0 && !within(n)) --n;
  while (within(n + 1)) ++n;
  return n;
}

std::uint64_t lastEmissionAtMost(double phase, double period,
                                 double x) noexcept {
  return lastEmissionAt(phase, period, x, /*strict=*/false);
}

// Strict variant: the session-lifetime predicate (pkt.time < stopTime)
// and the complement of the start/warmup predicates (pkt.time >= bound)
// both reduce to it.
std::uint64_t lastEmissionBefore(double phase, double period,
                                 double x) noexcept {
  return lastEmissionAt(phase, period, x, /*strict=*/true);
}

class SpecEngine;  // intra-component speculative engine (befriended below)

// Everything the drivers share: validation, protocol state machines,
// token buckets, optional exogenous loss models, and the measurement
// accumulators — all in flat structure-of-arrays layout (receivers,
// RNG streams, and counters indexed by the network's flat receiver
// numbering; per-session views are [recvBegin_[i], recvBegin_[i+1])).
// The drivers differ only in how they merge the senders' streams into
// time order; each merged packet is handed to processPacket(), so
// trajectories are identical whenever the merge orders agree (they do —
// packet times are distinct across sessions almost surely because every
// layer stream carries a random phase offset, and within a session the
// sender orders its own layers).
//
// After construction, processPacket() performs no heap allocation: all
// scratch (touched-link marks, the touched list at its high-water mark)
// is preallocated here. The fluid fast-forward path allocates its
// certification scratch once on first use and nothing thereafter.
class SimCore {
 public:
  SimCore(const net::Network& network, const ClosedLoopConfig& config)
      : network_(network), config_(config) {
    MCFAIR_REQUIRE(network.sessionCount() >= 1, "need at least one session");
    MCFAIR_REQUIRE(config.sessions.empty() ||
                       config.sessions.size() == network.sessionCount(),
                   "sessions config must be empty or one entry per session");
    MCFAIR_REQUIRE(config.duration > 0.0 && config.warmup >= 0.0 &&
                       config.warmup < config.duration,
                   "need 0 <= warmup < duration");
    MCFAIR_REQUIRE(config.tokenBurst > 0.0, "tokenBurst must be positive");

    const std::size_t nSessions = network.sessionCount();
    sessionConfigs_ = config.sessions;
    if (sessionConfigs_.empty()) sessionConfigs_.resize(nSessions);

    util::Rng root(config.seed);

    // Flat receiver numbering shared with the network's own index.
    recvBegin_.resize(nSessions + 1);
    for (std::size_t i = 0; i <= nSessions; ++i) {
      recvBegin_[i] = network.receiverOffset(i);
    }
    const std::size_t nReceivers = network.receiverCount();

    // One sender and one set of protocol receivers per session. The
    // split() order (phase stream first, then one receiver stream per
    // receiver in session order) is part of the reproducibility contract:
    // equal seeds replay equal experiments across library versions.
    receivers_.reserve(nReceivers);
    receiverRng_.reserve(nReceivers);
    senders_.reserve(nSessions);
    nonAbsorbing_.assign(nSessions, 0);
    detached_.assign(nSessions, 0);
    util::Rng phaseRng = root.split();
    for (std::size_t i = 0; i < nSessions; ++i) {
      const auto& sc = sessionConfigs_[i];
      MCFAIR_REQUIRE(sc.layers >= 1, "sessions need at least one layer");
      MCFAIR_REQUIRE(sc.startTime >= 0.0 && sc.startTime < sc.stopTime,
                     "need 0 <= startTime < stopTime");
      senders_.emplace_back(layering::LayerScheme::exponential(sc.layers),
                            &phaseRng);
      const std::size_t nr = network.session(i).receivers.size();
      for (std::size_t k = 0; k < nr; ++k) {
        receivers_.emplace_back(sc.protocol, sc.layers, sc.initialLevel);
        receiverRng_.push_back(root.split());
      }
      if (sc.initialLevel != sc.layers) {
        nonAbsorbing_[i] = static_cast<std::uint32_t>(nr);
        nonAbsorbingLive_ += nr;
      }
    }

    buckets_.reserve(network.linkCount());
    for (std::uint32_t j = 0; j < network.linkCount(); ++j) {
      const double c = network.capacity(graph::LinkId{j});
      buckets_.emplace_back(c, std::max(1.0, c * config.tokenBurst));
    }

    // Exogenous loss plumbing. The per-link RNG streams are split after
    // all protocol streams so lossless configurations replay the exact
    // RNG sequences of earlier library versions; splitLossStreams pins
    // the stream layout itself (one split per link, in link order), so
    // serial runs are bit-unchanged and each link's draw sequence is
    // independent of how packets on other links interleave — the
    // property the component-parallel engine relies on.
    if (config.linkLoss) {
      linkLoss_.reserve(network.linkCount());
      for (std::uint32_t j = 0; j < network.linkCount(); ++j) {
        linkLoss_.push_back(config.linkLoss(graph::LinkId{j}));
      }
      lossRng_ = splitLossStreams(root, network.linkCount());
    }

    // Measurement accumulators (flat).
    delivered_.assign(nReceivers, 0);
    levelIntegral_.assign(nReceivers, 0.0);
    levelSamples_.assign(nReceivers, 0);
    linkForwarded_.assign(network.linkCount(), 0);
    linkOffered_.assign(network.linkCount(), 0);
    linkDropped_.assign(network.linkCount(), 0);
    sessionForwarded_.assign(nSessions * network.linkCount(), 0);

    // Optional per-bin delivery timeline.
    nBins_ = config.rateBinWidth > 0.0
                 ? static_cast<std::size_t>(
                       std::ceil(config.duration / config.rateBinWidth))
                 : 0;
    if (nBins_ > 0) binDelivered_.assign(nReceivers * nBins_, 0);

    // Scratch marks, reused per packet. The touched list can hold at most
    // one entry per link.
    linkTouched_.assign(network.linkCount(), 0);
    linkDropping_.assign(network.linkCount(), 0);
    touched_.reserve(network.linkCount());

    // Fault schedule: validated and time-sorted once; the drivers apply
    // each event strictly before any packet at or after its time.
    faults_ = config.faults;
    faults_.normalize(network.linkCount());
    baseCapacity_.reserve(network.linkCount());
    for (std::uint32_t j = 0; j < network.linkCount(); ++j) {
      baseCapacity_.push_back(network.capacity(graph::LinkId{j}));
    }
    // Each fault can split off at most one more fluid interval.
    fluidIntervals_.reserve(faults_.events.size() + 1);

    const bool validate = config.validate.resolve();
    validateConservation_ = validate && config.validate.linkConservation;
    validateBucketReplay_ = validate && config.validate.bucketReplay;

    fluidBackoff_ = std::max(1.0, config.tokenBurst);
  }

  /// Time of the next unapplied fault event; +infinity once exhausted.
  double nextFaultTime() const noexcept {
    return nextFault_ < faults_.events.size()
               ? faults_.events[nextFault_].time
               : std::numeric_limits<double>::infinity();
  }

  /// Applies the next fault event: the link's token bucket is
  /// reconfigured in place at the event time — rate and depth follow
  /// the faulted capacity (base * factor), a dead link admits nothing —
  /// so every packet at or after the event sees the new capacity.
  /// The reconfiguration depends only on the event and the bucket's own
  /// state, so drivers that agree on packet order stay bit-identical
  /// through it. Allocation-free.
  void applyNextFault() { applyFaultEvent(faults_.events[nextFault_++]); }

  /// Applies one fault event directly (the component-parallel engine
  /// feeds each lane its own sub-schedule, so it bypasses the global
  /// nextFault_ cursor). In partitioned mode the conservation check is
  /// scoped to the faulted link: the full scan would read accumulators
  /// owned by concurrently-executing lanes.
  void applyFaultEvent(const net::FaultEvent& ev) {
    const double cap = baseCapacity_[ev.link.value] * ev.appliedFactor();
    buckets_[ev.link.value].reconfigure(
        cap, std::max(1.0, cap * config_.tokenBurst), ev.time);
    if (validateConservation_) {
      if (partitioned_) {
        checkLinkInvariant(ev.link.value, "fault");
      } else {
        checkInvariants("fault");
      }
    }
  }

  /// The full fault schedule, normalized (time, link, kind) — the
  /// parallel engine partitions it into per-component sub-schedules.
  std::span<const net::FaultEvent> faultEvents() const noexcept {
    return faults_.events;
  }

  /// Switches the core into component-parallel mode: global counters
  /// whose updates would cross component boundaries (the fluid engine's
  /// nonAbsorbingLive_ gate) are frozen, and fault-time conservation
  /// checks narrow to the faulted link. The fluid mode is never armed in
  /// this mode, so the frozen counter is never read.
  void enablePartitionedLanes() noexcept { partitioned_ = true; }

  std::size_t sessionCount() const noexcept { return senders_.size(); }

  /// The session's next packet in its own stream (time order).
  Packet nextPacket(std::size_t sessionIdx) {
    return senders_[sessionIdx].next();
  }

  /// End of the session's lifetime. Packets at or past it are discarded
  /// by processPacket, and since each sender's packet times are
  /// nondecreasing, a session whose pending packet reached stopTime can
  /// be dropped from the merge entirely without changing any trajectory.
  double stopTime(std::size_t sessionIdx) const noexcept {
    return sessionConfigs_[sessionIdx].stopTime;
  }

  /// The merge dropped this session (its pending packet reached
  /// stopTime): none of its packets will ever be processed again, so its
  /// receivers — whatever their level — can no longer change state and
  /// stop counting against the fluid engine's absorbing requirement.
  void onSessionDetached(std::size_t sessionIdx) {
    if (!detached_[sessionIdx]) {
      detached_[sessionIdx] = 1;
      if (!partitioned_) nonAbsorbingLive_ -= nonAbsorbing_[sessionIdx];
    }
  }

  /// Runs one merged packet through capacity enforcement, loss, delivery
  /// accounting, and the receivers' protocol state machines.
  void processPacket(std::size_t sessionIdx, const Packet& pkt) {
    processPacketInto(sessionIdx, pkt, touched_);
  }

  /// processPacket with a caller-owned touched-link scratch list: the
  /// component-parallel lanes each bring their own so concurrent lanes
  /// never share the scratch. Every other mutation is indexed by the
  /// packet's own session, receivers, or links — disjoint across
  /// link-set components by construction (see sim/partition.hpp) —
  /// except the fluid engine's nonAbsorbingLive_ gate, which partitioned
  /// mode freezes (the fluid mode is never armed there).
  void processPacketInto(std::size_t sessionIdx, const Packet& pkt,
                         std::vector<std::uint32_t>& touched) {
    const auto& sc = sessionConfigs_[sessionIdx];
    // Outside the session's lifetime the sender is silent.
    if (pkt.time < sc.startTime || pkt.time >= sc.stopTime) return;
    const bool measuring = pkt.time >= config_.warmup;

    const auto& sess = network_.session(sessionIdx);
    const std::size_t rb = recvBegin_[sessionIdx];
    const std::size_t re = recvBegin_[sessionIdx + 1];

    // Subscribers and the union of links leading to them.
    touched.clear();
    bool anySubscribed = false;
    for (std::size_t r = rb; r < re; ++r) {
      const std::size_t lvl = receivers_[r].level();
      if (measuring) {
        levelIntegral_[r] += static_cast<double>(lvl);
        ++levelSamples_[r];
      }
      if (lvl < pkt.layer) continue;
      anySubscribed = true;
      for (graph::LinkId l : sess.receivers[r - rb].dataPath) {
        if (!linkTouched_[l.value]) {
          linkTouched_[l.value] = 1;
          touched.push_back(l.value);
        }
      }
    }
    if (!anySubscribed) return;

    // Capacity enforcement (and optional exogenous loss) per touched
    // link. The loss coin is drawn only for packets the bucket admitted,
    // so the loss RNG stream advances identically in all drivers.
    for (std::uint32_t j : touched) {
      if (measuring) ++linkOffered_[j];
      bool forwarded = buckets_[j].admit(pkt.time);
      if (forwarded && !linkLoss_.empty() && linkLoss_[j] != nullptr) {
        forwarded = !linkLoss_[j]->lose(lossRng_[j]);
      }
      if (forwarded) {
        if (measuring) {
          ++linkForwarded_[j];
          ++sessionForwarded_[sessionIdx * network_.linkCount() + j];
        }
        linkDropping_[j] = 0;
      } else {
        if (measuring) ++linkDropped_[j];
        linkDropping_[j] = 1;
      }
    }

    // Delivery / congestion per subscriber.
    const std::size_t maxLevel = sc.layers;
    for (std::size_t r = rb; r < re; ++r) {
      if (receivers_[r].level() < pkt.layer) continue;
      bool lost = false;
      for (graph::LinkId l : sess.receivers[r - rb].dataPath) {
        if (linkDropping_[l.value]) {
          lost = true;
          break;
        }
      }
      if (!lost) {
        if (measuring) ++delivered_[r];
        if (nBins_ > 0) ++binDelivered_[r * nBins_ + binIndex(pkt.time)];
      }
      const bool wasMax = receivers_[r].level() == maxLevel;
      receivers_[r].onPacket(lost, pkt.syncLevel, receiverRng_[r]);
      const bool isMax = receivers_[r].level() == maxLevel;
      if (wasMax != isMax) {
        // A receiver is "absorbing" exactly at its top level: no protocol
        // can join past it, the Uncoordinated join coin is never drawn,
        // and Coordinated sync signals (capped at layers - 1) cannot
        // reach it — so clean packets leave its state untouched, which
        // is what the fluid certificate requires.
        if (isMax) {
          --nonAbsorbing_[sessionIdx];
          if (!partitioned_ && !detached_[sessionIdx]) --nonAbsorbingLive_;
        } else {
          ++nonAbsorbing_[sessionIdx];
          if (!partitioned_ && !detached_[sessionIdx]) ++nonAbsorbingLive_;
        }
      }
    }

    for (std::uint32_t j : touched) {
      linkTouched_[j] = 0;
      linkDropping_[j] = 0;
    }
  }

  // ---- fluid fast-forward mode ------------------------------------------

  /// Arms the fluid mode (the fluid driver calls this once). Exogenous
  /// loss disarms it permanently: every admitted packet owes its per-link
  /// RNG draw, so skipping packets would desynchronize the loss streams.
  void armFluid() { fluidArmed_ = linkLoss_.empty(); }

  /// Cheap per-event gate: is a fast-forward attempt worth the scan now?
  bool fluidWanted(double now) const noexcept {
    return fluidArmed_ && nonAbsorbingLive_ == 0 &&
           now >= nextFluidAttempt_;
  }

  /// Attempts to advance the run analytically from `tSwitch` (the time
  /// of the earliest unprocessed packet; `pending` holds each session's
  /// generated-but-unprocessed lookahead packet) to `horizon` — the end
  /// of the run, or the next fault event, whichever comes first. On
  /// success every accumulator is advanced to the horizon in closed
  /// form and true is returned. When the horizon is the end of the run
  /// the caller just stops executing packets; when it is a fault
  /// boundary the fast-forward is PARTIAL: packets strictly before the
  /// horizon are accounted analytically, then exact per-packet state is
  /// reconstructed — token buckets via replay (reconstructBuckets),
  /// senders via LayeredSender::resync, the merge queue reseeded from
  /// the resumed lookahead packets — and execution hands back to the
  /// per-packet path, which applies the fault and continues. On failure
  /// nothing changes and a retry is scheduled with exponential backoff
  /// (token buckets refill over time, so a certificate that fails now
  /// can hold later).
  ///
  /// The certificate, per link, over every interval between session
  /// start/stop boundaries in [tSwitch, duration]:
  ///   (1) every receiver that can still process a packet sits at its top
  ///       layer (absorbing — checked via the counters), so subscription
  ///       sets and per-packet behavior are constant;
  ///   (2) aggregate arrival rate R_j <= capacity c_j; and
  ///   (3) a token lower bound L_j >= S_j + margin at the interval start,
  ///       where S_j counts the periodic streams crossing the link.
  /// (2)+(3) certify no token-bucket drop: a set of S periodic streams of
  /// total rate R presents at most S + R*w arrivals in any window w, so
  /// unclamped tokens stay >= L - S + (c - R)*w >= margin >= 1 at every
  /// admit. Across an interval of width W the bound advances as
  /// L' = min(depth, L + (c - R)*W) - S (clamping only raises tokens;
  /// if the clamp binds, tokens restart from depth). The margin of 2
  /// tokens dominates any accumulated rounding drift of the bucket's
  /// incremental refill arithmetic.
  bool tryFluidFastForward(double tSwitch, std::vector<Packet>& pending,
                           EventQueue& queue, double horizon) {
    const std::size_t nSessions = sessionCount();
    const bool partial = horizon < config_.duration;
    // (1) absorbing — the live counter is the fast gate; the per-session
    // scan is authoritative (the counter can lag for sessions that
    // stopped but whose final pending pop has not happened yet).
    for (std::size_t i = 0; i < nSessions; ++i) {
      if (!detached_[i] && sessionConfigs_[i].stopTime > tSwitch &&
          nonAbsorbing_[i] > 0) {
        return false;
      }
    }
    ensureFluidScratch();

    // Lifetime boundaries inside [tSwitch, horizon]: the only remaining
    // state changes. Measurement boundaries (warmup, bins) do not alter
    // dynamics and are handled inside the closed-form accounting.
    events_.clear();
    for (std::size_t i = 0; i < nSessions; ++i) {
      if (detached_[i]) continue;  // contributes no further packets
      const double start = std::max(sessionConfigs_[i].startTime, tSwitch);
      const double stop = sessionConfigs_[i].stopTime;
      if (start > horizon || stop <= start) continue;
      events_.push_back(LifeEvent{start, static_cast<std::uint32_t>(i), +1});
      if (stop <= horizon) {
        events_.push_back(
            LifeEvent{stop, static_cast<std::uint32_t>(i), -1});
      }
    }
    std::sort(events_.begin(), events_.end(),
              [](const LifeEvent& a, const LifeEvent& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.delta != b.delta) return a.delta < b.delta;
                return a.session < b.session;
              });

    const std::size_t nLinks = network_.linkCount();
    for (std::size_t j = 0; j < nLinks; ++j) {
      linkS_[j] = 0.0;
      linkR_[j] = 0.0;
      linkLast_[j] = tSwitch;
      linkLB_[j] = buckets_[j].tokensAt(tSwitch);
    }

    bool feasible = true;
    std::size_t idx = 0;
    while (feasible && idx < events_.size()) {
      const double t = events_[idx].time;
      dirtyLinks_.clear();
      while (idx < events_.size() && events_[idx].time == t) {
        const LifeEvent& ev = events_[idx];
        const double dS = static_cast<double>(
            sessionConfigs_[ev.session].layers);
        const double dR = sessAggRate_[ev.session];
        const std::size_t lb = sessLinkBegin_[ev.session];
        const std::size_t le = sessLinkBegin_[ev.session + 1];
        for (std::size_t s = lb; s < le; ++s) {
          const std::uint32_t j = sessLink_[s];
          if (!linkDirtyMark_[j]) {
            linkDirtyMark_[j] = 1;
            dirtyLinks_.push_back(j);
            // Advance the token lower bound across the segment that
            // ends here, under the segment's constant (S, R).
            const double w = t - linkLast_[j];
            if (w > 0.0) {
              linkLB_[j] = std::min(buckets_[j].depth(),
                                    linkLB_[j] +
                                        (buckets_[j].rate() - linkR_[j]) *
                                            w) -
                           linkS_[j];
              linkLast_[j] = t;
            }
          }
          linkS_[j] += ev.delta * dS;
          linkR_[j] += ev.delta * dR;
        }
        ++idx;
      }
      for (const std::uint32_t j : dirtyLinks_) {
        linkDirtyMark_[j] = 0;
        if (linkS_[j] > 0.0 &&
            (linkR_[j] > buckets_[j].rate() ||
             linkLB_[j] < linkS_[j] + kFluidTokenMargin)) {
          feasible = false;  // finish clearing marks before bailing
        }
      }
    }
    if (!feasible) {
      nextFluidAttempt_ = tSwitch + fluidBackoff_;
      fluidBackoff_ *= 2.0;
      return false;
    }

    // Certified: advance every stream analytically. Per (session, layer)
    // the unprocessed packets are emissions nDone+1, nDone+2, ... at the
    // sender's exact closed-form times; lifetime/warmup/duration clip to
    // an index range, and every accumulator update is a count times a
    // constant (levels are pinned at the top layer, all packets are
    // delivered). All additions land on integer-valued counters far
    // below 2^53, so closed-form totals equal the per-packet sums
    // bit-for-bit.
    for (std::size_t i = 0; i < nSessions; ++i) {
      if (detached_[i]) continue;
      const auto& sc = sessionConfigs_[i];
      const LayeredSender& snd = senders_[i];
      const std::size_t rb = recvBegin_[i];
      const std::size_t re = recvBegin_[i + 1];
      const double level = static_cast<double>(sc.layers);
      const std::size_t lb = sessLinkBegin_[i];
      const std::size_t le = sessLinkBegin_[i + 1];
      for (std::size_t k = 1; k <= sc.layers; ++k) {
        const double phase = snd.layerPhase(k);
        const double period = snd.layerPeriod(k);
        const std::uint64_t nDone =
            snd.layerEmitted(k) - (pending[i].layer == k ? 1 : 0);
        // A fault horizon is exclusive: packets AT the fault time are
        // processed after the fault by every driver, so a partial
        // fast-forward accounts strictly-before emissions only. The
        // end of the run is inclusive (the drivers process packets at
        // time == duration).
        std::uint64_t nHi = partial
                                ? lastEmissionBefore(phase, period, horizon)
                                : lastEmissionAtMost(phase, period, horizon);
        if (sc.stopTime <= horizon) {
          nHi = std::min(nHi,
                         lastEmissionBefore(phase, period, sc.stopTime));
        }
        std::uint64_t nLo = nDone + 1;
        if (sc.startTime > 0.0) {
          nLo = std::max(
              nLo, lastEmissionBefore(phase, period, sc.startTime) + 1);
        }
        if (nLo > nHi) continue;
        const std::uint64_t nMeasLo = std::max(
            nLo, lastEmissionBefore(phase, period, config_.warmup) + 1);
        const std::uint64_t meas =
            nMeasLo <= nHi ? nHi - nMeasLo + 1 : 0;
        fluidPackets_ += nHi - nLo + 1;

        if (meas > 0) {
          const double measLevel =
              level * static_cast<double>(meas);  // exact: integers < 2^53
          for (std::size_t r = rb; r < re; ++r) {
            delivered_[r] += meas;
            levelSamples_[r] += meas;
            levelIntegral_[r] += measLevel;
          }
          for (std::size_t s = lb; s < le; ++s) {
            const std::uint32_t j = sessLink_[s];
            linkOffered_[j] += meas;
            linkForwarded_[j] += meas;
            sessionForwarded_[i * nLinks + j] += meas;
          }
        }
        if (nBins_ > 0) {
          // Walk the bins the stream's index range overlaps; bin
          // membership is decided by the same binIndex() expression the
          // per-packet path evaluates.
          std::uint64_t n = nLo;
          while (n <= nHi) {
            const std::size_t b =
                binIndex(layerEmissionTime(phase, period, n));
            std::uint64_t cand = lastEmissionAtMost(
                phase, period,
                static_cast<double>(b + 1) * config_.rateBinWidth);
            cand = std::clamp<std::uint64_t>(cand, n, nHi);
            while (cand < nHi &&
                   binIndex(layerEmissionTime(phase, period, cand + 1)) <=
                       b) {
              ++cand;
            }
            while (cand > n &&
                   binIndex(layerEmissionTime(phase, period, cand)) > b) {
              --cand;
            }
            const std::uint64_t cnt = cand - n + 1;
            for (std::size_t r = rb; r < re; ++r) {
              binDelivered_[r * nBins_ + b] += cnt;
            }
            n = cand + 1;
          }
        }
      }
    }

    fluidTime_ += horizon - tSwitch;
    fluidIntervals_.push_back(FluidInterval{tSwitch, horizon});
    if (!partial) return true;

    // Hand back to per-packet execution at the fault boundary.
    // (a) Token buckets: the exact state per-packet execution would
    //     have left after the last admit before the horizon.
    reconstructBuckets(pending, tSwitch, horizon);
    // (b) Senders resume at their first emission >= horizon, sessions
    //     that ended inside the interval detach, and the merge queue is
    //     reseeded from the surviving lookahead packets. All scratch is
    //     preallocated: the hand-back allocates nothing.
    queue.clear();
    seedScratch_.clear();
    for (std::size_t i = 0; i < nSessions; ++i) {
      if (detached_[i]) continue;
      const auto& sc = sessionConfigs_[i];
      if (sc.stopTime <= horizon) {
        // Its last packet was accounted analytically; the per-packet
        // merge would have dropped it by now.
        onSessionDetached(i);
        continue;
      }
      resyncCounts_.clear();
      for (std::size_t k = 1; k <= sc.layers; ++k) {
        resyncCounts_.push_back(lastEmissionBefore(
            senders_[i].layerPhase(k), senders_[i].layerPeriod(k), horizon));
      }
      senders_[i].resync(resyncCounts_);
      pending[i] = senders_[i].next();
      if (pending[i].time < sc.stopTime) {
        seedScratch_.push_back(EventQueue::Pending{pending[i].time, i});
      } else {
        onSessionDetached(i);
      }
    }
    queue.scheduleAt(seedScratch_);
    // The certificate can re-engage once the population settles again
    // after the fault; restart the retry clock from scratch.
    nextFluidAttempt_ = horizon;
    fluidBackoff_ = std::max(1.0, config_.tokenBurst);
    return true;
  }

  /// Rebuilds every token bucket's exact per-packet state at the
  /// hand-back horizon. During a certified interval no admit fails and
  /// same-time admits commute, so replaying a link's merged arrival
  /// sequence through admit() reproduces the per-packet engine's bucket
  /// state bit-for-bit. Two modes per link:
  ///  * windowed (the default): start a token LOWER BOUND at zero a
  ///    bounded window W = 2 * (depth + S + 2) / (rate - R) before the
  ///    horizon (S streams of aggregate rate R present at most
  ///    S + R*w arrivals in any window w, so the bound gains at least
  ///    (rate - R) * W - arrivals > depth over the window). The bound
  ///    can only clamp when the TRUE level clamps — it is a lower
  ///    bound of a value capped at depth — so the first arrival whose
  ///    bound clamps saw exactly `depth` true tokens, an exact state;
  ///    the remaining arrivals replay exactly through admit(). Cost
  ///    O(W * arrival rate) per link, independent of interval length.
  ///  * full replay from the switch point (the bucket is untouched
  ///    during a fluid interval, so its pre-switch state is exact):
  ///    the fallback when the window cannot be bounded (refill does
  ///    not exceed the arrival rate) or does not fit, and the oracle
  ///    the windowed mode is cross-checked against under
  ///    MCFAIR_VALIDATE.
  void reconstructBuckets(const std::vector<Packet>& pending,
                          double tSwitch, double horizon) {
    for (std::uint32_t j = 0; j < network_.linkCount(); ++j) {
      if (linkSessBegin_[j] == linkSessBegin_[j + 1]) continue;
      double streams = 0.0;
      double rate = 0.0;
      bool any = false;
      for (std::size_t s = linkSessBegin_[j]; s < linkSessBegin_[j + 1];
           ++s) {
        const std::size_t i = linkSess_[s];
        if (detached_[i]) continue;
        const auto& sc = sessionConfigs_[i];
        if (sc.startTime >= horizon || sc.stopTime <= tSwitch) continue;
        any = true;
        streams += static_cast<double>(sc.layers);
        rate += sessAggRate_[i];
      }
      if (!any) continue;  // no admits during the interval
      TokenBucket& bucket = buckets_[j];
      double from = tSwitch;
      bool windowed = false;
      if (bucket.rate() > rate) {
        const double w =
            2.0 * (bucket.depth() + streams + 2.0) / (bucket.rate() - rate);
        if (horizon - w > tSwitch) {
          from = horizon - w;
          windowed = true;
        }
      }
      if (windowed && validateBucketReplay_) {
        TokenBucket probe = bucket;
        const bool exact =
            replayLink(probe, j, pending, horizon, from, true);
        replayLink(bucket, j, pending, horizon, tSwitch, false);
        // `!exact` is a legitimate outcome (arrivals can cease before
        // the bound clamps, e.g. sessions stopping mid-window); only an
        // exact windowed state that DISAGREES with the oracle is a bug.
        if (exact && (probe.tokens() != bucket.tokens() ||
                      probe.lastRefill() != bucket.lastRefill())) {
          throw NumericError(
              "windowed token-bucket reconstruction diverged from the "
              "full replay on link " +
              std::to_string(j));
        }
        continue;
      }
      if (!windowed ||
          !replayLink(bucket, j, pending, horizon, from, true)) {
        replayLink(bucket, j, pending, horizon, tSwitch, false);
      }
    }
  }

  /// Replays link j's merged packet arrivals in [from, horizon) into
  /// `bucket`. Windowed mode tracks the zero-seeded token lower bound
  /// until it clamps at depth (then switches to exact admits); plain
  /// mode assumes the bucket already holds exact state at `from` and
  /// just admits. Returns whether the final state is exact. The merge
  /// runs on the preallocated stream-cursor heap; same-time arrivals
  /// may pop in any order (admits at equal times commute).
  bool replayLink(TokenBucket& bucket, std::uint32_t j,
                  const std::vector<Packet>& pending, double horizon,
                  double from, bool windowed) {
    streamHeap_.clear();
    for (std::size_t s = linkSessBegin_[j]; s < linkSessBegin_[j + 1];
         ++s) {
      const std::size_t i = linkSess_[s];
      if (detached_[i]) continue;
      const auto& sc = sessionConfigs_[i];
      const double stop = std::min(sc.stopTime, horizon);
      for (std::size_t k = 1; k <= sc.layers; ++k) {
        const double phase = senders_[i].layerPhase(k);
        const double period = senders_[i].layerPeriod(k);
        // First unprocessed emission (the pending lookahead counts as
        // unprocessed), clipped by the session start, the replay
        // start, and the horizon/stop — exactly the admits per-packet
        // execution performs in the window.
        std::uint64_t n = senders_[i].layerEmitted(k) -
                          (pending[i].layer == k ? 1 : 0) + 1;
        if (sc.startTime > 0.0) {
          n = std::max(n,
                       lastEmissionBefore(phase, period, sc.startTime) + 1);
        }
        n = std::max(n, lastEmissionBefore(phase, period, from) + 1);
        const std::uint64_t nHi = lastEmissionBefore(phase, period, stop);
        if (n > nHi) continue;
        streamHeap_.push_back(StreamCursor{
            layerEmissionTime(phase, period, n), phase, period, n, nHi});
      }
    }
    std::make_heap(streamHeap_.begin(), streamHeap_.end(), laterCursor);
    bool exact = !windowed;
    double lb = 0.0;
    double lbTime = from;
    while (!streamHeap_.empty()) {
      std::pop_heap(streamHeap_.begin(), streamHeap_.end(), laterCursor);
      StreamCursor cur = streamHeap_.back();
      streamHeap_.pop_back();
      if (exact) {
        bucket.admit(cur.time);
      } else {
        const double pre = lb + bucket.rate() * (cur.time - lbTime);
        if (pre >= bucket.depth()) {
          // The lower bound clamped, so the true pre-admit level was
          // exactly depth: pin the exact post-admit state.
          bucket.resyncFullAdmit(cur.time);
          exact = true;
        } else {
          lb = pre - 1.0;
          lbTime = cur.time;
        }
      }
      if (cur.n < cur.nHi) {
        ++cur.n;
        cur.time = layerEmissionTime(cur.phase, cur.period, cur.n);
        streamHeap_.push_back(cur);
        std::push_heap(streamHeap_.begin(), streamHeap_.end(), laterCursor);
      }
    }
    return exact;
  }

  /// Per-link accumulator conservation: every offered packet-link
  /// traversal was either forwarded or dropped. Checked after every
  /// fault and at finalize when validation is on.
  void checkInvariants(const char* where) const {
    for (std::size_t j = 0; j < linkOffered_.size(); ++j) {
      checkLinkInvariant(j, where);
    }
  }

  /// Single-link conservation check — what a partitioned lane may verify
  /// at a fault without reading other lanes' accumulators.
  void checkLinkInvariant(std::size_t j, const char* where) const {
    if (linkOffered_[j] != linkForwarded_[j] + linkDropped_[j]) {
      throw NumericError(std::string("link accumulator conservation "
                                     "violated at ") +
                         where + ": link " + std::to_string(j));
    }
  }

  /// Converts the accumulated counts into the measured-rate result.
  ClosedLoopResult finalize() {
    ClosedLoopResult result;
    const std::size_t nSessions = sessionCount();
    const double window = config_.duration - config_.warmup;
    result.measuredRate.resize(nSessions);
    result.meanLevel.resize(nSessions);
    for (std::size_t i = 0; i < nSessions; ++i) {
      const std::size_t rb = recvBegin_[i];
      const std::size_t nr = recvBegin_[i + 1] - rb;
      result.measuredRate[i].resize(nr);
      result.meanLevel[i].resize(nr);
      for (std::size_t k = 0; k < nr; ++k) {
        result.measuredRate[i][k] =
            static_cast<double>(delivered_[rb + k]) / window;
        result.meanLevel[i][k] =
            levelSamples_[rb + k] > 0
                ? levelIntegral_[rb + k] /
                      static_cast<double>(levelSamples_[rb + k])
                : static_cast<double>(sessionConfigs_[i].initialLevel);
      }
    }
    if (nBins_ > 0) {
      result.binRates.resize(nSessions);
      for (std::size_t i = 0; i < nSessions; ++i) {
        const std::size_t rb = recvBegin_[i];
        const std::size_t nr = recvBegin_[i + 1] - rb;
        result.binRates[i].resize(nr);
        for (std::size_t k = 0; k < nr; ++k) {
          result.binRates[i][k].resize(nBins_);
          for (std::size_t b = 0; b < nBins_; ++b) {
            result.binRates[i][k][b] =
                static_cast<double>(binDelivered_[(rb + k) * nBins_ + b]) /
                config_.rateBinWidth;
          }
        }
      }
    }
    const std::size_t nLinks = network_.linkCount();
    result.linkThroughput.resize(nLinks);
    result.linkDropRate.resize(nLinks);
    result.sessionLinkRate.assign(nSessions,
                                  std::vector<double>(nLinks, 0.0));
    for (std::size_t j = 0; j < nLinks; ++j) {
      result.linkThroughput[j] =
          static_cast<double>(linkForwarded_[j]) / window;
      result.linkDropRate[j] =
          linkOffered_[j] > 0 ? static_cast<double>(linkDropped_[j]) /
                                    static_cast<double>(linkOffered_[j])
                              : 0.0;
      for (std::size_t i = 0; i < nSessions; ++i) {
        result.sessionLinkRate[i][j] =
            static_cast<double>(sessionForwarded_[i * nLinks + j]) / window;
      }
    }
    if (config_.computeFairEpochs) {
      result.fairEpochs = buildFairEpochs(network_, sessionConfigs_, config_);
    }
    result.fluidTime = fluidTime_;
    result.fluidPackets = fluidPackets_;
    result.fluidIntervals = fluidIntervals_;
    if (validateConservation_) checkInvariants("finalize");
    return result;
  }

 private:
  // The speculative engine is an alternate driver over the same SoA
  // state: it reuses the fluid scratch CSRs and mutates the buckets,
  // receivers, and accumulators directly from its sharded stages.
  friend class SpecEngine;

  std::size_t binIndex(double time) const noexcept {
    return std::min(nBins_ - 1, static_cast<std::size_t>(
                                    time / config_.rateBinWidth));
  }

  // One-time (per SimCore) fluid scratch: each session's touched-link
  // union in CSR form (all receivers sit at the top layer when the fluid
  // mode engages, so every packet touches the whole union), aggregate
  // stream rates, and the per-link certification state.
  void ensureFluidScratch() {
    if (fluidScratchReady_) return;
    const std::size_t nSessions = sessionCount();
    const std::size_t nLinks = network_.linkCount();
    sessLinkBegin_.resize(nSessions + 1);
    sessLinkBegin_[0] = 0;
    for (std::size_t i = 0; i < nSessions; ++i) {
      const auto path = network_.sessionDataPath(i);
      for (const graph::LinkId l : path) sessLink_.push_back(l.value);
      sessLinkBegin_[i + 1] = sessLink_.size();
    }
    sessAggRate_.resize(nSessions);
    for (std::size_t i = 0; i < nSessions; ++i) {
      sessAggRate_[i] =
          senders_[i].scheme().cumulativeRate(sessionConfigs_[i].layers);
    }
    events_.reserve(2 * nSessions);
    linkS_.resize(nLinks);
    linkR_.resize(nLinks);
    linkLB_.resize(nLinks);
    linkLast_.resize(nLinks);
    linkDirtyMark_.assign(nLinks, 0);
    dirtyLinks_.reserve(nLinks);
    // Hand-back scratch: the transposed link -> sessions CSR (which
    // streams cross each link) and the stream-cursor merge heap sized
    // for the largest possible stream set, so fault hand-backs are
    // allocation-free.
    linkSessBegin_.assign(nLinks + 1, 0);
    for (const std::uint32_t j : sessLink_) ++linkSessBegin_[j + 1];
    for (std::size_t j = 0; j < nLinks; ++j) {
      linkSessBegin_[j + 1] += linkSessBegin_[j];
    }
    linkSess_.resize(sessLink_.size());
    {
      std::vector<std::size_t> fill(linkSessBegin_.begin(),
                                    linkSessBegin_.end() - 1);
      for (std::size_t i = 0; i < nSessions; ++i) {
        for (std::size_t s = sessLinkBegin_[i]; s < sessLinkBegin_[i + 1];
             ++s) {
          linkSess_[fill[sessLink_[s]]++] = i;
        }
      }
    }
    std::size_t totalStreams = 0;
    std::size_t maxLayers = 0;
    for (std::size_t i = 0; i < nSessions; ++i) {
      totalStreams += sessionConfigs_[i].layers;
      maxLayers = std::max(maxLayers, sessionConfigs_[i].layers);
    }
    streamHeap_.reserve(totalStreams);
    resyncCounts_.reserve(maxLayers);
    seedScratch_.reserve(nSessions);
    fluidScratchReady_ = true;
  }

  static constexpr double kFluidTokenMargin = 2.0;

  const net::Network& network_;
  const ClosedLoopConfig& config_;
  std::vector<ClosedLoopSessionConfig> sessionConfigs_;
  std::vector<LayeredSender> senders_;

  // Flat per-receiver state (network receiverOffset numbering).
  std::vector<std::size_t> recvBegin_;  // nSessions + 1
  std::vector<LayeredReceiver> receivers_;
  std::vector<util::Rng> receiverRng_;
  std::vector<std::uint64_t> delivered_;
  std::vector<double> levelIntegral_;
  std::vector<std::uint64_t> levelSamples_;
  std::vector<std::uint64_t> binDelivered_;  // recv * nBins_ + bin

  std::vector<TokenBucket> buckets_;
  std::vector<std::unique_ptr<LossModel>> linkLoss_;  // empty = none
  std::vector<util::Rng> lossRng_;
  std::vector<std::uint64_t> linkForwarded_;
  std::vector<std::uint64_t> linkOffered_;
  std::vector<std::uint64_t> linkDropped_;
  std::vector<std::uint64_t> sessionForwarded_;  // session * nLinks + link
  std::size_t nBins_ = 0;
  std::vector<char> linkTouched_;
  std::vector<char> linkDropping_;
  std::vector<std::uint32_t> touched_;

  // Absorbing-receiver tracking (fluid eligibility).
  std::vector<std::uint32_t> nonAbsorbing_;  // per session
  std::vector<char> detached_;
  std::size_t nonAbsorbingLive_ = 0;
  // Component-parallel mode (enablePartitionedLanes): freezes
  // nonAbsorbingLive_ and scopes fault-time invariant checks per link.
  bool partitioned_ = false;

  // Fault state.
  net::FaultSchedule faults_;
  std::size_t nextFault_ = 0;
  std::vector<double> baseCapacity_;
  bool validateConservation_ = false;
  bool validateBucketReplay_ = false;

  // Fluid mode state.
  bool fluidArmed_ = false;
  double nextFluidAttempt_ = 0.0;
  double fluidBackoff_ = 1.0;
  double fluidTime_ = 0.0;
  std::uint64_t fluidPackets_ = 0;
  std::vector<FluidInterval> fluidIntervals_;
  bool fluidScratchReady_ = false;
  std::vector<std::size_t> sessLinkBegin_;  // CSR into sessLink_
  std::vector<std::uint32_t> sessLink_;
  std::vector<double> sessAggRate_;
  std::vector<std::size_t> linkSessBegin_;  // transposed: link -> sessions
  std::vector<std::size_t> linkSess_;
  struct StreamCursor {
    double time;
    double phase;
    double period;
    std::uint64_t n;
    std::uint64_t nHi;
  };
  static bool laterCursor(const StreamCursor& a,
                          const StreamCursor& b) noexcept {
    return a.time > b.time;
  }
  std::vector<StreamCursor> streamHeap_;
  std::vector<std::uint64_t> resyncCounts_;
  std::vector<EventQueue::Pending> seedScratch_;
  struct LifeEvent {
    double time;
    std::uint32_t session;
    std::int32_t delta;
  };
  std::vector<LifeEvent> events_;
  std::vector<double> linkS_;     // periodic streams crossing the link
  std::vector<double> linkR_;     // their aggregate rate
  std::vector<double> linkLB_;    // token lower bound
  std::vector<double> linkLast_;  // time linkLB_ refers to
  std::vector<char> linkDirtyMark_;
  std::vector<std::uint32_t> dirtyLinks_;
};

// ---- speculative intra-component engine ---------------------------------
//
// The component-parallel engine's unit of concurrency is a component, so a
// mega-merge population — every session crossing one shared bottleneck —
// is one lane and runs serially no matter how many threads are available.
// The speculative engine parallelizes INSIDE such a component by splitting
// simulated time into epochs bounded by shared-link state-change times
// (session starts/stops, fault events, plus a uniform grid) and running
// three sharded stages per epoch against a FROZEN snapshot of each
// session's receiver subscription levels:
//
//   GEN   (session-sharded)  Each sender's epoch packets via closed-form
//                            layerEmissionTime counts — embarrassingly
//                            parallel, overlapped with the caller's serial
//                            index build and with the previous epoch's
//                            admit stage (ThreadPool::beginShards).
//   ADMIT (link-sharded)     Token-bucket admit + exogenous loss for every
//                            packet predicted to touch the link, in global
//                            packet order restricted to the link. Each
//                            worker owns a contiguous link range, so each
//                            bucket and loss RNG stream has one writer.
//   RECV  (session-sharded)  Level sampling, delivery accounting, and the
//                            protocol state machines, against the TRUE
//                            (evolving) receiver state.
//
// Bit-identity argument. The serial engines apply, per packet: level
// samples and the subscriber scan, then per touched link (the union of
// subscribed receivers' data paths) the bucket admit and loss draw, then
// per subscriber the delivery + onPacket transition. The only coupling
// between sessions is the per-link admit/loss sequence; its order is the
// global packet order restricted to the link. The engine sorts each
// epoch's packets by (time, session) — the reference merge's exact order
// (lowest session index on equal times) — and feeds each link its
// arrivals in that order, so when the PREDICTED touched set of every
// packet equals the true one, every bucket sees the serial call sequence
// and every accumulator update commutes across shards (disjoint
// ownership). The prediction is exact by construction while no receiver
// of the session changed level since the epoch's snapshot (levels are the
// only input to the touched-set computation); the RECV stage tracks this
// per session and, once a level moves, compares the true touched set of
// each subsequent packet against the prediction. Any mismatch flags the
// epoch as diverged: the engine restores the pre-epoch snapshot (buckets,
// loss-model words, loss/receiver RNG streams, receivers, every
// accumulator) and replays the epoch's packets serially through
// processPacketInto — the literal serial semantics. Epochs therefore
// commit speculative work only when it is provably bit-identical, and
// fall back to serial execution (bounded to one epoch) when it is not.
//
// Populations whose receivers cannot change level — single-layer sessions,
// the mega-merge shape — never diverge: speculationRollbacks == 0.
//
// Steady-state epochs are allocation-free: every arena, index, and
// snapshot twin is sized once at setup from closed-form per-epoch packet
// bounds (rate * width + one per stream), and the per-epoch passes are
// fills, copies, sorts, and heap-free scans into that storage.
class SpecEngine {
 public:
  SpecEngine(SimCore& core, std::size_t threads)
      : core_(core),
        network_(core.network_),
        config_(core.config_),
        threads_(std::max<std::size_t>(1, threads)),
        pool_(threads_) {
    genJob_.engine = this;
    admitJob_.engine = this;
    recvJob_.engine = this;
    setup();
  }

  void run();

  std::uint64_t epochs() const noexcept { return epochCount_; }
  std::uint64_t rollbacks() const noexcept { return rollbackCount_; }

 private:
  // One generated packet. `ord` is the generation index within (session,
  // epoch): sorting by (time, session, ord) reproduces both the
  // reference merge's cross-session order and each sender's own stream
  // order (sender times are nondecreasing, ties emitted in pop order).
  struct SpecPacket {
    double time;
    std::uint32_t session;
    std::uint32_t ord;
    std::uint32_t layer;
    std::uint32_t syncLevel;
  };

  // ThreadPool jobs must outlive beginShards..finishShards; member
  // functors give them engine lifetime.
  struct GenJob {
    SpecEngine* engine;
    void operator()(std::size_t shard) const { engine->generateShard(shard); }
  };
  struct AdmitJob {
    SpecEngine* engine;
    void operator()(std::size_t shard) const { engine->admitShard(shard); }
  };
  struct RecvJob {
    SpecEngine* engine;
    void operator()(std::size_t shard) const { engine->receiverShard(shard); }
  };

  // Auto epoch sizing targets this many packets per epoch; the knob
  // overrides the uniform division count directly.
  static constexpr double kTargetEpochPackets = 262144.0;

  void setup();
  void prepareCounts(std::size_t epoch);
  void sortArena(std::size_t which, std::size_t count);
  void refreshFrozen();
  void takeSnapshot();
  void restoreSnapshot();
  void buildEpochIndex();
  void rollbackEpoch();
  void generateShard(std::size_t shard);
  void admitShard(std::size_t shard);
  void receiverShard(std::size_t shard);

  // Contiguous weighted range cuts: bounds[k]..bounds[k+1] is shard k's
  // range, cut so each carries ~1/shards of the total weight. Empty
  // shards are fine (workers skip them).
  static void planCuts(std::span<const double> weight, std::size_t shards,
                       std::vector<std::size_t>& bounds) {
    bounds.assign(shards + 1, weight.size());
    bounds[0] = 0;
    double total = 0.0;
    for (const double w : weight) total += w;
    double acc = 0.0;
    std::size_t k = 1;
    for (std::size_t i = 0; i < weight.size(); ++i) {
      acc += weight[i];
      while (k < shards && acc >= total * static_cast<double>(k) /
                                      static_cast<double>(shards)) {
        bounds[k++] = i + 1;
      }
    }
  }

  SimCore& core_;
  const net::Network& network_;
  const ClosedLoopConfig& config_;
  std::size_t threads_;
  util::ThreadPool pool_;
  GenJob genJob_;
  AdmitJob admitJob_;
  RecvJob recvJob_;

  // Epoch boundaries: bounds_[e]..bounds_[e+1] is epoch e, lower bound
  // inclusive, upper bound exclusive except for the final epoch (which
  // includes packets at exactly `duration`, like every serial driver).
  std::vector<double> bounds_;

  // Double-buffered packet arenas: front_ holds the epoch in flight,
  // the other side is filled by the overlapped generation of the next.
  std::vector<SpecPacket> arena_[2];
  std::size_t front_ = 0;
  std::size_t frontCount_ = 0;
  std::size_t genTarget_ = 0;
  std::size_t arenaCapacity_ = 0;

  // Closed-form per-session generation counts for the epoch being
  // generated (cnt_) and their exclusive prefix (off_ = arena offsets).
  std::vector<std::uint32_t> cnt_;
  std::vector<std::size_t> off_;
  std::size_t pendingCount_ = 0;

  // Frozen subscription snapshot: per session-slot (sessLink_ position)
  // the max level over the session's receivers whose data path crosses
  // that slot's link, and per session the max receiver level. A packet
  // of layer L is predicted to touch slot s iff frozenMaxSlot_[s] >= L.
  std::vector<std::uint32_t> frozenMaxSlot_;
  std::vector<std::uint32_t> frozenSessMax_;
  // 1 = the session's levels still equal the frozen snapshot. Cleared by
  // the RECV stage on any level transition; refreshFrozen() recomputes
  // cleared sessions at the next epoch top.
  std::vector<char> frozenValid_;

  // Per flat receiver: its data-path links as slot offsets within the
  // session's sessLink_ range (CSR).
  std::vector<std::size_t> recvSlotBegin_;
  std::vector<std::uint32_t> recvSlot_;
  std::size_t maxSlots_ = 0;

  // Per-epoch index, rebuilt serially while generation runs.
  // posList_: in-lifetime packet positions grouped by session (CSR) —
  // the RECV stage's work lists. dropOff_/dropByte_: per packet, one
  // drop flag per session slot, written by ADMIT, read by RECV.
  // linkPos_: per link, its predicted arrivals in global order (CSR),
  // packed (position << 16 | slot offset).
  std::vector<std::size_t> posBegin_;
  std::vector<std::size_t> posFill_;
  std::vector<std::size_t> posList_;
  std::vector<std::size_t> dropOff_;
  std::vector<std::uint8_t> dropByte_;
  std::size_t dropCapacity_ = 0;
  std::vector<std::size_t> linkPosBegin_;
  std::vector<std::size_t> linkFill_;
  std::vector<std::uint64_t> linkPos_;

  // Shard plans (weighted contiguous cuts, fixed at setup).
  std::size_t sessShards_ = 1;
  std::size_t linkShards_ = 1;
  std::vector<std::size_t> sessShardBounds_;
  std::vector<std::size_t> linkShardBounds_;
  // Per session-shard scratch for the divergence compare.
  std::vector<std::vector<std::uint8_t>> slotMark_;

  // Pre-epoch snapshot twins (sized once; std::copy per epoch).
  std::vector<LayeredReceiver> snapReceivers_;
  std::vector<util::Rng> snapReceiverRng_;
  std::vector<TokenBucket> snapBuckets_;
  std::vector<util::Rng> snapLossRng_;
  std::vector<std::uint64_t> snapLossState_;
  std::vector<std::uint64_t> snapDelivered_;
  std::vector<double> snapLevelIntegral_;
  std::vector<std::uint64_t> snapLevelSamples_;
  std::vector<std::uint64_t> snapBinDelivered_;
  std::vector<std::uint64_t> snapLinkForwarded_;
  std::vector<std::uint64_t> snapLinkOffered_;
  std::vector<std::uint64_t> snapLinkDropped_;
  std::vector<std::uint64_t> snapSessionForwarded_;
  std::vector<std::uint32_t> snapNonAbsorbing_;

  std::atomic<bool> diverged_{false};
  std::uint64_t epochCount_ = 0;
  std::uint64_t rollbackCount_ = 0;
};

void SpecEngine::setup() {
  core_.ensureFluidScratch();
  const std::size_t nSessions = core_.sessionCount();
  const std::size_t nLinks = network_.linkCount();
  const std::size_t nReceivers = network_.receiverCount();
  const double duration = config_.duration;

  // Receiver -> session-slot CSR. Paths are short, so the linear slot
  // search per path link is cheap and setup-only.
  recvSlotBegin_.assign(nReceivers + 1, 0);
  for (std::size_t i = 0; i < nSessions; ++i) {
    const auto& sess = network_.session(i);
    const std::size_t rb = core_.recvBegin_[i];
    for (std::size_t k = 0; k < sess.receivers.size(); ++k) {
      recvSlotBegin_[rb + k + 1] = sess.receivers[k].dataPath.size();
    }
  }
  for (std::size_t r = 0; r < nReceivers; ++r) {
    recvSlotBegin_[r + 1] += recvSlotBegin_[r];
  }
  recvSlot_.resize(recvSlotBegin_[nReceivers]);
  maxSlots_ = 0;
  for (std::size_t i = 0; i < nSessions; ++i) {
    const auto& sess = network_.session(i);
    const std::size_t base = core_.sessLinkBegin_[i];
    const std::size_t slots = core_.sessLinkBegin_[i + 1] - base;
    maxSlots_ = std::max(maxSlots_, slots);
    const std::size_t rb = core_.recvBegin_[i];
    for (std::size_t k = 0; k < sess.receivers.size(); ++k) {
      std::size_t at = recvSlotBegin_[rb + k];
      for (const graph::LinkId l : sess.receivers[k].dataPath) {
        std::uint32_t so = 0;
        while (core_.sessLink_[base + so] != l.value) ++so;
        recvSlot_[at++] = so;
      }
    }
  }
  MCFAIR_REQUIRE(maxSlots_ < (1u << 16),
                 "session link union too large for speculative packing");

  // Epoch boundaries: every shared-link state-change time in range, the
  // uniform grid, and the run's endpoints. A fault at exactly `duration`
  // gets a zero-width final epoch so it still fires before any packet
  // emitted exactly at the horizon.
  bounds_.clear();
  bounds_.push_back(0.0);
  for (std::size_t i = 0; i < nSessions; ++i) {
    const auto& sc = core_.sessionConfigs_[i];
    if (sc.startTime > 0.0 && sc.startTime < duration) {
      bounds_.push_back(sc.startTime);
    }
    if (sc.stopTime > 0.0 && sc.stopTime < duration) {
      bounds_.push_back(sc.stopTime);
    }
  }
  bool faultAtEnd = false;
  for (const net::FaultEvent& ev : core_.faultEvents()) {
    if (ev.time > 0.0 && ev.time < duration) {
      bounds_.push_back(ev.time);
    } else if (ev.time == duration) {
      faultAtEnd = true;
    }
  }
  double totalRate = 0.0;
  for (std::size_t i = 0; i < nSessions; ++i) {
    totalRate += core_.sessAggRate_[i];
  }
  std::size_t divisions = config_.speculativeEpochs;
  if (divisions == 0) {
    divisions = std::clamp<std::size_t>(
        static_cast<std::size_t>(totalRate * duration / kTargetEpochPackets),
        1, 4096);
  }
  for (std::size_t g = 1; g < divisions; ++g) {
    bounds_.push_back(duration * static_cast<double>(g) /
                      static_cast<double>(divisions));
  }
  bounds_.push_back(duration);
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  if (faultAtEnd) bounds_.push_back(duration);

  // Closed-form arena sizing: a periodic stream of period p emits at
  // most width / p + 1 packets in any closed interval of that width, so
  // rate * maxWidth + layers bounds a session's epoch packets.
  double maxWidth = 0.0;
  for (std::size_t e = 0; e + 1 < bounds_.size(); ++e) {
    maxWidth = std::max(maxWidth, bounds_[e + 1] - bounds_[e]);
  }
  double capBound = 0.0;
  double dropBound = 0.0;
  for (std::size_t i = 0; i < nSessions; ++i) {
    const double perSession =
        core_.sessAggRate_[i] * maxWidth +
        static_cast<double>(core_.sessionConfigs_[i].layers) + 1.0;
    capBound += perSession;
    dropBound += perSession *
                 static_cast<double>(core_.sessLinkBegin_[i + 1] -
                                     core_.sessLinkBegin_[i]);
  }
  arenaCapacity_ = static_cast<std::size_t>(capBound) + 64;
  dropCapacity_ = static_cast<std::size_t>(dropBound) + 64 * (maxSlots_ + 1);
  arena_[0].resize(arenaCapacity_);
  arena_[1].resize(arenaCapacity_);
  cnt_.resize(nSessions);
  off_.resize(nSessions + 1);
  posBegin_.assign(nSessions + 1, 0);
  posFill_.assign(nSessions, 0);
  posList_.resize(arenaCapacity_);
  dropOff_.resize(arenaCapacity_ + 1);
  dropByte_.assign(dropCapacity_, 0);
  linkPosBegin_.assign(nLinks + 1, 0);
  linkFill_.assign(nLinks, 0);
  linkPos_.resize(dropCapacity_);

  // Shard plans. Generation and RECV cost scale with a session's packet
  // rate (RECV additionally with its receiver count); ADMIT cost with
  // the aggregate rate crossing each link.
  sessShards_ = std::max<std::size_t>(
      1, std::min(nSessions, threads_ * 4));
  {
    std::vector<double> weight(nSessions);
    for (std::size_t i = 0; i < nSessions; ++i) {
      const double nr = static_cast<double>(core_.recvBegin_[i + 1] -
                                            core_.recvBegin_[i]);
      weight[i] = core_.sessAggRate_[i] * (1.0 + nr);
    }
    planCuts(weight, sessShards_, sessShardBounds_);
  }
  linkShards_ = std::min(nLinks, threads_);
  {
    std::vector<double> weight(nLinks, 0.0);
    for (std::size_t j = 0; j < nLinks; ++j) {
      for (std::size_t s = core_.linkSessBegin_[j];
           s < core_.linkSessBegin_[j + 1]; ++s) {
        weight[j] += core_.sessAggRate_[core_.linkSess_[s]];
      }
    }
    planCuts(weight, std::max<std::size_t>(1, linkShards_),
             linkShardBounds_);
  }
  slotMark_.assign(sessShards_, std::vector<std::uint8_t>(maxSlots_, 0));

  // Frozen snapshot storage; everything starts dirty.
  frozenMaxSlot_.assign(core_.sessLink_.size(), 0);
  frozenSessMax_.assign(nSessions, 0);
  frozenValid_.assign(nSessions, 0);

  // Snapshot twins, copy-initialized once so per-epoch snapshots are
  // element copies into existing storage.
  snapReceivers_ = core_.receivers_;
  snapReceiverRng_ = core_.receiverRng_;
  snapBuckets_ = core_.buckets_;
  snapLossRng_ = core_.lossRng_;
  snapLossState_.assign(nLinks, 0);
  snapDelivered_.assign(nReceivers, 0);
  snapLevelIntegral_.assign(nReceivers, 0.0);
  snapLevelSamples_.assign(nReceivers, 0);
  snapBinDelivered_.assign(core_.binDelivered_.size(), 0);
  snapLinkForwarded_.assign(nLinks, 0);
  snapLinkOffered_.assign(nLinks, 0);
  snapLinkDropped_.assign(nLinks, 0);
  snapSessionForwarded_.assign(core_.sessionForwarded_.size(), 0);
  snapNonAbsorbing_.assign(nSessions, 0);
}

// Closed-form emission counts for `epoch`: each layer stream has emitted
// exactly lastEmissionBefore(bounds_[epoch]) packets (the invariant the
// previous epoch's generation established), so the delta to the epoch's
// upper bound is this epoch's pull count. The final epoch is inclusive
// at `duration`, matching every serial driver's `time > duration` break.
void SpecEngine::prepareCounts(std::size_t epoch) {
  const double hi = bounds_[epoch + 1];
  const bool finalEpoch = epoch + 2 == bounds_.size();
  const std::size_t nSessions = core_.sessionCount();
  std::size_t total = 0;
  for (std::size_t i = 0; i < nSessions; ++i) {
    const LayeredSender& snd = core_.senders_[i];
    const std::size_t layers = core_.sessionConfigs_[i].layers;
    std::uint64_t c = 0;
    for (std::size_t k = 1; k <= layers; ++k) {
      const double phase = snd.layerPhase(k);
      const double period = snd.layerPeriod(k);
      const std::uint64_t target =
          finalEpoch ? lastEmissionAtMost(phase, period, hi)
                     : lastEmissionBefore(phase, period, hi);
      const std::uint64_t done = snd.layerEmitted(k);
      c += target > done ? target - done : 0;
    }
    off_[i] = total;
    cnt_[i] = static_cast<std::uint32_t>(c);
    total += c;
  }
  off_[nSessions] = total;
  MCFAIR_REQUIRE(total <= arenaCapacity_,
                 "speculative arena bound violated");
  pendingCount_ = total;
}

void SpecEngine::generateShard(std::size_t shard) {
  std::vector<SpecPacket>& out = arena_[genTarget_];
  for (std::size_t i = sessShardBounds_[shard];
       i < sessShardBounds_[shard + 1]; ++i) {
    std::size_t at = off_[i];
    const std::uint32_t n = cnt_[i];
    for (std::uint32_t q = 0; q < n; ++q) {
      const Packet p = core_.senders_[i].next();
      out[at + q] = SpecPacket{p.time, static_cast<std::uint32_t>(i), q,
                               static_cast<std::uint32_t>(p.layer),
                               static_cast<std::uint32_t>(p.syncLevel)};
    }
  }
}

void SpecEngine::sortArena(std::size_t which, std::size_t count) {
  std::sort(arena_[which].begin(), arena_[which].begin() + count,
            [](const SpecPacket& a, const SpecPacket& b) noexcept {
              if (a.time != b.time) return a.time < b.time;
              if (a.session != b.session) return a.session < b.session;
              return a.ord < b.ord;
            });
}

void SpecEngine::refreshFrozen() {
  const std::size_t nSessions = core_.sessionCount();
  for (std::size_t i = 0; i < nSessions; ++i) {
    if (frozenValid_[i]) continue;
    const std::size_t base = core_.sessLinkBegin_[i];
    const std::size_t slots = core_.sessLinkBegin_[i + 1] - base;
    for (std::size_t s = 0; s < slots; ++s) frozenMaxSlot_[base + s] = 0;
    std::uint32_t sessMax = 0;
    const std::size_t rb = core_.recvBegin_[i];
    const std::size_t re = core_.recvBegin_[i + 1];
    for (std::size_t r = rb; r < re; ++r) {
      const auto lvl =
          static_cast<std::uint32_t>(core_.receivers_[r].level());
      sessMax = std::max(sessMax, lvl);
      for (std::size_t s = recvSlotBegin_[r]; s < recvSlotBegin_[r + 1];
           ++s) {
        std::uint32_t& slot = frozenMaxSlot_[base + recvSlot_[s]];
        slot = std::max(slot, lvl);
      }
    }
    frozenSessMax_[i] = sessMax;
    frozenValid_[i] = 1;
  }
}

void SpecEngine::takeSnapshot() {
  std::copy(core_.receivers_.begin(), core_.receivers_.end(),
            snapReceivers_.begin());
  std::copy(core_.receiverRng_.begin(), core_.receiverRng_.end(),
            snapReceiverRng_.begin());
  std::copy(core_.buckets_.begin(), core_.buckets_.end(),
            snapBuckets_.begin());
  std::copy(core_.lossRng_.begin(), core_.lossRng_.end(),
            snapLossRng_.begin());
  for (std::size_t j = 0; j < core_.linkLoss_.size(); ++j) {
    if (core_.linkLoss_[j] != nullptr) {
      snapLossState_[j] = core_.linkLoss_[j]->stateWord();
    }
  }
  std::copy(core_.delivered_.begin(), core_.delivered_.end(),
            snapDelivered_.begin());
  std::copy(core_.levelIntegral_.begin(), core_.levelIntegral_.end(),
            snapLevelIntegral_.begin());
  std::copy(core_.levelSamples_.begin(), core_.levelSamples_.end(),
            snapLevelSamples_.begin());
  std::copy(core_.binDelivered_.begin(), core_.binDelivered_.end(),
            snapBinDelivered_.begin());
  std::copy(core_.linkForwarded_.begin(), core_.linkForwarded_.end(),
            snapLinkForwarded_.begin());
  std::copy(core_.linkOffered_.begin(), core_.linkOffered_.end(),
            snapLinkOffered_.begin());
  std::copy(core_.linkDropped_.begin(), core_.linkDropped_.end(),
            snapLinkDropped_.begin());
  std::copy(core_.sessionForwarded_.begin(), core_.sessionForwarded_.end(),
            snapSessionForwarded_.begin());
  std::copy(core_.nonAbsorbing_.begin(), core_.nonAbsorbing_.end(),
            snapNonAbsorbing_.begin());
}

void SpecEngine::restoreSnapshot() {
  std::copy(snapReceivers_.begin(), snapReceivers_.end(),
            core_.receivers_.begin());
  std::copy(snapReceiverRng_.begin(), snapReceiverRng_.end(),
            core_.receiverRng_.begin());
  std::copy(snapBuckets_.begin(), snapBuckets_.end(),
            core_.buckets_.begin());
  std::copy(snapLossRng_.begin(), snapLossRng_.end(),
            core_.lossRng_.begin());
  for (std::size_t j = 0; j < core_.linkLoss_.size(); ++j) {
    if (core_.linkLoss_[j] != nullptr) {
      core_.linkLoss_[j]->setStateWord(snapLossState_[j]);
    }
  }
  std::copy(snapDelivered_.begin(), snapDelivered_.end(),
            core_.delivered_.begin());
  std::copy(snapLevelIntegral_.begin(), snapLevelIntegral_.end(),
            core_.levelIntegral_.begin());
  std::copy(snapLevelSamples_.begin(), snapLevelSamples_.end(),
            core_.levelSamples_.begin());
  std::copy(snapBinDelivered_.begin(), snapBinDelivered_.end(),
            core_.binDelivered_.begin());
  std::copy(snapLinkForwarded_.begin(), snapLinkForwarded_.end(),
            core_.linkForwarded_.begin());
  std::copy(snapLinkOffered_.begin(), snapLinkOffered_.end(),
            core_.linkOffered_.begin());
  std::copy(snapLinkDropped_.begin(), snapLinkDropped_.end(),
            core_.linkDropped_.begin());
  std::copy(snapSessionForwarded_.begin(), snapSessionForwarded_.end(),
            core_.sessionForwarded_.begin());
  std::copy(snapNonAbsorbing_.begin(), snapNonAbsorbing_.end(),
            core_.nonAbsorbing_.begin());
}

// Serial per-epoch index build (overlapped with generation of the next
// epoch, which touches only the senders and the back arena): the RECV
// work lists (in-lifetime packets by session), the drop-flag layout, and
// each link's predicted arrival list in global packet order.
void SpecEngine::buildEpochIndex() {
  const std::vector<SpecPacket>& order = arena_[front_];
  const std::size_t count = frontCount_;
  const std::size_t nSessions = core_.sessionCount();
  const std::size_t nLinks = network_.linkCount();

  std::fill(posBegin_.begin(), posBegin_.end(), 0);
  std::fill(linkPosBegin_.begin(), linkPosBegin_.end(), 0);
  dropOff_[0] = 0;
  for (std::size_t p = 0; p < count; ++p) {
    const SpecPacket& sp = order[p];
    const auto& sc = core_.sessionConfigs_[sp.session];
    const bool inLife = sp.time >= sc.startTime && sp.time < sc.stopTime;
    std::size_t slots = 0;
    if (inLife) {
      ++posBegin_[sp.session + 1];
      if (frozenSessMax_[sp.session] >= sp.layer) {
        const std::size_t base = core_.sessLinkBegin_[sp.session];
        slots = core_.sessLinkBegin_[sp.session + 1] - base;
        for (std::size_t s = 0; s < slots; ++s) {
          if (frozenMaxSlot_[base + s] >= sp.layer) {
            ++linkPosBegin_[core_.sessLink_[base + s] + 1];
          }
        }
      }
    }
    dropOff_[p + 1] = dropOff_[p] + slots;
  }
  MCFAIR_REQUIRE(dropOff_[count] <= dropCapacity_,
                 "speculative drop-flag bound violated");
  for (std::size_t i = 0; i < nSessions; ++i) {
    posBegin_[i + 1] += posBegin_[i];
  }
  for (std::size_t j = 0; j < nLinks; ++j) {
    linkPosBegin_[j + 1] += linkPosBegin_[j];
  }
  std::copy(posBegin_.begin(), posBegin_.end() - 1, posFill_.begin());
  std::copy(linkPosBegin_.begin(), linkPosBegin_.end() - 1,
            linkFill_.begin());
  for (std::size_t p = 0; p < count; ++p) {
    const SpecPacket& sp = order[p];
    if (dropOff_[p + 1] != dropOff_[p]) {
      const std::size_t base = core_.sessLinkBegin_[sp.session];
      const std::size_t slots = dropOff_[p + 1] - dropOff_[p];
      for (std::size_t s = 0; s < slots; ++s) {
        if (frozenMaxSlot_[base + s] >= sp.layer) {
          linkPos_[linkFill_[core_.sessLink_[base + s]]++] =
              (static_cast<std::uint64_t>(p) << 16) | s;
        }
      }
      posList_[posFill_[sp.session]++] = p;
    } else {
      const auto& sc = core_.sessionConfigs_[sp.session];
      if (sp.time >= sc.startTime && sp.time < sc.stopTime) {
        posList_[posFill_[sp.session]++] = p;
      }
    }
  }
  std::fill(dropByte_.begin(), dropByte_.begin() + dropOff_[count], 0);
}

void SpecEngine::admitShard(std::size_t shard) {
  const std::vector<SpecPacket>& order = arena_[front_];
  const bool haveLoss = !core_.linkLoss_.empty();
  const double warmup = config_.warmup;
  const std::size_t nLinks = network_.linkCount();
  for (std::size_t j = linkShardBounds_[shard];
       j < linkShardBounds_[shard + 1]; ++j) {
    TokenBucket& bucket = core_.buckets_[j];
    LossModel* loss = haveLoss ? core_.linkLoss_[j].get() : nullptr;
    for (std::size_t at = linkPosBegin_[j]; at < linkPosBegin_[j + 1];
         ++at) {
      const std::uint64_t packed = linkPos_[at];
      const auto p = static_cast<std::size_t>(packed >> 16);
      const std::size_t slot = packed & 0xffffu;
      const SpecPacket& sp = order[p];
      const bool measuring = sp.time >= warmup;
      if (measuring) ++core_.linkOffered_[j];
      bool forwarded = bucket.admit(sp.time);
      if (forwarded && loss != nullptr) {
        forwarded = !loss->lose(core_.lossRng_[j]);
      }
      if (forwarded) {
        if (measuring) {
          ++core_.linkForwarded_[j];
          ++core_.sessionForwarded_[sp.session * nLinks + j];
        }
      } else {
        if (measuring) ++core_.linkDropped_[j];
        dropByte_[dropOff_[p] + slot] = 1;
      }
    }
  }
}

void SpecEngine::receiverShard(std::size_t shard) {
  const std::vector<SpecPacket>& order = arena_[front_];
  std::vector<std::uint8_t>& mark = slotMark_[shard];
  const double warmup = config_.warmup;
  for (std::size_t i = sessShardBounds_[shard];
       i < sessShardBounds_[shard + 1]; ++i) {
    if (diverged_.load(std::memory_order_relaxed)) return;
    const std::size_t rb = core_.recvBegin_[i];
    const std::size_t re = core_.recvBegin_[i + 1];
    const std::size_t base = core_.sessLinkBegin_[i];
    const std::size_t slots = core_.sessLinkBegin_[i + 1] - base;
    const std::size_t maxLevel = core_.sessionConfigs_[i].layers;
    bool valid = true;  // refreshFrozen() ran at the epoch top
    for (std::size_t at = posBegin_[i]; at < posBegin_[i + 1]; ++at) {
      const std::size_t p = posList_[at];
      const SpecPacket& sp = order[p];
      const bool measuring = sp.time >= warmup;
      const std::size_t layer = sp.layer;
      bool anySubscribed = false;
      for (std::size_t r = rb; r < re; ++r) {
        const std::size_t lvl = core_.receivers_[r].level();
        if (measuring) {
          core_.levelIntegral_[r] += static_cast<double>(lvl);
          ++core_.levelSamples_[r];
        }
        if (lvl >= layer) anySubscribed = true;
      }
      if (!valid) {
        // Levels moved inside this epoch: the frozen prediction the
        // ADMIT stage executed may no longer match the true touched
        // set. Compare them; any mismatch poisons the epoch.
        for (std::size_t r = rb; r < re; ++r) {
          if (core_.receivers_[r].level() < layer) continue;
          for (std::size_t s = recvSlotBegin_[r]; s < recvSlotBegin_[r + 1];
               ++s) {
            mark[recvSlot_[s]] = 1;
          }
        }
        bool mismatch = false;
        for (std::size_t s = 0; s < slots; ++s) {
          const bool predicted = frozenMaxSlot_[base + s] >= layer;
          if (predicted != (mark[s] != 0)) mismatch = true;
          mark[s] = 0;
        }
        if (mismatch) {
          frozenValid_[i] = 0;
          diverged_.store(true, std::memory_order_relaxed);
          return;
        }
      }
      if (!anySubscribed) continue;
      for (std::size_t r = rb; r < re; ++r) {
        LayeredReceiver& recv = core_.receivers_[r];
        const std::size_t before = recv.level();
        if (before < layer) continue;
        bool lost = false;
        for (std::size_t s = recvSlotBegin_[r]; s < recvSlotBegin_[r + 1];
             ++s) {
          if (dropByte_[dropOff_[p] + recvSlot_[s]]) {
            lost = true;
            break;
          }
        }
        if (!lost) {
          if (measuring) ++core_.delivered_[r];
          if (core_.nBins_ > 0) {
            ++core_.binDelivered_[r * core_.nBins_ + core_.binIndex(sp.time)];
          }
        }
        const bool wasMax = before == maxLevel;
        recv.onPacket(lost, sp.syncLevel, core_.receiverRng_[r]);
        const std::size_t after = recv.level();
        const bool isMax = after == maxLevel;
        if (wasMax != isMax) {
          // Partitioned-mode bookkeeping: per-session only (the live
          // counter is frozen, exactly as in the component lanes).
          if (isMax) {
            --core_.nonAbsorbing_[i];
          } else {
            ++core_.nonAbsorbing_[i];
          }
        }
        if (after != before) valid = false;
      }
    }
    frozenValid_[i] = valid ? 1 : 0;
  }
}

// A diverged epoch is abandoned wholesale: restore the pre-epoch
// snapshot and replay the epoch's packets serially through
// processPacketInto — literally the serial engines' per-packet path, in
// the serial order (the sorted arena). Out-of-lifetime packets re-filter
// inside processPacketInto, exactly as they do serially.
void SpecEngine::rollbackEpoch() {
  restoreSnapshot();
  const std::vector<SpecPacket>& order = arena_[front_];
  for (std::size_t p = 0; p < frontCount_; ++p) {
    const SpecPacket& sp = order[p];
    Packet pkt;
    pkt.layer = sp.layer;
    pkt.time = sp.time;
    pkt.syncLevel = sp.syncLevel;
    core_.processPacketInto(sp.session, pkt, core_.touched_);
  }
  std::fill(frozenValid_.begin(), frozenValid_.end(), 0);
  diverged_.store(false, std::memory_order_relaxed);
  ++rollbackCount_;
}

void SpecEngine::run() {
  const std::size_t epochs = bounds_.size() - 1;
  util::ShardFnRef genRef(genJob_);
  util::ShardFnRef admitRef(admitJob_);
  util::ShardFnRef recvRef(recvJob_);

  // Epoch 0 has nothing to overlap with: generate and sort it directly.
  prepareCounts(0);
  front_ = 0;
  genTarget_ = 0;
  frontCount_ = pendingCount_;
  pool_.forEachShard(sessShards_, genRef);
  sortArena(front_, frontCount_);

  for (std::size_t e = 0; e < epochs; ++e) {
    // Shared-link state changes sit exactly on epoch boundaries: every
    // fault at or before this epoch's start fires before any of its
    // packets (all at or after the boundary) — the fault-before-packet
    // order every serial driver implements.
    while (core_.nextFaultTime() <= bounds_[e]) core_.applyNextFault();
    refreshFrozen();
    const bool haveNext = e + 1 < epochs;
    std::size_t nextCount = 0;
    if (haveNext) {
      prepareCounts(e + 1);
      nextCount = pendingCount_;
      genTarget_ = front_ ^ 1;
      pool_.beginShards(sessShards_, genRef);
    }
    takeSnapshot();
    buildEpochIndex();
    if (haveNext) pool_.finishShards();
    pool_.beginShards(linkShards_, admitRef);
    if (haveNext) sortArena(front_ ^ 1, nextCount);
    pool_.finishShards();
    pool_.forEachShard(sessShards_, recvRef);
    ++epochCount_;
    if (diverged_.load(std::memory_order_relaxed)) rollbackEpoch();
    if (haveNext) {
      front_ ^= 1;
      frontCount_ = nextCount;
    }
  }
}

// Shared entry for the public driver and the parallel engine's dispatch.
ClosedLoopResult runSpeculative(const net::Network& network,
                                const ClosedLoopConfig& config,
                                std::size_t threads) {
  SimCore core(network, config);
  core.enablePartitionedLanes();
  SpecEngine engine(core, threads);
  engine.run();
  ClosedLoopResult result = core.finalize();
  result.speculationEpochs = engine.epochs();
  result.speculationRollbacks = engine.rollbacks();
  return result;
}

// The parallel engine reroutes to the speculative engine when one
// component holds at least half the population AND is large enough that
// per-component lanes cannot win. The floor keeps small fixtures on the
// lane path.
constexpr std::size_t kSpeculationDispatchFloor = 256;

// The event-driven merge shared by runClosedLoopSimulation and the fluid
// engine: session i's earliest unprocessed packet lives in pending[i];
// the queue orders the sessions by that packet's time (payload = session
// index). Advancing the simulation is pop + push: O(log sessions) per
// packet. The queue holds exactly one event per session, so after the
// seeding batch no event-queue allocation occurs. With `fluid`, every
// pop first offers the remaining run to the analytic fast-forward; a
// successful certificate ends packet execution on the spot.
ClosedLoopResult runEventDriven(const net::Network& network,
                                const ClosedLoopConfig& config,
                                bool fluid) {
  SimCore core(network, config);
  const std::size_t nSessions = core.sessionCount();
  if (fluid) core.armFluid();

  std::vector<Packet> pending;
  pending.reserve(nSessions);
  EventQueue queue;
  queue.reserve(nSessions + 1);
  std::vector<EventQueue::Pending> seed;
  seed.reserve(nSessions);
  for (std::size_t i = 0; i < nSessions; ++i) {
    pending.push_back(core.nextPacket(i));
    seed.push_back(EventQueue::Pending{pending[i].time, i});
  }
  queue.scheduleAt(seed);

  while (const auto e = queue.peek()) {
    // The head is the global minimum: once it passes the horizon, every
    // pending packet has.
    if (e->time > config.duration) break;
    // Faults fire strictly before any packet at or after their time —
    // the ordering every driver implements, which keeps trajectories
    // engine-independent through a fault schedule.
    if (core.nextFaultTime() <= e->time) {
      core.applyNextFault();
      continue;
    }
    if (core.fluidWanted(e->time)) {
      const double horizon =
          std::min(config.duration, core.nextFaultTime());
      if (core.tryFluidFastForward(e->time, pending, queue, horizon)) {
        if (horizon >= config.duration) {
          // Everything from e->time on is accounted analytically; the
          // remaining queue entries are intentionally abandoned.
          queue.clear();
          break;
        }
        // Partial fast-forward up to the next fault: per-packet state
        // was reconstructed at the horizon and the queue reseeded; the
        // next iteration applies the fault and resumes per-packet.
        continue;
      }
    }
    queue.pop();
    const auto i = static_cast<std::size_t>(e->payload);
    const Packet pkt = pending[i];
    pending[i] = core.nextPacket(i);
    core.processPacket(i, pkt);
    // Departed sessions leave the merge: every later packet of i would
    // be discarded anyway, so not rescheduling is trajectory-identical
    // and stops dead sessions from dominating heap traffic under churn.
    if (pending[i].time < core.stopTime(i)) {
      queue.schedule(pending[i].time, e->payload);
    } else {
      core.onSessionDetached(i);
    }
  }
  return core.finalize();
}

// Resolved executor count for the component-parallel engine: explicit
// non-negative values win (0 and 1 both mean serial); the -1 default
// defers to the MCFAIR_SIM_THREADS environment variable (unset or
// invalid = serial).
std::size_t resolveEngineThreads(int engineThreads) {
  if (engineThreads >= 0) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(engineThreads));
  }
  return std::max<std::size_t>(
      1, util::ThreadPool::threadCountFromEnv("MCFAIR_SIM_THREADS", 1));
}

// The component-parallel merge: one event-queue lane per link-set
// connected component (sim/partition.hpp), executed concurrently on a
// util::ThreadPool. Bit-identity with runEventDriven follows from three
// facts.
//  (1) State disjointness: every mutation processPacketInto makes is
//      indexed by the packet's session, its receivers, or its links —
//      all owned by exactly one component. The only cross-component
//      state (the global touched scratch and the fluid engine's live
//      counter) is replaced per lane / frozen in partitioned mode.
//  (2) Order preservation: within a lane, packets pop in exactly the
//      serial pop order restricted to the component. Lane seeds enter
//      in ascending session order, matching the serial seeding batch's
//      sequence-number tie-break, and every reschedule follows its pop
//      just as in the serial heap; each lane applies its own links'
//      fault events strictly before any lane packet at or after their
//      time, in the schedule's normalized (time, link, kind) order.
//  (3) Commutativity: packets and faults of different lanes touch
//      disjoint state, so any interleaving of lane executions — and any
//      assignment of lanes to threads — yields the same accumulators.
ClosedLoopResult runComponentParallel(const net::Network& network,
                                      const ClosedLoopConfig& config,
                                      std::size_t threads) {
  SessionPartitioner partitioner;
  const SessionPartition& part = partitioner.ensure(network);
  const std::size_t nComp = part.componentCount;

  // Mega-merge dispatch: when one component dominates the session
  // population, component lanes are Amdahl-bound (the big lane runs
  // serially whatever the thread count) and the intra-component
  // speculative engine takes over. speculationThreads == 0 disables the
  // reroute; > 0 overrides the worker count.
  const std::size_t specThreads =
      config.speculationThreads > 0
          ? static_cast<std::size_t>(config.speculationThreads)
          : threads;
  const std::size_t largest = part.largestComponentSessions();
  if (config.speculationThreads != 0 && specThreads > 1 &&
      largest >= kSpeculationDispatchFloor &&
      largest * 2 >= network.sessionCount()) {
    ClosedLoopResult result = runSpeculative(network, config, specThreads);
    result.engineComponents = nComp;
    result.partitionRebuilds = partitioner.rebuilds();
    return result;
  }

  SimCore core(network, config);
  core.enablePartitionedLanes();
  const std::size_t nSessions = core.sessionCount();

  // Each session's lookahead packet, seeded serially in ascending
  // session order — the exact sender draws the serial engines make.
  std::vector<Packet> pending;
  pending.reserve(nSessions);
  for (std::size_t i = 0; i < nSessions; ++i) {
    pending.push_back(core.nextPacket(i));
  }

  // Per-component fault sub-schedules: a stable counting sort of the
  // normalized schedule by the faulted link's component keeps each
  // lane's events in global order. Faults on orphan links are dropped —
  // their buckets are never offered a packet, so reconfiguring them is
  // unobservable (the serial engines do apply them, to no effect on any
  // result field).
  const std::span<const net::FaultEvent> faults = core.faultEvents();
  std::vector<std::size_t> laneFaultBegin(nComp + 1, 0);
  for (const net::FaultEvent& ev : faults) {
    const std::uint32_t c = part.linkComponent[ev.link.value];
    if (c != SessionPartition::kUnattached) ++laneFaultBegin[c + 1];
  }
  for (std::size_t c = 0; c < nComp; ++c) {
    laneFaultBegin[c + 1] += laneFaultBegin[c];
  }
  std::vector<std::uint32_t> laneFaults(laneFaultBegin[nComp]);
  {
    std::vector<std::size_t> fill(laneFaultBegin.begin(),
                                  laneFaultBegin.end() - 1);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      const std::uint32_t c = part.linkComponent[faults[f].link.value];
      if (c != SessionPartition::kUnattached) {
        laneFaults[fill[c]++] = static_cast<std::uint32_t>(f);
      }
    }
  }

  // Per-lane touched scratch is sized to the component's own link count.
  std::vector<std::uint32_t> compLinks(nComp, 0);
  for (const std::uint32_t c : part.linkComponent) {
    if (c != SessionPartition::kUnattached) ++compLinks[c];
  }

  // One merge lane per component; seeding each lane's queue in ascending
  // session order assigns ascending sequence numbers, so equal-time ties
  // within a lane break exactly as the serial merge breaks them.
  struct Lane {
    EventQueue queue;
    std::vector<std::uint32_t> touched;
    std::size_t nextFault = 0;
  };
  std::vector<Lane> lanes(nComp);
  std::vector<EventQueue::Pending> seed;
  for (std::size_t c = 0; c < nComp; ++c) {
    const auto sessions = part.sessionsOf(static_cast<std::uint32_t>(c));
    Lane& lane = lanes[c];
    lane.queue.reserve(sessions.size() + 1);
    lane.touched.reserve(compLinks[c]);
    lane.nextFault = laneFaultBegin[c];
    seed.clear();
    for (const std::uint32_t i : sessions) {
      seed.push_back(EventQueue::Pending{pending[i].time, i});
    }
    lane.queue.scheduleAt(seed);
  }

  // Lane executor: the serial event-driven loop restricted to one
  // component. After this point no heap allocation occurs — queues hold
  // at most one event per lane session, and the touched scratch peaks at
  // the component's link count.
  const double duration = config.duration;
  auto worker = [&](std::size_t c) {
    Lane& lane = lanes[c];
    const std::size_t faultEnd = laneFaultBegin[c + 1];
    while (const auto e = lane.queue.peek()) {
      if (e->time > duration) break;
      if (lane.nextFault < faultEnd &&
          faults[laneFaults[lane.nextFault]].time <= e->time) {
        core.applyFaultEvent(faults[laneFaults[lane.nextFault]]);
        ++lane.nextFault;
        continue;
      }
      lane.queue.pop();
      const auto i = static_cast<std::size_t>(e->payload);
      const Packet pkt = pending[i];
      pending[i] = core.nextPacket(i);
      core.processPacketInto(i, pkt, lane.touched);
      if (pending[i].time < core.stopTime(i)) {
        lane.queue.schedule(pending[i].time, e->payload);
      } else {
        core.onSessionDetached(i);
      }
    }
  };
  util::ShardFnRef ref(worker);
  util::ThreadPool pool(threads);
  pool.forEachShard(nComp, ref);

  ClosedLoopResult result = core.finalize();
  result.engineComponents = nComp;
  result.partitionRebuilds = partitioner.rebuilds();
  return result;
}

}  // namespace

ClosedLoopResult runClosedLoopSimulation(const net::Network& network,
                                         const ClosedLoopConfig& config) {
  // The fluid engine takes precedence: its analytic fast-forward needs
  // the global absorbing gate the partitioned mode freezes, so the two
  // accelerations do not compose (yet).
  const std::size_t threads = resolveEngineThreads(config.engineThreads);
  if (threads > 1 && !config.fluidFastForward) {
    return runComponentParallel(network, config, threads);
  }
  return runEventDriven(network, config, config.fluidFastForward);
}

ClosedLoopResult runClosedLoopSimulationParallel(
    const net::Network& network, const ClosedLoopConfig& config) {
  return runComponentParallel(network, config,
                              resolveEngineThreads(config.engineThreads));
}

ClosedLoopResult runClosedLoopSimulationFluid(
    const net::Network& network, const ClosedLoopConfig& config) {
  return runEventDriven(network, config, true);
}

ClosedLoopResult runClosedLoopSimulationSpeculative(
    const net::Network& network, const ClosedLoopConfig& config) {
  const std::size_t threads =
      config.speculationThreads >= 0
          ? std::max<std::size_t>(
                1, static_cast<std::size_t>(config.speculationThreads))
          : resolveEngineThreads(-1);
  return runSpeculative(network, config, threads);
}

ClosedLoopResult runClosedLoopSimulationReference(
    const net::Network& network, const ClosedLoopConfig& config) {
  SimCore core(network, config);
  const std::size_t nSessions = core.sessionCount();

  // Linear-scan merge (one lookahead packet per sender, earliest first;
  // tie-break: lower session index).
  std::vector<Packet> pending;
  pending.reserve(nSessions);
  for (std::size_t i = 0; i < nSessions; ++i) {
    pending.push_back(core.nextPacket(i));
  }
  while (true) {
    std::size_t sessionIdx = 0;
    for (std::size_t i = 1; i < nSessions; ++i) {
      if (pending[i].time < pending[sessionIdx].time) sessionIdx = i;
    }
    const Packet pkt = pending[sessionIdx];
    if (pkt.time > config.duration) break;
    // Same fault-before-packet ordering as the event-driven merge:
    // packet times are processed in nondecreasing order, so applying
    // every fault at or before this packet's time here is equivalent.
    while (core.nextFaultTime() <= pkt.time) core.applyNextFault();
    pending[sessionIdx] = core.nextPacket(sessionIdx);
    core.processPacket(sessionIdx, pkt);
  }
  return core.finalize();
}

double fairnessGap(const net::Network& network,
                   const ClosedLoopResult& result,
                   const fairness::Allocation& reference, double floor) {
  double total = 0.0;
  std::size_t count = 0;
  for (const auto ref : network.receiverRefs()) {
    const double fair = reference.rate(ref);
    const double measured = result.measuredRate[ref.session][ref.receiver];
    total += std::fabs(measured - fair) / std::max(fair, floor);
    ++count;
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

}  // namespace mcfair::sim
