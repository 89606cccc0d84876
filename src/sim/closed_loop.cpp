#include "sim/closed_loop.hpp"

#include <algorithm>
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

  // ---- batched serial merge ----------------------------------------------

  /// Runs the whole experiment in windows of simulated time and returns
  /// the window count. Sender emission is closed form and independent of
  /// receiver state, so one pass generates every packet of a window: the
  /// per-layer counts come from lastEmissionBefore (lastEmissionAtMost
  /// for the final window, which includes `duration` like the heap loop)
  /// and are pulled through senders_[i].next(). Sorting the window by
  /// (time, session, ord) reproduces the heap's pop order: packet times
  /// are distinct across sessions almost surely, and `ord` keeps each
  /// sender's own order. Every packet then runs through processPacket
  /// after each fault at or before its time, the heap loop's rule. The
  /// result is bit-identical to runEventDriven; nothing is frozen,
  /// snapshotted or replayed. The arena is sized once (a stream of
  /// period p emits at most w / p + 1 packets in a window of width w),
  /// so the window loop allocates nothing.
  std::uint64_t runBatched() {
    const std::size_t nSessions = sessionCount();
    const double duration = config_.duration;
    double totalRate = 0.0;
    for (std::size_t i = 0; i < nSessions; ++i) totalRate += aggregateRate(i);
    const auto windows = static_cast<std::size_t>(std::clamp(
        std::ceil(totalRate * duration / kBatchPackets), 1.0, 1.0e9));
    const double width = duration / static_cast<double>(windows);
    double bound = 64.0;
    for (std::size_t i = 0; i < nSessions; ++i) {
      bound += aggregateRate(i) * width +
               static_cast<double>(sessionConfigs_[i].layers) + 1.0;
    }
    std::vector<BatchPacket> batch(static_cast<std::size_t>(bound));

    for (std::size_t w = 0; w < windows; ++w) {
      const bool last = w + 1 == windows;
      const double hi = last ? duration
                             : duration * static_cast<double>(w + 1) /
                                   static_cast<double>(windows);
      std::size_t count = 0;
      for (std::size_t i = 0; i < nSessions; ++i) {
        LayeredSender& snd = senders_[i];
        std::uint64_t n = 0;
        for (std::size_t k = 1; k <= sessionConfigs_[i].layers; ++k) {
          const double phase = snd.layerPhase(k);
          const double period = snd.layerPeriod(k);
          const std::uint64_t upTo =
              last ? lastEmissionAtMost(phase, period, hi)
                   : lastEmissionBefore(phase, period, hi);
          n += upTo - std::min(upTo, snd.layerEmitted(k));
        }
        MCFAIR_REQUIRE(n <= batch.size() - count,
                       "batched arena bound violated");
        for (std::uint32_t q = 0; q < n; ++q) {
          const Packet p = snd.next();
          batch[count++] = BatchPacket{p.time, static_cast<std::uint32_t>(i),
                                       q, static_cast<std::uint32_t>(p.layer),
                                       static_cast<std::uint32_t>(p.syncLevel)};
        }
      }
      std::sort(batch.begin(), batch.begin() + count,
                [](const BatchPacket& a, const BatchPacket& b) noexcept {
                  if (a.time != b.time) return a.time < b.time;
                  if (a.session != b.session) return a.session < b.session;
                  return a.ord < b.ord;
                });
      for (std::size_t p = 0; p < count; ++p) {
        const BatchPacket& bp = batch[p];
        while (nextFaultTime() <= bp.time) applyNextFault();
        Packet pkt;
        pkt.layer = bp.layer;
        pkt.time = bp.time;
        pkt.syncLevel = bp.syncLevel;
        processPacket(bp.session, pkt);
      }
    }
    return windows;
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
  // One generated packet of a batched window; `ord` is its index among
  // the session's packets in the window.
  struct BatchPacket {
    double time;
    std::uint32_t session;
    std::uint32_t ord;
    std::uint32_t layer;
    std::uint32_t syncLevel;
  };

  // Packets per batched window: enough to amortize the per-window pass
  // over every sender, small enough that the arena stays a few MB.
  static constexpr double kBatchPackets = 262144.0;

  double aggregateRate(std::size_t i) const {
    return senders_[i].scheme().cumulativeRate(sessionConfigs_[i].layers);
  }

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
      sessAggRate_[i] = aggregateRate(i);
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
                                      SessionPartitioner& partitioner,
                                      std::size_t threads) {
  const SessionPartition& part = partitioner.ensure(network);
  const std::size_t nComp = part.componentCount;

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
  // One lane per executor at most: a single-component run spawns nothing.
  util::ShardFnRef ref(worker);
  util::ThreadPool pool(std::min<std::size_t>(threads, nComp));
  pool.forEachShard(nComp, ref);

  ClosedLoopResult result = core.finalize();
  result.engineComponents = nComp;
  result.partitionRebuilds = partitioner.rebuilds();
  return result;
}

// A link-set component this large that also holds at least half the
// sessions runs batched, at every thread count. Below it the heap wins:
// on the 11 small catalog presets (8-24 sessions) the per-window pass
// over every sender plus the sort cost 1.04-2.5x the heap's O(log
// sessions) pops, while at mega-merge scale (10k sessions) batching
// takes 0.76x the heap's time.
constexpr std::size_t kBatchedDispatchFloor = 256;

}  // namespace

ClosedLoopResult runClosedLoopSimulation(const net::Network& network,
                                         const ClosedLoopConfig& config) {
  // The fluid engine takes precedence: its analytic fast-forward needs
  // the heap merge's per-session lookahead and the global absorbing gate.
  if (config.fluidFastForward) return runEventDriven(network, config, true);
  SessionPartitioner partitioner;
  const SessionPartition& part = partitioner.ensure(network);
  const std::size_t largest = part.largestComponentSessions();
  if (largest >= kBatchedDispatchFloor &&
      largest * 2 >= network.sessionCount()) {
    ClosedLoopResult result = runClosedLoopSimulationBatched(network, config);
    result.engineComponents = part.componentCount;
    result.partitionRebuilds = partitioner.rebuilds();
    return result;
  }
  const std::size_t threads = resolveEngineThreads(config.engineThreads);
  if (threads > 1) {
    return runComponentParallel(network, config, partitioner, threads);
  }
  return runEventDriven(network, config, false);
}

ClosedLoopResult runClosedLoopSimulationParallel(
    const net::Network& network, const ClosedLoopConfig& config) {
  SessionPartitioner partitioner;
  return runComponentParallel(network, config, partitioner,
                              resolveEngineThreads(config.engineThreads));
}

ClosedLoopResult runClosedLoopSimulationBatched(
    const net::Network& network, const ClosedLoopConfig& config) {
  SimCore core(network, config);
  const std::uint64_t windows = core.runBatched();
  ClosedLoopResult result = core.finalize();
  result.speculationEpochs = windows;
  return result;
}

ClosedLoopResult runClosedLoopSimulationFluid(
    const net::Network& network, const ClosedLoopConfig& config) {
  return runEventDriven(network, config, true);
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
