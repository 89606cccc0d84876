#include "support.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "net/snapshot.hpp"

namespace perfbench {

Percentile tailPercentile(std::vector<double> samples, double level) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  const double n = static_cast<double>(samples.size());
  // Ten samples beyond `q` means n * (1 - q) >= 10.
  auto fits = [n](double q) { return n * (1.0 - q) >= 10.0 - 1e-9; };
  double chosen = 0.5;
  if (fits(level)) {
    chosen = level;
  } else {
    for (const double q : {0.999, 0.99, 0.9}) {
      if (q < level && fits(q)) {
        chosen = q;
        break;
      }
    }
  }
  p.level = chosen;
  p.meetsRule = fits(chosen);
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the ceil(q * n)-th smallest sample (1-based).
  const std::size_t rank = static_cast<std::size_t>(std::ceil(chosen * n));
  p.value = samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
  return p;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

std::vector<std::uint64_t> selfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs,
                                                                s.endNs);
    }
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t begin = spans[i].startNs;
    const std::uint64_t end = std::max(spans[i].endNs, begin);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = begin;  // end of the covered prefix so far
    for (const auto& [s, e] : kids) {
      const std::uint64_t lo = std::max(s, reach);
      const std::uint64_t hi = std::min(e, end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(e, end));
    }
    self[i] = (end - begin) - covered;
  }
  return self;
}

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t threadCpuNs() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<std::uint64_t>(t.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(t.tv_nsec);
}

std::size_t Tracer::open(const char* name, std::uint64_t op) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.op = op;
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.startNs = nowNs();
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  if (!enabled_) return;
  spans_[index].endNs = nowNs();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::rename(std::size_t index, const char* name) {
  if (enabled_) spans_[index].name = name;
}

void writeSpans(std::ostream& out, const std::vector<Span>& spans) {
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
        << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}\n";
  }
}

HostProbe::HostProbe() : seeded_(std::size_t{1} << 16) {
  util::Rng rng(0x5eedULL);
  for (double& k : seeded_) k = rng.uniform(0.0, 1.0);
  work_.reserve(seeded_.size());
}

double HostProbe::read() {
  work_.assign(seeded_.begin(), seeded_.end());
  const std::uint64_t start = threadCpuNs();
  std::sort(work_.begin(), work_.end());
  return static_cast<double>(threadCpuNs() - start) * 1e-9;
}

double hostBaseline(const std::vector<double>& readings) {
  if (readings.empty()) return 0.0;
  std::vector<double> sorted = readings;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.1 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::vector<char> fastHostMask(const std::vector<double>& readings,
                               double limit) {
  const std::size_t ops = readings.empty() ? 0 : readings.size() - 1;
  std::vector<char> keep(ops, 0);
  bool any = false;
  for (std::size_t i = 0; i < ops; ++i) {
    keep[i] = std::max(readings[i], readings[i + 1]) <= limit ? 1 : 0;
    any = any || keep[i] != 0;
  }
  if (!any) std::fill(keep.begin(), keep.end(), 1);
  return keep;
}

std::uint64_t digestResult(const sim::ClosedLoopResult& r) {
  using namespace net::snapshotio;
  std::string bytes;
  auto putMatrix = [&bytes](const std::vector<std::vector<double>>& m) {
    putU64(bytes, m.size());
    for (const auto& row : m) {
      putU64(bytes, row.size());
      for (const double v : row) putF64(bytes, v);
    }
  };
  auto putVector = [&bytes](const std::vector<double>& v) {
    putU64(bytes, v.size());
    for (const double x : v) putF64(bytes, x);
  };
  putMatrix(r.measuredRate);
  putVector(r.linkThroughput);
  putVector(r.linkDropRate);
  putMatrix(r.meanLevel);
  putU64(bytes, r.fairEpochs.size());
  for (const sim::FairEpoch& e : r.fairEpochs) {
    putF64(bytes, e.begin);
    putF64(bytes, e.end);
    putU64(bytes, e.sessions.size());
    for (const std::size_t s : e.sessions) putU64(bytes, s);
    putMatrix(e.fairRate);
  }
  return fnv1a(bytes.data(), bytes.size());
}

EngineCounters engineCounters(const sim::ClosedLoopResult& r) {
  EngineCounters c;
  c.fluidTime = r.fluidTime;
  c.fluidPackets = r.fluidPackets;
  c.components = r.engineComponents;
  c.specEpochs = r.speculationEpochs;
  c.specRollbacks = r.speculationRollbacks;
  return c;
}

const char* updateKindName(UpdateKind k) noexcept {
  switch (k) {
    case UpdateKind::kCapacity:
      return "capacity";
    case UpdateKind::kFault:
      return "fault";
    case UpdateKind::kJoin:
      return "join";
    case UpdateKind::kLeave:
      return "leave";
  }
  return "unknown";
}

namespace {

// Probabilities of a *new* event. Every event brings a later undo, so
// these are also the shares of updates.
constexpr double kCapacityShare = 0.70;
constexpr double kFaultShare = 0.15;
// A 1 ns budget run starts at an update with this probability.
constexpr double kBudgetRunShare = 0.02;
constexpr double kTightBudget = 1e-9;

}  // namespace

ServiceScript::ServiceScript(const net::Network& initial, std::uint64_t seed)
    : rng_(seed ^ 0x5eed5c21u) {
  base_.resize(initial.linkCount());
  for (std::size_t j = 0; j < base_.size(); ++j) {
    base_[j] = initial.capacity(graph::LinkId{static_cast<std::uint32_t>(j)});
  }
  faulted_.assign(base_.size(), 0);
  for (std::size_t i = 0; i < initial.sessionCount(); ++i) {
    liveIds_.push_back(i);
    payload_.emplace(i, initial.session(i));
  }
  nextId_ = initial.sessionCount();
}

void ServiceScript::schedule(std::uint64_t due, ScriptUpdate u) {
  auto it = std::upper_bound(
      pending_.begin(), pending_.end(), due,
      [](std::uint64_t d, const Pending& p) { return d < p.due; });
  pending_.insert(it, Pending{due, std::move(u)});
}

ScriptUpdate ServiceScript::next() {
  ScriptUpdate u;
  if (!pending_.empty() && pending_.front().due <= step_) {
    u = std::move(pending_.front().update);
    pending_.pop_front();
    if (u.kind == UpdateKind::kFault) {
      faulted_[u.delta.link.value] = 0;
    } else if (u.kind == UpdateKind::kJoin) {  // a re-join under a fresh id
      liveIds_.push_back(u.delta.sessionId);
      payload_.emplace(u.delta.sessionId, u.delta.session);
    }
  } else {
    const double pick = rng_.uniform01();
    const std::uint64_t undoAt = step_ + 4 + rng_.below(29);
    const auto link = static_cast<std::uint32_t>(rng_.below(base_.size()));
    if (pick < kCapacityShare || (pick < kCapacityShare + kFaultShare &&
                                  faulted_[link] != 0) ||
        (pick >= kCapacityShare + kFaultShare && liveIds_.size() < 2)) {
      u.kind = UpdateKind::kCapacity;
      u.delta = serve::setCapacityDelta(graph::LinkId{link},
                                        base_[link] * rng_.uniform(0.5, 2.0));
      ScriptUpdate undo;
      undo.delta = serve::setCapacityDelta(graph::LinkId{link}, base_[link]);
      schedule(undoAt, std::move(undo));
    } else if (pick < kCapacityShare + kFaultShare) {
      net::FaultEvent event;
      event.link = graph::LinkId{link};
      if (rng_.uniform01() < 0.5) {
        event.kind = net::FaultKind::kLinkDown;
      } else {
        event.kind = net::FaultKind::kDegrade;
        event.factor = rng_.uniform(0.25, 0.75);
      }
      u.kind = UpdateKind::kFault;
      u.delta = serve::faultDelta(event);
      faulted_[link] = 1;
      net::FaultEvent repair;
      repair.link = event.link;
      repair.kind = net::FaultKind::kLinkUp;
      ScriptUpdate undo;
      undo.kind = UpdateKind::kFault;
      undo.delta = serve::faultDelta(repair);
      schedule(undoAt, std::move(undo));
    } else {
      const std::size_t slot = rng_.below(liveIds_.size());
      const std::uint64_t id = liveIds_[slot];
      liveIds_[slot] = liveIds_.back();
      liveIds_.pop_back();
      auto node = payload_.extract(id);
      u.kind = UpdateKind::kLeave;
      u.delta = serve::leaveDelta(id);
      ScriptUpdate rejoin;
      rejoin.kind = UpdateKind::kJoin;
      rejoin.delta = serve::joinDelta(nextId_++, std::move(node.mapped()));
      schedule(undoAt, std::move(rejoin));
    }
  }
  if (budgetRun_ == 0 && rng_.uniform01() < kBudgetRunShare) {
    budgetRun_ = 3 + rng_.below(4);
  }
  if (budgetRun_ > 0) {
    u.budgetSeconds = kTightBudget;
    --budgetRun_;
  }
  ++step_;
  return u;
}

ScriptWhatIf ServiceScript::nextWhatIf() {
  ScriptWhatIf w;
  const auto link = static_cast<std::uint32_t>(rng_.below(base_.size()));
  w.link = graph::LinkId{link};
  w.capacity = base_[link] * rng_.uniform(0.5, 2.0);
  return w;
}

}  // namespace perfbench
