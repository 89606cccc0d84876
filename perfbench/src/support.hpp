// Helpers of the end-to-end benchmark (perfbench/src/main.cpp): tail
// percentiles under the ten-samples-beyond rule, in-memory spans with
// self times, output digests of closed-loop results, the one adapter
// that reads the engine's diagnostic fields, and the seeded delta script
// that drives the fairshare-service workloads.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "serve/journal.hpp"
#include "sim/closed_loop.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace mcfair;

// --- Percentiles ----------------------------------------------------------

/// One reported percentile: the level actually used, its nearest-rank
/// value and the sample count it rests on.
struct Percentile {
  double value = 0.0;
  double level = 0.5;
  std::size_t samples = 0;
  /// True when at least ten samples lie beyond `level` (for the median:
  /// ten on each side). False only when even the median lacks them.
  bool meetsRule = false;
};

/// Nearest-rank percentile at `level` when at least ten samples lie
/// beyond it; otherwise the highest of 0.999 / 0.99 / 0.9 / 0.5 below
/// `level` that has ten samples beyond it (the median when none does).
/// Zero samples give value 0 with samples == 0.
Percentile tailPercentile(std::vector<double> samples, double level);

/// Middle value (mean of the two middle values for an even count); 0
/// when empty.
double median(std::vector<double> samples);

// --- Spans ----------------------------------------------------------------

/// One timed call. `parent` indexes the enclosing span (-1 = root);
/// `op` is the job or update id shared by a root and its children.
struct Span {
  const char* name = "";
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
};

/// Span duration minus the part of its interval covered by its direct
/// children (overlapping children are counted once). One entry per span.
std::vector<std::uint64_t> selfTimesNs(const std::vector<Span>& spans);

/// Writes every span as one JSON object per line.
void writeSpans(std::ostream& out, const std::vector<Span>& spans);

/// In-memory span recorder for one thread. Disabled tracers record
/// nothing and cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open span; returns its index
  /// (meaningless when disabled).
  std::size_t open(const char* name, std::uint64_t op);
  void close(std::size_t index);
  /// Renames a span once its outcome is known (exact vs degraded).
  void rename(std::size_t index, const char* name);

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), index_(tracer.open(name, op)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  void rename(const char* name) { tracer_.rename(index_, name); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::size_t index_;
};

std::uint64_t nowNs();
/// CPU time consumed by the calling thread so far, in ns. Time the
/// thread spends preempted by other processes is not counted.
std::uint64_t threadCpuNs();

// --- Host speed -------------------------------------------------------------

/// A fixed reference kernel of the benchmark's own, timed between measured
/// operations to read how fast the host runs at that moment. On a shared
/// virtual machine other tenants slow cache- and branch-heavy code by up
/// to 1.75x for seconds to minutes at a time; this kernel (a sort of
/// 64 Ki seeded doubles, 512 KiB) slows with them, while the program's
/// own speed cannot move it.
class HostProbe {
 public:
  HostProbe();
  /// Sorts a fresh copy of the seeded keys; returns the calling thread's
  /// CPU seconds spent on the sort.
  double read();

 private:
  std::vector<double> seeded_;
  std::vector<double> work_;
};

/// The host's normal probe reading: the lowest decile of `readings`
/// (nearest rank; 0 when empty).
double hostBaseline(const std::vector<double>& readings);

/// For operations timed between consecutive probe readings (operation i
/// between readings[i] and readings[i + 1]): keep[i] is 1 when both
/// readings are at most `limit`, i.e. the host ran at its normal speed
/// throughout. Which operations are kept depends on the readings only,
/// never on the operations' own times. When no operation qualifies,
/// every one is kept.
std::vector<char> fastHostMask(const std::vector<double>& readings,
                               double limit);

// --- Closed-loop outputs --------------------------------------------------

/// FNV-1a over the raw IEEE-754 bits (and the shapes) of measuredRate,
/// linkThroughput, linkDropRate, meanLevel and fairEpochs.
std::uint64_t digestResult(const sim::ClosedLoopResult& r);

/// The engine diagnostics the benchmark reports, read in one place.
struct EngineCounters {
  double fluidTime = 0.0;
  std::uint64_t fluidPackets = 0;
  std::size_t components = 0;
  std::uint64_t specEpochs = 0;
  std::uint64_t specRollbacks = 0;
};
EngineCounters engineCounters(const sim::ClosedLoopResult& r);

// --- Service script -------------------------------------------------------

/// Delta families of the script (a fault and its undo are one family,
/// as are a leave and a re-join).
enum class UpdateKind : std::uint8_t { kCapacity, kFault, kJoin, kLeave };
const char* updateKindName(UpdateKind k) noexcept;

/// One scripted update: a delta, then a query at `budgetSeconds`
/// (0 = unbudgeted).
struct ScriptUpdate {
  UpdateKind kind = UpdateKind::kCapacity;
  serve::Delta delta;
  double budgetSeconds = 0.0;
};

/// A what-if capacity question against the live state.
struct ScriptWhatIf {
  graph::LinkId link;
  double capacity = 0.0;
};

/// The seeded update stream of the service workloads. Of the scripted
/// families about 70 % are capacity deltas restored to the base capacity
/// 4-32 updates later, 15 % link faults (down or degrade) undone 4-32
/// updates later, and 15 % session leaves re-joined 4-32 updates later
/// under a fresh id. Every change is undone so that the network stays
/// near its initial state and update cost does not drift. Queries are
/// unbudgeted except for seeded runs of 3-6 queries at a 1 ns budget,
/// long enough for the service to latch into degraded serving and,
/// once unbudgeted queries resume, to promote back. The stream depends
/// only on the seed and the initial network.
class ServiceScript {
 public:
  ServiceScript(const net::Network& initial, std::uint64_t seed);

  ScriptUpdate next();
  ScriptWhatIf nextWhatIf();

 private:
  struct Pending {
    std::uint64_t due = 0;
    ScriptUpdate update;
  };

  util::Rng rng_;
  std::vector<double> base_;
  std::vector<char> faulted_;
  std::vector<std::uint64_t> liveIds_;
  std::map<std::uint64_t, net::Session> payload_;
  std::deque<Pending> pending_;  // ordered by due
  std::uint64_t step_ = 0;
  std::uint64_t nextId_ = 0;
  std::size_t budgetRun_ = 0;

  void schedule(std::uint64_t due, ScriptUpdate u);
};

}  // namespace perfbench
