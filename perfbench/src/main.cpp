// End-to-end benchmark of the two ways this library is used.
//
//   catalog-layered   the paper's Section 4 experiment: the 11 small
//                     layered presets, each run at 1 engine thread and at
//                     tN = min(nproc, 4)
//   catalog-large     mega-merge, steady-fluid and sharded-bottlenecks at
//                     10,000 sessions, at 1 thread and at tN
//   service-sharded   a FairshareService over 64 disjoint bottlenecks
//                     (4096 sessions x 2 receivers), closed loop, one caller
//   service-mesh      the same script on one routed mesh component, with
//                     1 in 16 sessions on a RandomJoinExpected link rate
//
// A simulation job is findScenario + buildScenario (+ a RoutePlan on mesh
// presets) + runClosedLoopSimulation + a MaxMinSolver fair reference +
// fairnessGap. A service update is one applyDelta followed by one query.
//
// Usage: mcfair_perfbench --workload <name> [--seed N] [--seconds S]
//                         [--trace 0|1] [--work-dir DIR]
//        mcfair_perfbench --workload <catalog-*> --seed N --make-goldens
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). perfbench/README.md defines every metric.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "fairness/maxmin.hpp"
#include "graph/route_plan.hpp"
#include "net/link_rate.hpp"
#include "serve/service.hpp"
#include "sim/scenario.hpp"
#include "support.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultSeed = 1;
// Service exact/degraded counts are read at this update so that they
// repeat exactly whatever the run length.
constexpr std::uint64_t kCountedUpdates = 1000;
constexpr double kMaxServiceSeconds = 120.0;
// A catalog phase runs at least this many passes, so that every per-job
// and per-pass median rests on more than one sample. Further passes run
// while the next one is expected to end within the phase's budget.
constexpr std::size_t kMinPasses = 2;
// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupReps = 15;
// Timings are taken between host probe readings (see HostProbe). An
// operation counts only when the probe read at most kHostSlack times its
// run's lowest decile just before and just after it: at normal host speed
// the readings stay within about 10 % of each other, while other tenants
// slow the host they read 20-40 % higher, for seconds to minutes. A
// counted operation's time is then rescaled from the host speed of the
// moment (the mean of the two readings) to the reference speed at which
// the probe takes kReferenceProbeSeconds, its time at normal speed on the
// 4-core Xeon virtual machine the benchmark was written on. The rescaling
// corrects runs that a busy period covers entirely, where no normal-speed
// operation is left to count. The program slows more than the probe: on
// that machine log(operation time) rose 1.5-2.3 times as much as
// log(probe time) from normal to busy periods, on every workload. The
// time is therefore divided by the probe's slowdown to the power
// kProbeExponent.
constexpr double kHostSlack = 1.15;
constexpr double kReferenceProbeSeconds = 4.4e-3;
constexpr double kProbeExponent = 2.0;
// The service loop reads the host probe once per this many seconds of
// updates.
constexpr double kServiceBlockSeconds = 0.1;
// Passes (scenario seeds) per catalog workload that --make-goldens
// covers: more than a catalog-layered run reaches; the reference driver
// is too slow on the 10k-session presets for more.
constexpr std::size_t kGoldenPasses = 8;

// ---------------------------------------------------------------------------
// Metrics output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: metric " << name << " is not finite\n";
      nonFinite_ = true;
      value = 0.0;
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  bool nonFinite() const noexcept { return nonFinite_; }

  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) {
    for (const Metric& m : metrics_) {
      std::printf("metric %-52s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  bool nonFinite_ = false;
};

/// Operation accounting shared by every workload.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& what) {
    ++failed;
    std::cerr << "perfbench: FAILED " << what << "\n";
  }
};

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// The highest probe reading of normal host speed in a run whose probe
/// readings are `a` and `b`.
double hostLimit(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> all = a;
  all.insert(all.end(), b.begin(), b.end());
  return kHostSlack * hostBaseline(all);
}

/// `seconds` of an operation timed between probe readings `before` and
/// `after`, rescaled to the reference host speed.
double atReferenceSpeed(double seconds, double before, double after) {
  return seconds * std::pow(kReferenceProbeSeconds / (0.5 * (before + after)),
                           kProbeExponent);
}

/// The samples timed at normal host speed, at the reference speed; sample
/// i was timed between readings[i] and readings[i + 1].
std::vector<double> referenceSamples(const std::vector<double>& samples,
                                     const std::vector<double>& readings,
                                     double limit) {
  const std::vector<char> keep = fastHostMask(readings, limit);
  std::vector<double> out;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (keep[i] != 0) {
      out.push_back(atReferenceSpeed(samples[i], readings[i], readings[i + 1]));
    }
  }
  return out;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Environment

const char* const kPinnedEnv[] = {"MCFAIR_THREADS", "MCFAIR_SIM_THREADS",
                                  "MCFAIR_SWEEP_THREADS",
                                  "MCFAIR_SAMPLE_FRAC", "MCFAIR_VALIDATE"};

std::size_t onlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned maxLeaf = __get_cpuid_max(0x80000000u, nullptr);
  if (maxLeaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

/// Non-empty when this binary must not report timings.
std::string unfitBuild() {
#if !defined(__OPTIMIZE__)
  return "built without optimisation";
#endif
#if !defined(NDEBUG)
  return "built with assertions (no NDEBUG)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  return {};
}

// ---------------------------------------------------------------------------
// Catalog workloads

struct Job {
  std::string preset;
  std::size_t sessions = 0;  // 0 = the preset's own count
  std::string label;         // preset name used in metric names
};

const std::vector<std::string> kLayeredPresets = {
    "steady-bottleneck", "heterogeneous-mix",   "flash-crowd",
    "churn",             "lossy-backbone",      "bursty-loss",
    "scale-free-backbone", "meshed-backbone",   "link-flap",
    "backbone-partition", "waxman-regional"};

std::vector<Job> catalogJobs(const std::string& workload) {
  std::vector<Job> jobs;
  if (workload == "catalog-layered") {
    for (const std::string& p : kLayeredPresets) jobs.push_back({p, 0, p});
  } else {
    jobs.push_back({"mega-merge", 0, "mega-merge"});
    jobs.push_back({"steady-fluid", 0, "steady-fluid"});
    jobs.push_back({"sharded-bottlenecks", 10000, "sharded-bottlenecks"});
  }
  return jobs;
}

/// Every preset the per-layer engine metrics name, in catalog order.
std::vector<std::string> allCatalogLabels() {
  std::vector<std::string> labels = kLayeredPresets;
  for (const Job& j : catalogJobs("catalog-large")) labels.push_back(j.label);
  return labels;
}

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced run

struct LayerMetric {
  std::string name;
  std::string unit;
};

/// Every per-layer metric, in report order. A traced run of any workload
/// reports all of them; layers the workload does not call read 0.
std::vector<LayerMetric> perLayerMetrics() {
  std::vector<LayerMetric> v = {{"sim.engine.run_ms.t1", "ms"},
                                {"sim.engine.run_ms.tN", "ms"}};
  for (const std::string& p : allCatalogLabels()) {
    v.push_back({"sim.engine.run_ms." + p + ".t1", "ms"});
    v.push_back({"sim.engine.run_ms." + p + ".tN", "ms"});
    v.push_back({"sim.engine.lanes." + p, "count"});
    v.push_back({"sim.engine.fluid_share." + p, "ratio"});
    v.push_back({"sim.engine.fluid_packets." + p, "count"});
    v.push_back({"sim.engine.spec_commit_ratio." + p, "ratio"});
    v.push_back({"sim.engine.spec_epochs." + p, "count"});
  }
  for (const char* layer : {"sim.scenario.build_ms", "graph.route_ms",
                            "fairness.solve_ms", "sim.gap_ms"}) {
    v.push_back({layer, "ms"});
  }
  for (const char* q : {"exact", "degraded"}) {
    for (const char* p : {"p50", "p99"}) {
      v.push_back({std::string("serve.query_us.") + q + "." + p, "us"});
    }
  }
  for (const char* k : {"capacity", "fault", "join", "leave"}) {
    for (const char* p : {"p50", "p99"}) {
      v.push_back({std::string("serve.apply_us.") + k + "." + p, "us"});
    }
  }
  v.push_back({"serve.whatif_us.p50", "us"});
  v.push_back({"serve.whatif_us.p99", "us"});
  v.push_back({"serve.journal.snapshot_ms", "ms"});
  v.push_back({"serve.answers.exact", "count"});
  v.push_back({"serve.answers.degraded", "count"});
  v.push_back({"serve.demotions", "count"});
  v.push_back({"serve.promotions", "count"});
  v.push_back({"serve.journal.recover_ms", "ms"});
  v.push_back({"serve.journal.bytes", "B"});
  v.push_back({"serve.update_us.p50", "us"});
  v.push_back({"serve.update_us.p99", "us"});
  v.push_back({"trace.overhead_pct", "%"});
  return v;
}

/// Adds every per-layer metric to `report`, taking values from `values`
/// (absent = 0). A value under a name outside the list is a bug.
void addPerLayer(Report& report, const std::map<std::string, double>& values) {
  const std::vector<LayerMetric> all = perLayerMetrics();
  for (const auto& [name, value] : values) {
    if (std::none_of(all.begin(), all.end(),
                     [&](const LayerMetric& m) { return m.name == name; })) {
      throw std::logic_error("per-layer metric outside the list: " + name);
    }
  }
  for (const LayerMetric& m : all) {
    const auto it = values.find(m.name);
    report.add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

/// Self times (ms) of a phase's spans, summed per (span name, op).
std::map<std::string, std::map<std::uint64_t, double>> selfMsByNameAndOp(
    const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = selfTimesNs(spans);
  std::map<std::string, std::map<std::uint64_t, double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name][spans[i].op] += static_cast<double>(self[i]) * 1e-6;
  }
  return out;
}

void writeTrace(const fs::path& dir, const std::string& workload,
                std::uint64_t seed, const std::vector<Span>& spans) {
  const fs::path file =
      dir / (workload + "-seed" + std::to_string(seed) + ".spans.jsonl");
  std::ofstream out(file);
  writeSpans(out, spans);
  std::printf("trace: %zu spans written to %s\n", spans.size(),
              file.string().c_str());
}

sim::ScenarioSpec jobSpec(const Job& job, std::uint64_t seed, int threads) {
  const sim::ScenarioSpec* preset = sim::findScenario(job.preset);
  if (preset == nullptr) {
    throw std::runtime_error("unknown catalog preset " + job.preset);
  }
  sim::ScenarioSpec spec = *preset;
  if (job.sessions != 0) spec.sessions = job.sessions;
  spec.seed = seed;
  spec.engineThreads = threads;
  return spec;
}

struct JobOutcome {
  double seconds = 0.0;     // wall time of the library calls
  double cpuSeconds = 0.0;  // the driver thread's CPU time in them
  std::uint64_t digest = 0;
  EngineCounters counters;
  double duration = 0.0;  // simulated horizon, for the fluid share
  double gap = 0.0;
  std::size_t routedPaths = 0;
  std::size_t expectedPaths = 0;
};

/// One simulation job: the calls a Section 4 user makes. Only those
/// calls are timed; digesting the output is not.
JobOutcome runJob(const Job& job, int threads, std::uint64_t seed,
                  Tracer& tracer, std::uint64_t op) {
  JobOutcome out;
  std::optional<sim::Scenario> scenario;
  sim::ClosedLoopResult result;
  fairness::MaxMinSolver solver;
  const std::uint64_t cpuStart = threadCpuNs();
  const std::uint64_t start = nowNs();
  {
    ScopedSpan root(tracer, "job", op);
    {
      ScopedSpan s(tracer, "sim.scenario", op);
      scenario.emplace(sim::buildScenario(jobSpec(job, seed, threads)));
    }
    if (scenario->backbone.nodeCount() > 0) {
      // Mesh presets: hop-count multicast routes from every sender node
      // to its receivers' nodes over the preset's backbone graph.
      ScopedSpan s(tracer, "graph", op);
      graph::RoutePlan plan(scenario->backbone);
      std::vector<graph::LinkId> path;
      const std::size_t perSession =
          scenario->receiverNode.size() / scenario->senderNode.size();
      for (std::size_t i = 0; i < scenario->senderNode.size(); ++i) {
        for (std::size_t k = 0; k < perSession; ++k) {
          const graph::NodeId dst = scenario->receiverNode[i * perSession + k];
          ++out.expectedPaths;
          if (!plan.reachable(scenario->senderNode[i], dst)) continue;
          path.clear();
          plan.appendPath(scenario->senderNode[i], dst, path);
          ++out.routedPaths;
        }
      }
    }
    {
      ScopedSpan s(tracer, "sim.engine", op);
      result =
          sim::runClosedLoopSimulation(scenario->network, scenario->config);
    }
    const fairness::Allocation* fair = nullptr;
    {
      ScopedSpan s(tracer, "fairness", op);
      solver.bind(scenario->network);
      fair = &solver.solveAllocation();
    }
    {
      ScopedSpan s(tracer, "sim.gap", op);
      out.gap = sim::fairnessGap(scenario->network, result, *fair);
    }
  }
  out.seconds = seconds(nowNs() - start);
  out.cpuSeconds = seconds(threadCpuNs() - cpuStart);
  out.digest = digestResult(result);
  out.counters = engineCounters(result);
  out.duration = scenario->config.duration;
  return out;
}

using Goldens = std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>;

/// Golden digests: "<label> <seed> <hex>" lines produced by
/// runClosedLoopSimulationReference (see --make-goldens).
Goldens loadGoldens() {
  Goldens goldens;
  std::ifstream in(PERFBENCH_GOLDENS);
  if (!in) throw std::runtime_error("cannot read " PERFBENCH_GOLDENS);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string label, digest;
    std::uint64_t seed = 0;
    if (!(fields >> label >> seed >> digest)) {
      throw std::runtime_error("malformed golden line: " + line);
    }
    goldens[{label, seed}] = std::stoull(digest, nullptr, 16);
  }
  return goldens;
}

/// Scenario seed of catalog pass `pass`: the workload seed itself for the
/// first pass, then a splitmix64 stream, so that a run averages over
/// several scenario instances of every preset.
std::uint64_t passSeed(std::uint64_t seed, std::size_t pass) {
  if (pass == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * pass;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int makeGoldens(const std::string& workload, std::uint64_t seed) {
  for (std::size_t p = 0; p < kGoldenPasses; ++p) {
    for (const Job& job : catalogJobs(workload)) {
      const sim::Scenario s =
          sim::buildScenario(jobSpec(job, passSeed(seed, p), 1));
      const sim::ClosedLoopResult r =
          sim::runClosedLoopSimulationReference(s.network, s.config);
      std::printf("%s %llu %s\n", job.label.c_str(),
                  static_cast<unsigned long long>(passSeed(seed, p)),
                  hex(digestResult(r)).c_str());
      std::fflush(stdout);
    }
  }
  return 0;
}

/// Per-(job, thread count) samples of one catalog phase.
struct CatalogPhase {
  std::size_t passes = 0;
  std::uint64_t jobs = 0;
  std::uint64_t goldenChecks = 0;
  // [job][0 = t1, 1 = tN] -> job wall and driver-thread CPU times (s),
  // one per pass.
  std::vector<std::array<std::vector<double>, 2>> jobSeconds;
  std::vector<std::array<std::vector<double>, 2>> jobCpuSeconds;
  // [job] -> engine counters of the tN run and the simulated horizon,
  // one per pass.
  std::vector<std::vector<EngineCounters>> counters;
  std::vector<std::vector<double>> durations;
  std::vector<Span> spans;
  // Job op id -> {job, thread slot, pass}.
  std::map<std::uint64_t, std::array<std::size_t, 3>> opInfo;
  // Host probe readings, one before every job and one after the last,
  // and [job][slot] -> the index of the reading taken just before each
  // timed sample.
  std::vector<double> hostReadings;
  std::vector<std::array<std::vector<std::size_t>, 2>> jobReading;
};

CatalogPhase runCatalogPhase(const std::vector<Job>& jobs, int threadsN,
                             std::uint64_t seed, double budgetSeconds,
                             bool traced, Tally& tally,
                             const Goldens& goldens, HostProbe& probe) {
  CatalogPhase phase;
  phase.jobSeconds.resize(jobs.size());
  phase.jobReading.resize(jobs.size());
  phase.jobCpuSeconds.resize(jobs.size());
  phase.counters.resize(jobs.size());
  phase.durations.resize(jobs.size());
  Tracer tracer(traced);
  const int threadCounts[2] = {1, threadsN};
  const std::uint64_t start = nowNs();
  double elapsed = 0.0;
  std::uint64_t op = 0;
  do {
    const std::uint64_t scenarioSeed = passSeed(seed, phase.passes);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      std::optional<std::uint64_t> t1Digest;
      for (std::size_t slot = 0; slot < 2; ++slot) {
        ++tally.attempted;
        ++phase.jobs;
        const std::string what = jobs[j].label + " t" +
                                 std::to_string(threadCounts[slot]) +
                                 " scenario seed " +
                                 std::to_string(scenarioSeed);
        phase.opInfo[op] = {j, slot, phase.passes};
        phase.hostReadings.push_back(probe.read());
        try {
          const JobOutcome o =
              runJob(jobs[j], threadCounts[slot], scenarioSeed, tracer, op);
          phase.jobSeconds[j][slot].push_back(o.seconds);
          phase.jobCpuSeconds[j][slot].push_back(o.cpuSeconds);
          phase.jobReading[j][slot].push_back(phase.hostReadings.size() - 1);
          if (slot == 1) {
            phase.counters[j].push_back(o.counters);
            phase.durations[j].push_back(o.duration);
          }
          const auto golden = goldens.find({jobs[j].label, scenarioSeed});
          if (slot == 0) t1Digest = o.digest;
          if (golden != goldens.end()) ++phase.goldenChecks;
          if (t1Digest && o.digest != *t1Digest) {
            tally.fail(what + ": digest " + hex(o.digest) +
                       " differs from the 1-thread run's " + hex(*t1Digest));
          } else if (golden != goldens.end() && golden->second != o.digest) {
            tally.fail(what + ": digest " + hex(o.digest) +
                       " differs from the reference golden " +
                       hex(golden->second));
          } else if (!std::isfinite(o.gap) || o.gap < 0.0) {
            tally.fail(what + ": fairness gap is not a finite number");
          } else if (o.routedPaths != o.expectedPaths) {
            tally.fail(what + ": unroutable receiver on the backbone");
          }
        } catch (const std::exception& e) {
          tally.fail(what + ": " + e.what());
        }
        ++op;
      }
    }
    ++phase.passes;
    elapsed = seconds(nowNs() - start);
  } while (phase.passes < kMinPasses ||
           elapsed * static_cast<double>(phase.passes + 1) /
                   static_cast<double>(phase.passes) <=
               budgetSeconds);
  phase.hostReadings.push_back(probe.read());
  phase.spans = tracer.spans();
  std::printf("passes: %zu, jobs: %llu, golden digests checked: %llu\n",
              phase.passes, static_cast<unsigned long long>(phase.jobs),
              static_cast<unsigned long long>(phase.goldenChecks));
  return phase;
}

/// The samples of `times` ([job][slot], as CatalogPhase::jobSeconds) that
/// were timed at normal host speed, at the reference speed. A job and
/// slot none of whose samples was timed at normal speed keeps them all.
std::vector<std::array<std::vector<double>, 2>> referenceJobSamples(
    const CatalogPhase& p,
    const std::vector<std::array<std::vector<double>, 2>>& times,
    double limit) {
  const std::vector<char> keep = fastHostMask(p.hostReadings, limit);
  std::vector<std::array<std::vector<double>, 2>> out(times.size());
  for (std::size_t j = 0; j < times.size(); ++j) {
    for (std::size_t slot = 0; slot < 2; ++slot) {
      std::vector<double> all;
      for (std::size_t k = 0; k < times[j][slot].size(); ++k) {
        const std::size_t r = p.jobReading[j][slot][k];
        all.push_back(atReferenceSpeed(times[j][slot][k], p.hostReadings[r],
                                       p.hostReadings[r + 1]));
        if (keep[r] != 0) out[j][slot].push_back(all.back());
      }
      if (out[j][slot].empty()) out[j][slot] = std::move(all);
    }
  }
  return out;
}

/// Jobs per second of a pass assembled from per-job median times.
double medianThroughput(
    const std::vector<std::array<std::vector<double>, 2>>& jobSeconds,
    std::size_t slot) {
  double total = 0.0;
  for (const auto& perJob : jobSeconds) total += median(perJob[slot]);
  return total > 0.0 ? static_cast<double>(jobSeconds.size()) / total : 0.0;
}

double meanJobSeconds(const CatalogPhase& p) {
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& perJob : p.jobSeconds) {
    for (const auto& v : perJob) {
      for (const double x : v) total += x;
      n += v.size();
    }
  }
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

int runCatalog(const std::string& workload, std::uint64_t seed,
               double budgetSeconds, bool traced,
               int threadsN, const fs::path& traceDir) {
  const std::vector<Job> jobs = catalogJobs(workload);
  const Goldens goldens = loadGoldens();
  Tally tally;

  // Set-up: everything before the first timed job — expanding every job's
  // first-pass scenario (catalog statics, allocator warm-up). Done
  // kSetupReps times; the median of those timed at normal host speed, at
  // the reference speed, is reported.
  HostProbe probe;
  std::vector<double> setups;
  std::vector<double> setupReadings;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setupReadings.push_back(probe.read());
    const std::uint64_t t0 = nowNs();
    for (const Job& j : jobs) {
      const sim::Scenario s = sim::buildScenario(
          jobSpec(j, seed, threadsN));
      if (s.network.sessionCount() == 0) {
        tally.fail(j.label + ": empty scenario");
      }
    }
    setups.push_back(seconds(nowNs() - t0));
  }
  setupReadings.push_back(probe.read());

  const CatalogPhase plain =
      runCatalogPhase(jobs, threadsN, seed, budgetSeconds, false,
                      tally, goldens, probe);

  Report report;
  if (!traced) {
    const double limit = hostLimit(setupReadings, plain.hostReadings);
    const auto wall = referenceJobSamples(plain, plain.jobSeconds, limit);
    const auto cpu = referenceJobSamples(plain, plain.jobCpuSeconds, limit);
    const std::vector<char> keep = fastHostMask(plain.hostReadings, limit);
    std::printf("host: %zu of %zu jobs timed at normal host speed (probe "
                "median %.3f ms)\n",
                static_cast<std::size_t>(
                    std::count(keep.begin(), keep.end(), char{1})),
                keep.size(), median(plain.hostReadings) * 1e3);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      std::printf("job %-22s median ms at reference speed: t1 %9.3f "
                  "(cpu %9.3f)  tN %9.3f\n",
                  jobs[j].label.c_str(), median(wall[j][0]) * 1e3,
                  median(cpu[j][0]) * 1e3, median(wall[j][1]) * 1e3);
    }
    report.add("setup_s",
               median(referenceSamples(setups, setupReadings, limit)), "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("ops_per_s", medianThroughput(wall, 1), "1/s");
    report.add("ops_per_s_1t", medianThroughput(cpu, 0), "1/s");
    report.print(tally.failed == 0 && !report.nonFinite(), tally.attempted,
                 tally.failed);
    return 0;
  }

  const CatalogPhase tracedPhase =
      runCatalogPhase(jobs, threadsN, seed, budgetSeconds, true,
                      tally, goldens, probe);
  writeTrace(traceDir, workload, seed, tracedPhase.spans);
  auto layerMs = selfMsByNameAndOp(tracedPhase.spans);
  // Median over passes of a layer's per-pass total (slot: 0 = t1 jobs,
  // 1 = tN jobs, -1 = both).
  auto passTotals = [&](const std::string& layer, int slot) {
    std::vector<double> perPass(tracedPhase.passes, 0.0);
    for (const auto& [op, ms] : layerMs[layer]) {
      const auto& info = tracedPhase.opInfo.at(op);
      if (slot < 0 || info[1] == static_cast<std::size_t>(slot)) {
        perPass[info[2]] += ms;
      }
    }
    return median(perPass);
  };
  auto engineMedian = [&](std::size_t job, std::size_t slot) {
    std::vector<double> v;
    for (const auto& [op, ms] : layerMs["sim.engine"]) {
      const auto& info = tracedPhase.opInfo.at(op);
      if (info[0] == job && info[1] == slot) v.push_back(ms);
    }
    return median(v);
  };

  std::map<std::string, double> values;
  values["sim.engine.run_ms.t1"] = passTotals("sim.engine", 0);
  values["sim.engine.run_ms.tN"] = passTotals("sim.engine", 1);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::string& p = jobs[j].label;
    // Engine counters of the tN runs, as medians over the passes.
    std::vector<double> lanes, share, packets, ratio, epochs;
    for (std::size_t k = 0; k < tracedPhase.counters[j].size(); ++k) {
      const EngineCounters& c = tracedPhase.counters[j][k];
      lanes.push_back(static_cast<double>(c.components));
      share.push_back(c.fluidTime / tracedPhase.durations[j][k]);
      packets.push_back(static_cast<double>(c.fluidPackets));
      const double committed =
          static_cast<double>(c.specEpochs - c.specRollbacks);
      ratio.push_back(c.specEpochs > 0
                          ? committed / static_cast<double>(c.specEpochs)
                          : 0.0);
      epochs.push_back(static_cast<double>(c.specEpochs));
    }
    values["sim.engine.run_ms." + p + ".t1"] = engineMedian(j, 0);
    values["sim.engine.run_ms." + p + ".tN"] = engineMedian(j, 1);
    values["sim.engine.lanes." + p] = median(lanes);
    values["sim.engine.fluid_share." + p] = median(share);
    values["sim.engine.fluid_packets." + p] = median(packets);
    values["sim.engine.spec_commit_ratio." + p] = median(ratio);
    values["sim.engine.spec_epochs." + p] = median(epochs);
  }
  values["sim.scenario.build_ms"] = passTotals("sim.scenario", -1);
  values["graph.route_ms"] = passTotals("graph", -1);
  values["fairness.solve_ms"] = passTotals("fairness", -1);
  values["sim.gap_ms"] = passTotals("sim.gap", -1);
  values["trace.overhead_pct"] =
      (meanJobSeconds(tracedPhase) / meanJobSeconds(plain) - 1.0) * 100.0;
  addPerLayer(report, values);
  report.print(tally.failed == 0 && !report.nonFinite(), tally.attempted,
               tally.failed);
  return 0;
}

// ---------------------------------------------------------------------------
// Service workloads

// service-mesh population: at 200 sessions update cost varied by up to
// 1.6x between script seeds; at 100 it stays within about 10 %.
constexpr std::size_t kMeshSessions = 100;
constexpr std::size_t kShardedSessions = 4096;

/// The service's initial network, the same for every workload seed: the
/// preset's own seed draws it, and the workload seed drives the script.
/// service-sharded: the sharded-bottlenecks shape (64 disjoint
/// bottlenecks) at 4096 sessions x 2 receivers with private tails of
/// 1-16 — 64 components, 8256 links. service-mesh: the meshed-backbone
/// shape at the same receiver and tail settings (one component), with
/// exactly ceil(sessions / 16) sessions, drawn from the preset seed,
/// switched to RandomJoinExpected(sigma) capped at maxRate = sigma.
net::Network serviceNetwork(const std::string& workload) {
  const bool sharded = workload == "service-sharded";
  sim::ScenarioSpec spec =
      *sim::findScenario(sharded ? "sharded-bottlenecks" : "meshed-backbone");
  spec.sessions = sharded ? kShardedSessions : kMeshSessions;
  spec.receiversPerSession = 2;
  spec.tailCapacityMin = 1.0;
  spec.tailCapacityMax = 16.0;
  sim::Scenario s = sim::buildScenario(spec);
  if (sharded) return std::move(s.network);
  util::Rng rng(spec.seed ^ 0x6a09e667f3bcc909ULL);
  net::Network n;
  for (std::size_t j = 0; j < s.network.linkCount(); ++j) {
    n.addLink(s.network.capacity(graph::LinkId{static_cast<std::uint32_t>(j)}));
  }
  // Exactly ceil(sessions / 16) sessions, drawn without replacement.
  std::vector<char> randomJoin(s.network.sessionCount(), 0);
  for (std::size_t left = (randomJoin.size() + 15) / 16; left > 0;) {
    char& pick = randomJoin[rng.below(randomJoin.size())];
    if (pick == 0) {
      pick = 1;
      --left;
    }
  }
  for (std::size_t i = 0; i < s.network.sessionCount(); ++i) {
    net::Session x = s.network.session(i);
    if (randomJoin[i] != 0) {
      const double sigma = rng.uniform(1.0, 4.0);
      x.linkRateFn = std::make_shared<net::RandomJoinExpected>(sigma);
      x.maxRate = sigma;
    }
    n.addSession(std::move(x));
  }
  return n;
}

const char* const kApplySpan[] = {"serve.apply.capacity", "serve.apply.fault",
                                  "serve.apply.join", "serve.apply.leave"};

struct ServicePhase {
  std::vector<double> setupSeconds;
  std::vector<double> setupReadings;  // host probe around each set-up
  // The update loop in blocks of about kServiceBlockSeconds, with a host
  // probe reading before the first block and after every block.
  std::vector<double> hostReadings;
  std::vector<std::uint64_t> blockUpdates;
  std::vector<double> blockWallSeconds;
  std::vector<double> blockCpuSeconds;
  std::uint64_t updates = 0;
  double wallSeconds = 0.0;
  std::vector<double> updateSeconds;
  std::optional<serve::ServiceMetrics> counted;  // metrics() at update 1000
  double journalBytes = 0.0;
  std::vector<Span> spans;
};

/// Flat receiver rates of an allocation on `net`.
std::vector<double> flatRates(const net::Network& net,
                              const fairness::Allocation& a) {
  std::vector<double> out;
  out.reserve(net.receiverCount());
  for (const net::ReceiverRef ref : net.receiverRefs()) {
    out.push_back(a.rate(ref));
  }
  return out;
}

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!sameBits(a[i], b[i])) return false;
  }
  return true;
}

ServicePhase runServicePhase(const std::string& workload, std::uint64_t seed,
                             double budgetSeconds, bool traced, Tally& tally,
                             const fs::path& workDir, HostProbe& probe) {
  ServicePhase phase;
  const fs::path dir = workDir / (workload + "-" + std::to_string(getpid()) +
                                  (traced ? "-traced" : ""));
  fs::create_directories(dir);
  serve::ServiceOptions options;
  options.journalPath = (dir / "journal.bin").string();
  const std::string snapshot = (dir / "snapshot.bin").string();
  Tracer tracer(traced);

  // Set-up: network build, service construction and the first exact
  // solve, kSetupReps times, each between two host probe readings; the
  // last service is kept.
  std::unique_ptr<serve::FairshareService> svc;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    phase.setupReadings.push_back(probe.read());
    const std::uint64_t t0 = nowNs();
    svc = std::make_unique<serve::FairshareService>(
        serviceNetwork(workload), options);
    const serve::QueryResult q = svc->query(0.0);
    phase.setupSeconds.push_back(seconds(nowNs() - t0));
    if (q.status != serve::ServiceStatus::kOk) tally.fail("first exact solve");
  }
  phase.setupReadings.push_back(probe.read());
  svc->saveSnapshot(snapshot);
  ServiceScript script(svc->network(), seed);
  std::printf("service: %zu sessions, %zu receivers, %zu links\n",
              svc->network().sessionCount(), svc->network().receiverCount(),
              svc->network().linkCount());

  std::uint64_t applied = 0;
  phase.hostReadings.push_back(probe.read());
  const std::uint64_t start = nowNs();
  std::uint64_t blockStart = start;
  std::uint64_t blockCpuStart = threadCpuNs();
  std::uint64_t blockFirst = 0;
  auto closeBlock = [&] {
    phase.blockUpdates.push_back(phase.updates - blockFirst);
    phase.blockWallSeconds.push_back(seconds(nowNs() - blockStart));
    phase.blockCpuSeconds.push_back(seconds(threadCpuNs() - blockCpuStart));
    phase.hostReadings.push_back(probe.read());
    blockStart = nowNs();
    blockCpuStart = threadCpuNs();
    blockFirst = phase.updates;
  };
  for (;;) {
    const double elapsed = seconds(nowNs() - start);
    // A traced run also needs the update at which counts are read.
    const bool counted = !traced || phase.updates >= kCountedUpdates;
    if ((elapsed >= budgetSeconds && counted) ||
        elapsed >= kMaxServiceSeconds) {
      break;
    }
    const ScriptUpdate u = script.next();
    const std::uint64_t op = phase.updates;
    ++tally.attempted;
    const std::uint64_t t0 = nowNs();
    serve::ServiceStatus status = serve::ServiceStatus::kOk;
    serve::QueryResult q;
    bool threw = false;
    try {
      ScopedSpan root(tracer, "update", op);
      {
        ScopedSpan s(tracer, kApplySpan[static_cast<int>(u.kind)], op);
        status = svc->applyDelta(u.delta);
      }
      ScopedSpan s(tracer, "serve.query", op);
      q = svc->query(u.budgetSeconds);
      s.rename(q.degraded ? "serve.query.degraded" : "serve.query.exact");
    } catch (const std::exception& e) {
      threw = true;
      tally.fail("update " + std::to_string(op) + " threw: " + e.what());
    }
    phase.updateSeconds.push_back(seconds(nowNs() - t0));
    ++phase.updates;
    if (threw) {
      // counted above
    } else if (status != serve::ServiceStatus::kOk) {
      tally.fail(std::string("update ") + std::to_string(op) + " (" +
                 updateKindName(u.kind) + "): " +
                 serve::serviceStatusName(status));
    } else if (q.status != serve::ServiceStatus::kOk || q.rates == nullptr) {
      tally.fail("query after update " + std::to_string(op));
    } else {
      ++applied;
    }
    if (phase.updates == kCountedUpdates) phase.counted = svc->metrics();
    if (phase.updates % 10 == 0) {
      ++tally.attempted;
      const ScriptWhatIf w = script.nextWhatIf();
      try {
        ScopedSpan s(tracer, "serve.whatif", op);
        if (svc->whatIfCapacity(w.link, w.capacity, 0.0).status !=
            serve::ServiceStatus::kOk) {
          tally.fail("what-if after update " + std::to_string(op));
        }
      } catch (const std::exception& e) {
        tally.fail("what-if after update " + std::to_string(op) +
                   " threw: " + e.what());
      }
    }
    if (!threw && status == serve::ServiceStatus::kOk && applied % 256 == 0) {
      ++tally.attempted;
      ScopedSpan s(tracer, "serve.journal.snapshot", op);
      try {
        svc->saveSnapshot(snapshot);
      } catch (const std::exception& e) {
        tally.fail(std::string("snapshot: ") + e.what());
      }
    }
    if (seconds(nowNs() - blockStart) >= kServiceBlockSeconds) closeBlock();
  }
  if (phase.updates > blockFirst) closeBlock();
  phase.wallSeconds = seconds(nowNs() - start);

  // Checks: the final exact allocation equals a fresh solve on a copy of
  // the final network and the answer of a recovered copy, bit for bit.
  tally.attempted += 2;
  serve::QueryResult final;
  for (int i = 0; i < 8; ++i) {
    final = svc->query(0.0);
    if (!final.degraded) break;
  }
  if (final.degraded || final.rates == nullptr) {
    tally.fail("service did not return to exact answers");
    tally.fail("recovered copy not checked");
  } else {
    const std::vector<double> live = flatRates(svc->network(), *final.rates);
    const net::Network copy = svc->network();
    fairness::MaxMinSolver fresh;
    if (!bitEqual(live, flatRates(copy, fresh.solveAllocation(copy)))) {
      tally.fail("final allocation differs from a fresh MaxMinSolver solve");
    }
    phase.journalBytes =
        static_cast<double>(fs::file_size(options.journalPath));
    std::unique_ptr<serve::FairshareService> recovered;
    {
      ScopedSpan s(tracer, "serve.journal.recover", phase.updates);
      recovered = serve::FairshareService::recover(snapshot, options);
    }
    const serve::QueryResult r = recovered->query(0.0);
    if (recovered->sessionIds() != svc->sessionIds() ||
        recovered->revision() != svc->revision() || r.rates == nullptr ||
        !bitEqual(live, flatRates(recovered->network(), *r.rates))) {
      tally.fail("recovered copy differs from the live service");
    }
  }
  phase.spans = tracer.spans();
  svc.reset();
  fs::remove_all(dir);
  return phase;
}

int runService(const std::string& workload, std::uint64_t seed,
               double budgetSeconds, bool traced, const fs::path& workDir) {
  Tally tally;
  HostProbe probe;
  const ServicePhase plain = runServicePhase(workload, seed, budgetSeconds,
                                             false, tally, workDir, probe);
  const Percentile p50 = tailPercentile(plain.updateSeconds, 0.5);
  const Percentile p99 = tailPercentile(plain.updateSeconds, 0.99);
  std::printf("updates: %llu in %.3f s; update p50 %.1f us, p%g %.1f us "
              "over %zu samples\n",
              static_cast<unsigned long long>(plain.updates), plain.wallSeconds,
              p50.value * 1e6, p99.level * 100, p99.value * 1e6, p99.samples);
  Report report;
  const double rate = static_cast<double>(plain.updates) / plain.wallSeconds;
  if (!traced) {
    const double limit = hostLimit(plain.setupReadings, plain.hostReadings);
    const std::vector<char> keep = fastHostMask(plain.hostReadings, limit);
    const std::vector<double>& r = plain.hostReadings;
    double updates = 0.0, wall = 0.0, cpu = 0.0;
    std::size_t kept = 0;
    for (std::size_t b = 0; b < keep.size(); ++b) {
      if (keep[b] == 0) continue;
      ++kept;
      updates += static_cast<double>(plain.blockUpdates[b]);
      wall += atReferenceSpeed(plain.blockWallSeconds[b], r[b], r[b + 1]);
      cpu += atReferenceSpeed(plain.blockCpuSeconds[b], r[b], r[b + 1]);
    }
    std::printf("host: %zu of %zu update blocks timed at normal host speed "
                "(%.0f updates; probe median %.3f ms)\n",
                kept, keep.size(), updates, median(plain.hostReadings) * 1e3);
    report.add("setup_s",
               median(referenceSamples(plain.setupSeconds, plain.setupReadings,
                                       limit)),
               "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("ops_per_s", updates / wall, "1/s");
    report.add("ops_per_s_1t", updates / cpu, "1/s");
    report.print(tally.failed == 0 && !report.nonFinite(), tally.attempted,
                 tally.failed);
    return 0;
  }
  const ServicePhase tracedPhase = runServicePhase(
      workload, seed, budgetSeconds, true, tally, workDir, probe);
  writeTrace(workDir, workload, seed, tracedPhase.spans);
  const auto layerMs = selfMsByNameAndOp(tracedPhase.spans);
  auto samplesUs = [&](const char* name) {
    std::vector<double> v;
    const auto it = layerMs.find(name);
    if (it != layerMs.end()) {
      for (const auto& [op, ms] : it->second) v.push_back(ms * 1e3);
    }
    return v;
  };
  std::map<std::string, double> values;
  auto addPercentiles = [&](const std::string& prefix, const char* span) {
    const std::vector<double> v = samplesUs(span);
    for (const double level : {0.5, 0.99}) {
      const Percentile p = tailPercentile(v, level);
      values[prefix + (level == 0.5 ? ".p50" : ".p99")] = p.value;
      std::printf("percentile %s at p%g over %zu samples%s\n", prefix.c_str(),
                  p.level * 100, p.samples,
                  p.meetsRule ? "" : " (fewer than 20)");
    }
  };
  addPercentiles("serve.query_us.exact", "serve.query.exact");
  addPercentiles("serve.query_us.degraded", "serve.query.degraded");
  for (int k = 0; k < 4; ++k) {
    addPercentiles(std::string("serve.apply_us.") +
                       updateKindName(static_cast<UpdateKind>(k)),
                   kApplySpan[k]);
  }
  addPercentiles("serve.whatif_us", "serve.whatif");
  values["serve.journal.snapshot_ms"] =
      median(samplesUs("serve.journal.snapshot")) * 1e-3;
  values["serve.journal.recover_ms"] =
      median(samplesUs("serve.journal.recover")) * 1e-3;
  values["serve.journal.bytes"] = tracedPhase.journalBytes;
  if (tracedPhase.counted) {
    values["serve.answers.exact"] =
        static_cast<double>(tracedPhase.counted->exactAnswers);
    values["serve.answers.degraded"] =
        static_cast<double>(tracedPhase.counted->degradedAnswers);
    values["serve.demotions"] =
        static_cast<double>(tracedPhase.counted->demotions);
    values["serve.promotions"] =
        static_cast<double>(tracedPhase.counted->promotions);
  }
  values["serve.update_us.p50"] = p50.value * 1e6;
  values["serve.update_us.p99"] = p99.value * 1e6;
  const double tracedRate =
      static_cast<double>(tracedPhase.updates) / tracedPhase.wallSeconds;
  values["trace.overhead_pct"] = (rate / tracedRate - 1.0) * 100.0;
  addPerLayer(report, values);
  report.print(tally.failed == 0 && !report.nonFinite(), tally.attempted,
               tally.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* var : kPinnedEnv) unsetenv(var);
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double budget = 10.0;
  bool traced = false;
  bool goldens = false;
  fs::path workDir = ".bench_build/perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "perfbench: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = std::stoull(value());
    } else if (arg == "--seconds") {
      budget = std::stod(value());
    } else if (arg == "--trace") {
      traced = value() != "0";
    } else if (arg == "--work-dir") {
      workDir = value();
    } else if (arg == "--make-goldens") {
      goldens = true;
    } else {
      std::cerr << "perfbench: unknown argument " << arg << "\n";
      return 2;
    }
  }
  const std::string unfit = unfitBuild();
  if (!unfit.empty()) {
    std::cerr << "perfbench: refusing to report: " << unfit << "\n";
    return 3;
  }
  const bool catalog = workload == "catalog-layered" ||
                       workload == "catalog-large";
  const bool service = workload == "service-sharded" ||
                       workload == "service-mesh";
  if (!catalog && !service) {
    std::cerr << "perfbench: unknown workload '" << workload << "'\n";
    return 2;
  }
  const std::size_t cpus = onlineCpus();
  const int threadsN = static_cast<int>(std::min<std::size_t>(cpus, 4));
  std::printf("host: nproc %zu, cpu \"%s\"\n", cpus, cpuModel().c_str());
  std::printf("build: %s, compiler %s\n", PERFBENCH_BUILD_TYPE, __VERSION__);
  std::printf("threads: engine t1 = 1, tN = %d; solver %zu (MCFAIR_* "
              "environment cleared)\n",
              threadsN, fairness::MaxMinSolver().threadCount());
  std::printf("run: workload %s, seed %llu, seconds %g, trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              budget, traced ? 1 : 0);
  try {
    fs::create_directories(workDir);
    if (goldens) {
      if (!catalog) return 2;
      return makeGoldens(workload, seed);
    }
    if (catalog) {
      return runCatalog(workload, seed, budget, traced, threadsN, workDir);
    }
    return runService(workload, seed, budget, traced, workDir);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
