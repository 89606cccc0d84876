#include "sim/sweep.hpp"

#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "fairness/sampled.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mcfair::sim {

namespace {

void observe(SweepCell& cell, const fairness::SampledErrorReport& report,
             std::size_t exactRounds, std::size_t sampledRounds) {
  const auto metric = [&cell](SweepMetric m) -> MetricStream& {
    return cell.metrics[static_cast<std::size_t>(m)];
  };
  metric(SweepMetric::kMeanReceiverError).add(report.meanReceiverError);
  metric(SweepMetric::kMaxReceiverError).add(report.maxReceiverError);
  metric(SweepMetric::kMaxLinkError).add(report.maxLinkError);
  metric(SweepMetric::kSampledShare)
      .add(report.totalReceivers == 0
               ? 1.0
               : static_cast<double>(report.sampledReceivers) /
                     static_cast<double>(report.totalReceivers));
  metric(SweepMetric::kExactRounds).add(static_cast<double>(exactRounds));
  metric(SweepMetric::kSampledRounds).add(static_cast<double>(sampledRounds));
  ++cell.observations;
}

void checkControlColumn(const SweepCell& cell,
                        const fairness::SampledErrorReport& report) {
  // The fraction-1.0 column is the control: the sample is everything and
  // the estimate must match the oracle bit for bit (see sampled.hpp).
  if (cell.sampleFraction != 1.0) return;
  MCFAIR_REQUIRE(report.meanReceiverError == 0.0 &&
                     report.maxReceiverError == 0.0 &&
                     report.maxLinkError == 0.0,
                 "sweep validation: nonzero error at sample fraction 1.0");
  MCFAIR_REQUIRE(report.sampledReceivers == report.totalReceivers,
                 "sweep validation: partial sample at fraction 1.0");
}

// Runs every replica of one grid cell, serially and in seed order. The
// cell owns its accumulators and nothing escapes to shared state, so the
// result is independent of which executor claims the cell and of how
// many executors exist.
void runCell(const SweepConfig& config, const ScenarioSpec& preset,
             SweepCell& cell) {
  const bool paranoid = config.validate.resolve();

  fairness::MaxMinOptions solverOptions;
  solverOptions.validate = config.validate;

  fairness::MaxMinSolver exact(solverOptions);
  std::vector<double> baseCapacity;

  for (std::size_t replica = 0; replica < config.runs; ++replica) {
    ScenarioSpec spec = preset;
    spec.seed = config.seedBase + replica;
    const Scenario scenario = buildScenario(spec);

    fairness::SampledOptions sampledOptions;
    sampledOptions.sampleFraction = cell.sampleFraction;
    sampledOptions.seed = spec.seed;
    sampledOptions.minPerLink = config.minPerLink;
    sampledOptions.solver = solverOptions;
    fairness::SampledSolver sampled(sampledOptions);

    const fairness::MaxMinResult& exactResult = exact.solve(scenario.network);
    const fairness::MaxMinResult& sampledResult =
        sampled.solve(scenario.network);
    const fairness::SampledErrorReport report =
        sampled.errorReport(exactResult);
    if (paranoid) checkControlColumn(cell, report);
    observe(cell, report, exactResult.rounds, sampledResult.rounds);

    // Fault presets: re-score on the degraded topology at the schedule's
    // median event time. setCapacity keeps the structure identity, so
    // both solvers take their O(links) allocation-free refresh tiers —
    // the same path the closed-loop engines exercise at fault edges.
    const net::FaultSchedule& faults = scenario.config.faults;
    if (!config.solveMidFault || faults.empty()) continue;

    net::Network degraded = scenario.network;
    baseCapacity.resize(degraded.linkCount());
    for (std::size_t j = 0; j < degraded.linkCount(); ++j) {
      baseCapacity[j] =
          degraded.capacity(graph::LinkId{static_cast<std::uint32_t>(j)});
    }
    const double probeTime =
        faults.events[faults.events.size() / 2].time;
    // Events *set* capacity factors (they do not stack), so replaying the
    // prefix in order leaves each link at its last event's factor.
    for (const net::FaultEvent& event : faults.events) {
      if (event.time > probeTime) break;
      degraded.setCapacity(
          event.link, baseCapacity[event.link.value] * event.appliedFactor());
    }

    const fairness::MaxMinResult& exactMid = exact.solve(degraded);
    const fairness::MaxMinResult& sampledMid = sampled.solve(degraded);
    const fairness::SampledErrorReport midReport =
        sampled.errorReport(exactMid);
    if (paranoid) checkControlColumn(cell, midReport);
    observe(cell, midReport, exactMid.rounds, sampledMid.rounds);
  }
}

}  // namespace

std::string_view sweepMetricName(SweepMetric m) noexcept {
  switch (m) {
    case SweepMetric::kMeanReceiverError:
      return "mean_rx_err";
    case SweepMetric::kMaxReceiverError:
      return "max_rx_err";
    case SweepMetric::kMaxLinkError:
      return "max_link_err";
    case SweepMetric::kSampledShare:
      return "sampled_share";
    case SweepMetric::kExactRounds:
      return "exact_rounds";
    case SweepMetric::kSampledRounds:
      return "sampled_rounds";
  }
  return "unknown";
}

const SweepCell* findCell(const SweepResult& result, std::string_view scenario,
                          double sampleFraction) {
  for (const SweepCell& cell : result.cells) {
    if (cell.scenario == scenario &&
        std::abs(cell.sampleFraction - sampleFraction) <= 1e-12) {
      return &cell;
    }
  }
  return nullptr;
}

SweepDriver::SweepDriver(SweepConfig config) : config_(std::move(config)) {
  MCFAIR_REQUIRE(config_.runs >= 1, "SweepConfig::runs must be >= 1");
  MCFAIR_REQUIRE(config_.cellRetries >= 1,
                 "SweepConfig::cellRetries must be >= 1");
  MCFAIR_REQUIRE(config_.retryBackoffSeconds >= 0.0,
                 "SweepConfig::retryBackoffSeconds must be >= 0");
  MCFAIR_REQUIRE(!config_.sampleFractions.empty(),
                 "SweepConfig::sampleFractions must be non-empty");
  for (const double f : config_.sampleFractions) {
    MCFAIR_REQUIRE(f > 0.0 && f <= 1.0,
                   "SweepConfig::sampleFractions entries must be in (0, 1]");
  }
  const std::size_t resolved =
      config_.threads < 0
          ? util::ThreadPool::threadCountFromEnv("MCFAIR_SWEEP_THREADS", 1)
          : static_cast<std::size_t>(config_.threads);
  threads_ = std::max<std::size_t>(resolved, 1);
}

SweepResult SweepDriver::run() const {
  SweepResult result;
  result.scenarioCount = config_.scenarios.size();
  result.fractionCount = config_.sampleFractions.size();
  result.cells.resize(result.scenarioCount * result.fractionCount);
  for (std::size_t si = 0; si < result.scenarioCount; ++si) {
    for (std::size_t fi = 0; fi < result.fractionCount; ++fi) {
      SweepCell& cell = result.cells[si * result.fractionCount + fi];
      cell.scenario = config_.scenarios[si].name;
      cell.sampleFraction = config_.sampleFractions[fi];
    }
  }
  if (result.cells.empty()) return result;

  // Per-cell failure slots: each shard writes only its own entry, so
  // no cross-thread state is shared and the quarantine report is
  // deterministic for every executor count (assembled in cell order
  // after the pool drains).
  std::vector<FailedSweepCell> failures(result.cells.size());

  auto shard = [&](std::size_t index) {
    const std::size_t si = index / result.fractionCount;
    SweepCell& cell = result.cells[index];
    double backoff = config_.retryBackoffSeconds;
    for (std::size_t attempt = 0; attempt < config_.cellRetries; ++attempt) {
      if (attempt > 0 && backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff *= 2.0;
      }
      // Retries restart from clean accumulators: a partially-streamed
      // attempt must not pollute the successful one.
      cell.observations = 0;
      cell.metrics = {};
      try {
        if (config_.cellHook) {
          config_.cellHook(cell.scenario, cell.sampleFraction, attempt);
        }
        runCell(config_, config_.scenarios[si], cell);
        failures[index].attempts = 0;  // success: clear any earlier error
        return;
      } catch (const std::exception& e) {
        failures[index].scenario = cell.scenario;
        failures[index].sampleFraction = cell.sampleFraction;
        failures[index].attempts = attempt + 1;
        failures[index].error = e.what();
      }
    }
    // Quarantined: leave the cell's accumulators empty.
    cell.observations = 0;
    cell.metrics = {};
  };
  util::ThreadPool pool(threads_);
  pool.forEachShard(result.cells.size(), shard);

  for (FailedSweepCell& f : failures) {
    if (f.attempts > 0) result.failedCells.push_back(std::move(f));
  }
  return result;
}

SweepResult runSweep(SweepConfig config) {
  return SweepDriver(std::move(config)).run();
}

}  // namespace mcfair::sim
