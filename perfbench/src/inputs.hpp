// Seeded input generators. Everything here runs before a workload's
// set-up clock starts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/chip_config.hpp"
#include "sim/observation.hpp"
#include "sim/runner.hpp"

namespace perfbench {

/// Relative sensor noise of every simulated chip the workloads run.
inline constexpr double kSensorNoise = 0.02;

/// Item `item` of stream `stream` forked from the run seed (SplitMix64):
/// a pure function of its arguments, so streams never alias.
std::uint64_t fork_seed(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t item);

/// Power-cap schedule: the chip budget alternates between full TDP and a
/// seeded 72-78% of it, each level held a seeded 200-400 epochs. One cycle
/// of segments is generated up front and repeats.
class CapSchedule {
 public:
  CapSchedule(double tdp_w, std::uint64_t seed);

  double budget_at(std::size_t epoch) const;
  /// Budget events for one run_closed_loop call covering global epochs
  /// [start, start + len): the first sets the budget in force at `start`.
  std::vector<odrl::sim::BudgetEvent> events(std::size_t start,
                                             std::size_t len) const;

 private:
  std::vector<std::size_t> ends_;  ///< cumulative segment ends in a cycle
  std::vector<double> budgets_;
};

/// One simulated chip run closed-loop under a locally built controller and
/// a CapSchedule, keeping every observation the controller was handed: the
/// stream a tenant of the service would report, epoch by epoch.
struct RecordedChip {
  std::vector<odrl::sim::EpochResult> observations;
  odrl::sim::RunResult result;
};

struct RecordSpec {
  std::size_t cores = 8;
  std::string controller = "OD-RL";
  std::uint64_t seed = 1;  ///< workload, sensor, controller and cap seed
  std::size_t epochs = 256;
};

RecordedChip record_chip(const RecordSpec& spec);

}  // namespace perfbench
