#include "inputs.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "sim/controller_registry.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

/// Segments in one cycle of a CapSchedule (about 19k epochs).
constexpr std::size_t kCapSegments = 64;

/// Forwards to a controller and keeps a copy of every observation.
class RecordingController final : public odrl::sim::Controller {
 public:
  RecordingController(std::unique_ptr<odrl::sim::Controller> inner,
                      std::vector<odrl::sim::EpochResult>& out)
      : inner_(std::move(inner)), out_(out) {}

  std::string name() const override { return inner_->name(); }
  std::vector<std::size_t> initial_levels(std::size_t n_cores) override {
    return inner_->initial_levels(n_cores);
  }
  void decide_into(const odrl::sim::EpochResult& obs,
                   std::span<std::size_t> out) override {
    out_.push_back(obs);
    inner_->decide_into(obs, out);
  }
  void on_budget_change(double budget_w) override {
    inner_->on_budget_change(budget_w);
  }

 private:
  std::unique_ptr<odrl::sim::Controller> inner_;
  std::vector<odrl::sim::EpochResult>& out_;
};

}  // namespace

std::uint64_t fork_seed(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t item) {
  odrl::util::SplitMix64 by_stream(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  odrl::util::SplitMix64 by_item(by_stream.next() ^
                                 (item * 0x9e3779b97f4a7c15ULL));
  return by_item.next();
}

CapSchedule::CapSchedule(double tdp_w, std::uint64_t seed) {
  odrl::util::Rng rng(seed);
  std::size_t end = 0;
  for (std::size_t i = 0; i < kCapSegments; ++i) {
    end += 200 + static_cast<std::size_t>(rng.below(201));
    ends_.push_back(end);
    budgets_.push_back(i % 2 == 0 ? tdp_w : tdp_w * rng.uniform(0.72, 0.78));
  }
}

double CapSchedule::budget_at(std::size_t epoch) const {
  const std::size_t e = epoch % ends_.back();
  const auto it = std::upper_bound(ends_.begin(), ends_.end(), e);
  return budgets_[static_cast<std::size_t>(it - ends_.begin())];
}

std::vector<odrl::sim::BudgetEvent> CapSchedule::events(
    std::size_t start, std::size_t len) const {
  std::vector<odrl::sim::BudgetEvent> out{{0, budget_at(start)}};
  for (std::size_t e = 1; e < len; ++e) {
    const double b = budget_at(start + e);
    if (b != out.back().budget_w) out.push_back({e, b});
  }
  return out;
}

RecordedChip record_chip(const RecordSpec& spec) {
  const auto chip = odrl::arch::ChipConfig::make(spec.cores);
  odrl::sim::SimConfig sim;
  sim.sensor_noise_rel = kSensorNoise;
  sim.seed = spec.seed;
  odrl::sim::ManyCoreSystem system(
      chip,
      std::make_unique<odrl::workload::GeneratedWorkload>(
          odrl::workload::GeneratedWorkload::mixed_suite(spec.cores,
                                                         spec.seed)),
      sim);

  RecordedChip rec;
  rec.observations.reserve(spec.epochs);
  RecordingController controller(
      odrl::sim::make_controller(
          spec.controller, chip,
          odrl::sim::ControllerOverrides{{"seed", std::to_string(spec.seed)}}),
      rec.observations);

  odrl::sim::RunConfig rc;
  rc.epochs = spec.epochs;
  rc.keep_traces = false;
  rc.threads = 1;
  rc.budget_events = CapSchedule(chip.tdp_w(), spec.seed).events(0, spec.epochs);
  rec.result = odrl::sim::run_closed_loop(system, controller, rc);
  return rec;
}

}  // namespace perfbench
