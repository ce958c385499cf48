// `chip`: the paper's experiment loop. One 256-core OD-RL chip, width 1,
// live mixed-suite workload, 2% sensor noise and a seeded power-cap
// schedule, driven by sim::run_closed_loop in slices of kSlice epochs.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "sim/controller_registry.hpp"
#include "sim/system.hpp"
#include "wrappers.hpp"

namespace perfbench {
namespace {

using odrl::sim::RunResult;

constexpr std::size_t kCores = 256;
constexpr std::size_t kSlice = 500;
/// The simulated totals cover the first kSimSlices slices (10k epochs).
constexpr std::size_t kSimSlices = 20;
/// Warm-up epochs in every set-up. Short, like the set-up as a whole: the
/// fastest of kSetups set-ups is reported, and a short one more often falls
/// wholly inside one of the host's quiet spells.
constexpr std::size_t kWarmup = 500;

struct Chip {
  CallLog workload_log;
  CallLog decide_log;
  std::unique_ptr<odrl::sim::Controller> odrl;
  std::unique_ptr<TimedController> controller;
  std::unique_ptr<odrl::sim::ManyCoreSystem> system;
  std::size_t epoch = 0;  ///< next epoch of the cap schedule
};

bool finite(const RunResult& r) {
  return std::isfinite(r.total_instructions) &&
         std::isfinite(r.total_energy_j) && std::isfinite(r.otb_energy_j) &&
         std::isfinite(r.mean_power_w) && std::isfinite(r.peak_overshoot_w) &&
         std::isfinite(r.time_over_s);
}

bool same(const RunResult& a, const RunResult& b) {
  return a.total_instructions == b.total_instructions &&
         a.total_energy_j == b.total_energy_j &&
         a.otb_energy_j == b.otb_energy_j && a.mean_power_w == b.mean_power_w;
}

class ChipWorkload final : public Workload {
 public:
  explicit ChipWorkload(std::uint64_t seed)
      : seed_(seed),
        config_(odrl::arch::ChipConfig::make(kCores)),
        caps_(config_.tdp_w(), fork_seed(seed, 1, 0)) {}

  void measure(double seconds, Report& report) override {
    std::unique_ptr<Chip> chip;
    RunResult first;
    SimTotals sim;
    const Measured m = measure_rounds(
        seconds, kSimSlices, [&] { chip.reset(); },
        [&](int i) {
          RunResult warm;
          const double s = timed([&] { chip = setup(warm); });
          if (i == 0) first = warm;
          report.check(same(first, warm),
                       "chip: warm-up differs between set-ups");
          chip->decide_log.mode = CallLog::Mode::kDurations;
          chip->decide_log.durations.reserve(kSlice);
          return s;
        },
        [&](int i, std::size_t k) {
          const RunResult r = slice(*chip, report);
          if (i == 0 && k < kSimSlices) sim.add(r);
          return static_cast<double>(kSlice);
        },
        [&] { return drain_median(chip->decide_log.durations); });
    report_times(report, m);
    sim.report(report);
  }

  void trace(double seconds, Tracer& tracer, Report& report) override {
    RunResult warm;
    std::unique_ptr<Chip> chip = setup(warm);
    // Odd slices are traced: the wrappers keep each call's interval, and
    // the slice's spans are built from them after it. Even slices run the
    // same epochs with the wrappers off, so trace.overhead_frac compares
    // like with like.
    SimTotals sim;
    std::size_t epochs = 0;
    const odrl::task::RuntimeStats before = chip->system->runtime().stats();
    const std::vector<double> rates = run_slices(
        seconds, kSimSlices,
        [&](std::size_t k) {
          const bool traced = k % 2 == 1;
          if (traced && !tracer.has_room(4 * kSlice)) return 0.0;
          chip->workload_log.mode = chip->decide_log.mode =
              traced ? CallLog::Mode::kCalls : CallLog::Mode::kOff;
          const RunResult r = slice(*chip, report);
          if (k < kSimSlices) sim.add(r);
          return static_cast<double>(kSlice);
        },
        [&](std::size_t) {
          epochs += add_epoch_spans(tracer, chip->workload_log,
                                    chip->decide_log, epochs);
        });
    const odrl::task::RuntimeStats after = chip->system->runtime().stats();
    sim.report(report);

    report.set("workload.step_us", median(tracer.durations_us("workload.step")));
    report.set("workload.step_n", static_cast<double>(epochs));
    report.set("sim.step_us", median(tracer.self_us("sim.step_into")));
    report.set("sim.step_n", static_cast<double>(epochs));
    const std::vector<double> runner = tracer.self_us("sim.epoch");
    report.set("sim.runner_us", median(runner));
    report.set("sim.runner_n", static_cast<double>(runner.size()));
    const std::vector<double> decide = tracer.durations_us("core.decide_into");
    report.set("core.decide_us", median(decide));
    report.set("core.decide_p99_us", quantile(decide, 0.99));
    report.set("core.decide_n", static_cast<double>(decide.size()));
    report_task_stats(report, before, after,
                      static_cast<double>(rates.size() * kSlice));
    report.set("registry.make_controller_us", median(make_controller_us_));
    report.set("registry.make_controller_n",
               static_cast<double>(make_controller_us_.size()));
    report.set("trace.overhead_frac", traced_over_plain(rates));
  }

 private:
  /// Builds the chip and its controller and runs the warm-up epochs.
  std::unique_ptr<Chip> setup(RunResult& warm) {
    auto chip = std::make_unique<Chip>();
    odrl::sim::SimConfig sim;
    sim.sensor_noise_rel = kSensorNoise;
    sim.seed = fork_seed(seed_, 2, 0);
    sim.threads = 1;
    chip->system = std::make_unique<odrl::sim::ManyCoreSystem>(
        config_,
        std::make_unique<TimedWorkload>(
            std::make_unique<odrl::workload::GeneratedWorkload>(
                odrl::workload::GeneratedWorkload::mixed_suite(
                    kCores, fork_seed(seed_, 3, 0))),
            chip->workload_log),
        sim);
    const std::int64_t t0 = now_ns();
    chip->odrl = odrl::sim::make_controller(
        "OD-RL", config_,
        odrl::sim::ControllerOverrides{
            {"seed", std::to_string(fork_seed(seed_, 4, 0))}});
    make_controller_us_.push_back(seconds_since(t0) * 1e6);
    chip->controller = std::make_unique<TimedController>(
        *chip->odrl, config_.vf_table().size(), chip->decide_log);
    warm = run(*chip, kWarmup);
    return chip;
  }

  RunResult run(Chip& chip, std::size_t epochs) {
    odrl::sim::RunConfig rc;
    rc.epochs = epochs;
    rc.keep_traces = false;
    rc.budget_events = caps_.events(chip.epoch, epochs);
    chip.epoch += epochs;
    return odrl::sim::run_closed_loop(*chip.system, *chip.controller, rc);
  }

  /// One measured slice; every epoch is one operation.
  RunResult slice(Chip& chip, Report& report) {
    const std::size_t bad_before = chip.controller->bad_epochs;
    const RunResult r = run(chip, kSlice);
    const std::size_t bad = chip.controller->bad_epochs - bad_before;
    report.count(kSlice, finite(r) ? bad : kSlice);
    return r;
  }

  /// Spans of each epoch i of a traced slice, bounded by the wrapped
  /// calls: sim.epoch [step_i, step_i+1) > sim.step_into [step_i,
  /// decide_i) > workload.step, and sim.epoch > core.decide_into. The
  /// epoch's self time is the runner's bookkeeping plus step_into's
  /// prologue before the workload advances; the slice's last epoch has no
  /// sim.epoch span. Empties both logs; returns the epochs spanned.
  static std::size_t add_epoch_spans(Tracer& tracer, CallLog& workload,
                                     CallLog& decide, std::size_t first_id) {
    const std::uint32_t epoch_name = tracer.intern("sim.epoch");
    const std::uint32_t step_name = tracer.intern("sim.step_into");
    const std::uint32_t workload_name = tracer.intern("workload.step");
    const std::uint32_t decide_name = tracer.intern("core.decide_into");
    const std::size_t n = std::min(workload.calls.size(), decide.calls.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t id = first_id + i;
      const auto [ws, we] = workload.calls[i];
      const auto [ds, de] = decide.calls[i];
      const std::uint32_t epoch =
          i + 1 < n ? tracer.add(epoch_name, Span::kRoot, id, ws,
                                 workload.calls[i + 1].first)
                    : Span::kRoot;
      const std::uint32_t step = tracer.add(step_name, epoch, id, ws, ds);
      tracer.add(workload_name, step, id, ws, we);
      tracer.add(decide_name, epoch, id, ds, de);
    }
    workload.calls.clear();
    decide.calls.clear();
    return n;
  }

  std::uint64_t seed_;
  odrl::arch::ChipConfig config_;
  CapSchedule caps_;
  std::vector<double> make_controller_us_;
};

}  // namespace

std::unique_ptr<Workload> make_workload_chip(std::uint64_t seed) {
  return std::make_unique<ChipWorkload>(seed);
}

}  // namespace perfbench
