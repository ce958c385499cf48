// `fleet`: a sim::Fleet of 8 x 64-core OD-RL chips with 2% sensor noise on
// one shared 2-worker task runtime, every chip under its own seeded fault
// storm with the runner watchdog armed, driven by sim::run_multichip in
// slices of kSlice epochs per chip.
#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "sim/faults.hpp"
#include "sim/multichip.hpp"
#include "wrappers.hpp"

namespace perfbench {
namespace {

using odrl::sim::MultiChipResult;

constexpr std::size_t kChips = 8;
constexpr std::size_t kCores = 64;
/// On a 4-vCPU VM, identical runs of this fleet ranged 25.9k-53.5k
/// chip-epochs/s at 4 workers and 31.1k-33.8k at 2.
constexpr std::size_t kWorkers = 2;
/// Short slices: the fastest one is what a run reports, and a short slice
/// more often falls wholly inside one of the host's quiet spells.
constexpr std::size_t kSlice = 250;
/// The simulated totals cover the first kSimSlices slices.
constexpr std::size_t kSimSlices = 16;
constexpr std::size_t kWarmupSlices = 1;
/// Distinct storms per chip; slice k runs storm k % kStorms.
constexpr std::size_t kStorms = 4;

struct FleetRun {
  std::array<CallLog, kChips> logs;
  std::unique_ptr<odrl::sim::Fleet> fleet;
  std::vector<std::unique_ptr<TimedController>> controllers;
  std::shared_ptr<odrl::task::Runtime> runtime;
  std::size_t slices = 0;

  std::size_t bad_epochs() const {
    std::size_t n = 0;
    for (const auto& c : controllers) n += c->bad_epochs;
    return n;
  }
  void log(CallLog::Mode mode) {
    for (CallLog& l : logs) l.mode = mode;
  }
};

bool same(const MultiChipResult& a, const MultiChipResult& b) {
  if (a.chips.size() != b.chips.size()) return false;
  for (std::size_t i = 0; i < a.chips.size(); ++i) {
    if (a.chips[i].fault_events_applied != b.chips[i].fault_events_applied ||
        a.chips[i].watchdog_fallback_epochs !=
            b.chips[i].watchdog_fallback_epochs) {
      return false;
    }
  }
  return a.total_epochs == b.total_epochs &&
         a.total_instructions == b.total_instructions &&
         a.total_energy_j == b.total_energy_j &&
         a.otb_energy_j == b.otb_energy_j && a.mean_power_w == b.mean_power_w;
}

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(std::uint64_t seed) : seed_(seed) {
    for (std::size_t chip = 0; chip < kChips; ++chip) {
      for (std::size_t k = 0; k < kStorms; ++k) {
        storms_[chip].push_back(odrl::sim::FaultSchedule::random_storm(
            kCores, kSlice, fork_seed(seed, 11, chip * kStorms + k)));
      }
    }
  }

  void measure(double seconds, Report& report) override {
    std::unique_ptr<FleetRun> run;
    MultiChipResult first;
    SimTotals sim;
    sim.chips = kChips;
    const Measured m = measure_rounds(
        seconds, kSimSlices, [&] { run.reset(); },
        [&](int i) {
          MultiChipResult warm;
          const double s = timed([&] { run = setup(kWorkers, warm); });
          if (i == 0) first = warm;
          report.check(same(first, warm),
                       "fleet: warm-up differs between set-ups");
          run->log(CallLog::Mode::kDurations);
          for (CallLog& l : run->logs) l.durations.reserve(kSlice);
          return s;
        },
        [&](int i, std::size_t k) {
          const MultiChipResult r = slice(*run, report);
          if (i == 0 && k < kSimSlices) {
            for (const auto& chip : r.chips) sim.add(chip);
          }
          return static_cast<double>(r.total_epochs);
        },
        [&] {
          // Per chip: each chip's decide_into is called from the worker
          // running that chip's loop, so the lowest chip median needs one
          // quiet core; a median over all chips needs both at once.
          double lowest = std::numeric_limits<double>::infinity();
          for (CallLog& l : run->logs) {
            lowest = std::min(lowest, drain_median(l.durations));
          }
          return lowest;
        });
    report_times(report, m);
    sim.report(report);
  }

  void trace(double seconds, Tracer& tracer, Report& report) override {
    MultiChipResult warm_a;
    MultiChipResult warm_b;
    std::unique_ptr<FleetRun> a = setup(kWorkers, warm_a);
    std::unique_ptr<FleetRun> b = setup(1, warm_b);
    report.check(same(warm_a, warm_b),
                 "fleet: 1-worker warm-up differs from 2-worker");

    // Slice by slice, the fleet and then its 1-worker twin; every pair of
    // aggregates must be bit-identical. The fleet's odd slices are traced
    // (one span per slice, one per decide_into under it); even ones run
    // with the wrappers off, so trace.overhead_frac compares like with
    // like and task.speedup_vs_serial uses only untraced slices.
    const std::uint32_t slice_name = tracer.intern("sim.run_multichip");
    const std::uint32_t decide_name = tracer.intern("core.decide_into");
    SimTotals sim;
    sim.chips = kChips;
    std::vector<double> rates_a;
    std::vector<double> rates_b;
    std::size_t fault_events = 0;
    std::size_t fallback_epochs = 0;
    const odrl::task::RuntimeStats before = a->runtime->stats();
    const std::int64_t start = now_ns();
    while (rates_a.size() < kSimSlices || seconds_since(start) < seconds) {
      const std::size_t k = rates_a.size();
      const bool traced = k % 2 == 1;
      if (traced && !tracer.has_room(kChips * kSlice + 1)) break;
      a->log(traced ? CallLog::Mode::kCalls : CallLog::Mode::kOff);
      std::int64_t t0 = now_ns();
      const MultiChipResult ra = slice(*a, report);
      const std::int64_t t1 = now_ns();
      rates_a.push_back(static_cast<double>(ra.total_epochs) /
                        (static_cast<double>(t1 - t0) * 1e-9));
      if (traced) {
        const std::uint32_t parent =
            tracer.add(slice_name, Span::kRoot, k, t0, t1);
        for (std::size_t chip = 0; chip < kChips; ++chip) {
          auto& calls = a->logs[chip].calls;
          for (std::size_t e = 0; e < calls.size(); ++e) {
            tracer.add(decide_name, parent, (k * kChips + chip) * kSlice + e,
                       calls[e].first, calls[e].second);
          }
          calls.clear();
        }
      }
      t0 = now_ns();
      const MultiChipResult rb = slice(*b, report);
      rates_b.push_back(static_cast<double>(rb.total_epochs) /
                        seconds_since(t0));
      report.check(same(ra, rb),
                   "fleet: 1-worker twin differs from 2-worker in slice " +
                       std::to_string(k));
      for (const auto& chip : ra.chips) {
        if (k < kSimSlices) sim.add(chip);
        fault_events += chip.fault_events_applied;
        fallback_epochs += chip.watchdog_fallback_epochs;
      }
    }
    a->log(CallLog::Mode::kOff);
    const odrl::task::RuntimeStats after = a->runtime->stats();
    sim.report(report);
    report_task_stats(report, before, after,
                      static_cast<double>(rates_a.size() * kChips * kSlice));
    report.set("task.speedup_vs_serial",
               median(slices_of(rates_a, false)) / median(rates_b));
    report.set("sim.fault_events", static_cast<double>(fault_events));
    report.set("sim.watchdog_fallback_epochs",
               static_cast<double>(fallback_epochs));
    const std::vector<double> decide = tracer.durations_us("core.decide_into");
    report.set("core.decide_us", median(decide));
    report.set("core.decide_p99_us", quantile(decide, 0.99));
    report.set("core.decide_n", static_cast<double>(decide.size()));
    report.set("trace.overhead_frac", traced_over_plain(rates_a));
  }

 private:
  /// Builds the fleet, its wrappers and its runtime, and runs the warm-up.
  std::unique_ptr<FleetRun> setup(std::size_t workers, MultiChipResult& warm) {
    auto run = std::make_unique<FleetRun>();
    odrl::sim::FleetConfig fc;
    fc.chips = kChips;
    fc.cores = kCores;
    fc.controller = "OD-RL";
    fc.epochs = kSlice;
    fc.seed = fork_seed(seed_, 10, 0);
    fc.sensor_noise_rel = kSensorNoise;
    fc.keep_traces = false;
    run->fleet = std::make_unique<odrl::sim::Fleet>(fc);
    run->runtime = std::make_shared<odrl::task::Runtime>(workers);
    for (std::size_t chip = 0; chip < kChips; ++chip) {
      odrl::sim::ChipSpec& spec = run->fleet->specs()[chip];
      run->controllers.push_back(std::make_unique<TimedController>(
          run->fleet->controller(chip),
          run->fleet->system(chip).config().vf_table().size(),
          run->logs[chip]));
      spec.controller = run->controllers.back().get();
      spec.config.watchdog.enabled = true;
    }
    Report ignored;
    for (std::size_t i = 0; i < kWarmupSlices; ++i) warm = slice(*run, ignored);
    return run;
  }

  /// One slice of every chip; every chip-epoch is one operation.
  MultiChipResult slice(FleetRun& run, Report& report) {
    for (std::size_t chip = 0; chip < kChips; ++chip) {
      run.fleet->specs()[chip].config.faults =
          &storms_[chip][run.slices % kStorms];
    }
    ++run.slices;
    odrl::sim::MultiChipConfig mc;
    mc.runtime = run.runtime;
    const std::size_t bad_before = run.bad_epochs();
    MultiChipResult r = odrl::sim::run_multichip(run.fleet->specs(), mc);
    const std::size_t bad = run.bad_epochs() - bad_before;
    const bool ok = std::isfinite(r.total_instructions) &&
                    std::isfinite(r.total_energy_j) &&
                    std::isfinite(r.otb_energy_j);
    report.count(r.total_epochs, ok ? bad : r.total_epochs);
    return r;
  }

  std::uint64_t seed_;
  std::array<std::vector<odrl::sim::FaultSchedule>, kChips> storms_;
};

}  // namespace

std::unique_ptr<Workload> make_workload_fleet(std::uint64_t seed) {
  return std::make_unique<FleetWorkload>(seed);
}

}  // namespace perfbench
