// Forwarding wrappers the benchmark puts around the library's
// Workload and Controller interfaces. They time each call into their log
// while it is on (two clock reads per call) and otherwise only forward, so
// no program code needs instrumenting.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/controller.hpp"
#include "trace.hpp"
#include "workload/workload.hpp"

namespace perfbench {

class TimedWorkload final : public odrl::workload::Workload {
 public:
  TimedWorkload(std::unique_ptr<odrl::workload::Workload> inner, CallLog& log)
      : inner_(std::move(inner)), log_(log) {}

  std::size_t n_cores() const override { return inner_->n_cores(); }
  std::span<const odrl::workload::PhaseSample> step() override {
    if (!log_.on()) return inner_->step();
    const std::int64_t t0 = now_ns();
    const auto samples = inner_->step();
    log_.record(t0);
    return samples;
  }
  std::string core_label(std::size_t core) const override {
    return inner_->core_label(core);
  }
  void save_state(odrl::snapshot::Writer& w) const override {
    inner_->save_state(w);
  }
  void load_state(odrl::snapshot::Reader& r) override { inner_->load_state(r); }

 private:
  std::unique_ptr<odrl::workload::Workload> inner_;
  CallLog& log_;
};

/// Also checks every decided level against the V/F table; `bad_epochs`
/// counts decisions with any level out of range.
class TimedController final : public odrl::sim::Controller {
 public:
  TimedController(odrl::sim::Controller& inner, std::size_t n_levels,
                  CallLog& log)
      : inner_(inner), n_levels_(n_levels), log_(log) {}

  std::size_t bad_epochs = 0;

  std::string name() const override { return inner_.name(); }
  std::vector<std::size_t> initial_levels(std::size_t n_cores) override {
    return inner_.initial_levels(n_cores);
  }
  void decide_into(const odrl::sim::EpochResult& obs,
                   std::span<std::size_t> out) override {
    if (log_.on()) {
      const std::int64_t t0 = now_ns();
      inner_.decide_into(obs, out);
      log_.record(t0);
    } else {
      inner_.decide_into(obs, out);
    }
    for (const std::size_t level : out) {
      if (level >= n_levels_) {
        ++bad_epochs;
        break;
      }
    }
  }
  void on_budget_change(double budget_w) override {
    inner_.on_budget_change(budget_w);
  }
  void reset() override { inner_.reset(); }
  void save_state(odrl::snapshot::Writer& w) const override {
    inner_.save_state(w);
  }
  void load_state(odrl::snapshot::Reader& r) override { inner_.load_state(r); }
  void set_threads(std::size_t threads) override { inner_.set_threads(threads); }
  void set_runtime(std::shared_ptr<odrl::task::Runtime> runtime) override {
    inner_.set_runtime(std::move(runtime));
  }
  void set_recorder(odrl::telemetry::Recorder* recorder) override {
    inner_.set_recorder(recorder);
  }

 private:
  odrl::sim::Controller& inner_;
  std::size_t n_levels_;
  CallLog& log_;
};

}  // namespace perfbench
