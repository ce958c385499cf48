#include "bench.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void Report::check(bool ok, std::string_view what) {
  if (!ok) problems_.emplace_back(what);
}

void SimTotals::add(const odrl::sim::RunResult& r) {
  instructions += r.total_instructions;
  energy_j += r.total_energy_j;
  otb_j += r.otb_energy_j;
  chip_seconds += r.elapsed_s();
}

double SimTotals::bips() const {
  const double seconds = chip_seconds / static_cast<double>(chips);
  return seconds > 0.0 ? instructions / seconds / 1e9 : 0.0;
}

double SimTotals::bips_per_w() const {
  return energy_j > 0.0 ? instructions / energy_j / 1e9 : 0.0;
}

void SimTotals::report(Report& report) const {
  report.check(std::isfinite(instructions) && std::isfinite(energy_j) &&
                   std::isfinite(otb_j) && bips() > 0.0,
               "simulated totals are not finite and positive");
  report.set("sim_bips", bips());
  report.set("sim_bips_per_w", bips_per_w());
  report.set("sim.otb_j", otb_j);
}

void report_task_stats(Report& report, const odrl::task::RuntimeStats& before,
                       const odrl::task::RuntimeStats& after,
                       double chip_epochs) {
  const auto per_epoch = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b) / chip_epochs;
  };
  report.set("task.tasks_per_epoch",
             per_epoch(after.tasks_executed, before.tasks_executed));
  report.set("task.steals_per_epoch", per_epoch(after.steals, before.steals));
  const std::uint64_t attempts = after.steal_attempts - before.steal_attempts;
  report.set("task.steal_hit_ratio",
             attempts == 0 ? 0.0
                           : static_cast<double>(after.steals - before.steals) /
                                 static_cast<double>(attempts));
  report.set("task.worker_parks_per_epoch",
             per_epoch(after.worker_parks, before.worker_parks));
  report.set("task.wait_parks_per_epoch",
             per_epoch(after.wait_parks, before.wait_parks));
  report.set("task.overflows",
             static_cast<double>(after.overflows - before.overflows));
  report.set("task.max_queue_depth", static_cast<double>(after.max_queue_depth));
}

void report_times(Report& report, const Measured& m) {
  report.set("peak_rss_mb", m.peak_rss_mb);
  report.set("setup_s", *std::min_element(m.setup_s.begin(), m.setup_s.end()));
  report.set("epochs_per_s", *std::max_element(m.rates.begin(), m.rates.end()));
  report.set("latency_p50_us", *std::min_element(m.slice_p50_us.begin(),
                                                 m.slice_p50_us.end()));
}

std::vector<double> slices_of(const std::vector<double>& rates, bool traced) {
  std::vector<double> out;
  for (std::size_t k = traced ? 1 : 0; k < rates.size(); k += 2) {
    out.push_back(rates[k]);
  }
  return out;
}

double traced_over_plain(const std::vector<double>& rates) {
  return median(slices_of(rates, true)) / median(slices_of(rates, false));
}

namespace {

/// A "Vm...:" field of /proc/self/status, in MB. VmHWM rather than
/// getrusage's ru_maxrss: Linux carries ru_maxrss over exec, so it would
/// report the launching process's peak when that was larger.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream fields(line.substr(field.size()));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

}  // namespace

double reset_peak_rss_mb() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset the peak resident set");
  return status_mb("RssAnon:");
}

double peak_anon_rss_mb() {
  // File-backed pages are only added while the program runs, so those
  // resident now bound those resident at the peak.
  return status_mb("VmHWM:") - status_mb("RssFile:") - status_mb("RssShmem:");
}

}  // namespace perfbench
