// The benchmark's workload interface and the report every run prints.
//
// A workload is built by a named factory from the run's seed; the factory
// generates every input (cap schedules, fault storms, observation streams)
// before anything is timed, so the program under test only ever sees
// generated inputs. measure() is the end-to-end run (tracing off);
// trace() is the separate traced run that times the calls into each layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/runner.hpp"
#include "task/runtime.hpp"
#include "trace.hpp"

namespace perfbench {

/// What one run prints as its last line.
class Report {
 public:
  /// Counts one operation; a failed one also marks the run incorrect.
  void attempt(bool ok) { count(1, ok ? 0 : 1); }
  /// Counts `n` operations of which `failed` failed.
  void count(std::uint64_t n, std::uint64_t failed) {
    attempted_ += n;
    failed_ += failed < n ? failed : n;
  }
  /// A check that is not one operation (bit-identity across set-ups or
  /// phases, finite results); a failure marks the run incorrect.
  void check(bool ok, std::string_view what);
  void set(const std::string& name, double value) { metrics_[name] = value; }

  bool correct() const { return problems_.empty() && failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& problems() const { return problems_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
  std::map<std::string, double> metrics_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Sets up several times (setup_s is their median), then measures for
  /// `seconds`, filling every end-to-end metric.
  virtual void measure(double seconds, Report& report) = 0;
  /// An untraced phase and a traced phase of about `seconds` together,
  /// filling the per-layer metrics this workload exercises.
  virtual void trace(double seconds, Tracer& tracer, Report& report) = 0;
};

std::unique_ptr<Workload> make_workload_chip(std::uint64_t seed);
std::unique_ptr<Workload> make_workload_fleet(std::uint64_t seed);
std::unique_ptr<Workload> make_workload_service(std::uint64_t seed);
std::unique_ptr<Workload> make_workload_checkpoint(std::uint64_t seed);

/// Simulated totals over a fixed amount of simulated work. They depend only
/// on the seed, never on host speed, so they repeat exactly run to run.
struct SimTotals {
  double instructions = 0.0;
  double energy_j = 0.0;
  double otb_j = 0.0;
  double chip_seconds = 0.0;  ///< simulated seconds summed over chips
  std::size_t chips = 1;      ///< chips the totals are spread over

  void add(const odrl::sim::RunResult& r);
  /// Throughput of all chips together (total instructions over one chip's
  /// simulated time), in BIPS.
  double bips() const;
  double bips_per_w() const;
  void report(Report& report) const;
};

/// Times repeated calls of `slice` (each returns the operations it did)
/// until `seconds` have passed and at least `min_slices` ran, calling
/// `after(k)` untimed after slice k; returns each slice's operations per
/// second.
template <typename F, typename G>
std::vector<double> run_slices(double seconds, std::size_t min_slices,
                               F&& slice, G&& after) {
  std::vector<double> rates;
  const std::int64_t start = now_ns();
  while (rates.size() < min_slices || seconds_since(start) < seconds) {
    const std::int64_t t0 = now_ns();
    const double ops = slice(rates.size());
    if (ops <= 0.0) break;
    rates.push_back(ops / seconds_since(t0));
    after(rates.size() - 1);
  }
  return rates;
}

template <typename F>
std::vector<double> run_slices(double seconds, std::size_t min_slices,
                               F&& slice) {
  return run_slices(seconds, min_slices, slice, [](std::size_t) {});
}

/// Times one set-up: returns its seconds.
template <typename F>
double timed(F&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return seconds_since(t0);
}

/// Set-ups per end-to-end run; setup_s is the fastest.
inline constexpr int kSetups = 50;

/// What an end-to-end run measured: each set-up's seconds, each slice's
/// rate, each slice's median latency in microseconds, and the first round's
/// peak memory (see measure_rounds).
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> rates;
  std::vector<double> slice_p50_us;
  double peak_rss_mb = 0.0;
};

/// Frees what the heap holds unused, resets the process's peak resident
/// set to its current one and returns the anonymous part of that, in MB.
double reset_peak_rss_mb();
/// The process's peak resident set since the reset less its file-backed
/// pages, in MB: the anonymous (heap and stack) peak. File-backed pages are
/// mostly code, and how many of them are resident follows address-space
/// randomization from run to run.
double peak_anon_rss_mb();

/// An end-to-end run in kSetups rounds, so the set-ups are spread over the
/// run as the slices are. Round i calls `release()` to free the last
/// round's deployment, then `setup(i)`, which builds a fresh one and
/// returns the seconds the build took; then run_slices(`slice(i, k)`) for an equal share of
/// `seconds`, at least `first_slices` slices in round 0, with `slice_p50()`
/// giving each slice's median latency, untimed.
///
/// peak_rss_mb is the anonymous memory round 0 adds to the generated
/// inputs: one set-up and its slices, as a user's process would run them.
/// Later rounds rebuild in a heap the earlier ones shaped, and how much of
/// it they touch follows how many slices each round ran.
template <typename Release, typename Setup, typename Slice, typename P50>
Measured measure_rounds(double seconds, std::size_t first_slices,
                        Release&& release, Setup&& setup, Slice&& slice,
                        P50&& slice_p50) {
  Measured m;
  const double inputs_mb = reset_peak_rss_mb();
  for (int i = 0; i < kSetups; ++i) {
    release();
    m.setup_s.push_back(setup(i));
    const std::vector<double> rates = run_slices(
        seconds / kSetups, i == 0 ? first_slices : 1,
        [&](std::size_t k) { return slice(i, k); },
        [&](std::size_t) { m.slice_p50_us.push_back(slice_p50()); });
    m.rates.insert(m.rates.end(), rates.begin(), rates.end());
    if (i == 0) m.peak_rss_mb = peak_anon_rss_mb() - inputs_mb;
  }
  return m;
}

/// The time metrics of an end-to-end run at the host's quiet speed (see
/// README.md, "Noise record"): setup_s is the fastest set-up,
/// epochs_per_s the fastest slice's rate and latency_p50_us the lowest
/// per-slice median latency.
void report_times(Report& report, const Measured& m);

/// The rates of a traced run's untraced (even) or traced (odd) slices:
/// traced runs alternate, so both kinds see the same host conditions.
std::vector<double> slices_of(const std::vector<double>& rates, bool traced);
/// trace.overhead_frac: median traced slice rate over median untraced one.
double traced_over_plain(const std::vector<double>& rates);

/// The task.* per-layer metrics from runtime counters read before and
/// after `chip_epochs` chip-epochs.
void report_task_stats(Report& report, const odrl::task::RuntimeStats& before,
                       const odrl::task::RuntimeStats& after,
                       double chip_epochs);

}  // namespace perfbench
