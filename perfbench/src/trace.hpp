// Timing primitives of the benchmark: the clock, in-memory spans for the
// traced run, call logs for the wrappers, and order statistics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// What a wrapper does with each call it forwards: nothing, add the call's
/// duration in microseconds to `durations` (end-to-end runs, which clear it
/// every slice), or keep the call's [start_ns, end_ns) in `calls` (traced
/// runs, for spans). Each wrapper owns its log, so chips stepped on
/// different workers never share one.
struct CallLog {
  enum class Mode { kOff, kDurations, kCalls };
  Mode mode = Mode::kOff;
  std::vector<double> durations;
  std::vector<std::pair<std::int64_t, std::int64_t>> calls;

  bool on() const { return mode != Mode::kOff; }
  void record(std::int64_t start_ns) {
    const std::int64_t end_ns = now_ns();
    if (mode == Mode::kDurations) {
      durations.push_back(static_cast<double>(end_ns - start_ns) * 1e-3);
    } else {
      calls.emplace_back(start_ns, end_ns);
    }
  }
};

/// One traced call: what ran, when, which span caused it, and the epoch or
/// request it served (spans of one epoch or request share `id`).
struct Span {
  static constexpr std::uint32_t kRoot =
      std::numeric_limits<std::uint32_t>::max();
  std::uint32_t name = 0;
  std::uint32_t parent = kRoot;
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store of a traced run, written out when the run ends.
/// Its capacity is fixed up front; traced phases stop before reaching it,
/// and add() drops spans past it.
class Tracer {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 19;

  Tracer() { spans_.reserve(kCapacity); }

  std::uint32_t intern(std::string_view name);
  /// Index of the new span, or Span::kRoot when the store is full.
  std::uint32_t add(std::uint32_t name, std::uint32_t parent, std::uint64_t id,
                    std::int64_t start_ns, std::int64_t end_ns);
  /// Sets the end of a span added before its children were known.
  void close(std::uint32_t span, std::int64_t end_ns) {
    if (span != Span::kRoot) spans_[span].end_ns = end_ns;
  }
  std::size_t size() const { return spans_.size(); }
  /// Whether `n` more spans fit.
  bool has_room(std::size_t n) const { return spans_.size() + n <= kCapacity; }

  /// Durations, and self times (duration minus the part of the span its
  /// child spans cover), in microseconds, of every span named `name`.
  std::vector<double> durations_us(std::string_view name) const;
  std::vector<double> self_us(std::string_view name) const;

  /// One JSON object per line: name, id, parent index, start/end ns.
  void write_jsonl(const std::string& path) const;

 private:
  std::uint32_t find(std::string_view name) const;

  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Median and q-quantile (0 <= q <= 1, linear interpolation between order
/// statistics); 0 for an empty sample.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);
/// Median of `values`, which it then empties, keeping their capacity.
double drain_median(std::vector<double>& values);

}  // namespace perfbench
