// perfbench: runs one seeded workload and prints its metrics.
//
//   perfbench --workload <chip|fleet|service|checkpoint> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <path>]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the traced
// variant and prints every per-layer metric (0 for a layer the workload
// does not reach, with its sample count 0). The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <span>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

using perfbench::Report;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"epochs_per_s", "1/s"},  {"latency_p50_us", "us"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"sim_bips", "BIPS"},     {"sim_bips_per_w", "BIPS/W"},
};

constexpr MetricSpec kPerLayer[] = {
    {"workload.step_us", "us"},
    {"workload.step_n", "count"},
    {"sim.step_us", "us"},
    {"sim.step_n", "count"},
    {"sim.runner_us", "us"},
    {"sim.runner_n", "count"},
    {"sim.fault_events", "count"},
    {"sim.watchdog_fallback_epochs", "count"},
    {"sim.otb_j", "J"},
    {"core.decide_us", "us"},
    {"core.decide_p99_us", "us"},
    {"core.decide_n", "count"},
    {"task.tasks_per_epoch", "1/epoch"},
    {"task.steals_per_epoch", "1/epoch"},
    {"task.steal_hit_ratio", "ratio"},
    {"task.worker_parks_per_epoch", "1/epoch"},
    {"task.wait_parks_per_epoch", "1/epoch"},
    {"task.overflows", "count"},
    {"task.max_queue_depth", "count"},
    {"task.speedup_vs_serial", "ratio"},
    {"service.encode_request_us", "us"},
    {"service.decode_request_us", "us"},
    {"service.encode_reply_us", "us"},
    {"service.decode_reply_us", "us"},
    {"service.handle_us", "us"},
    {"service.dispatch_us", "us"},
    {"service.connection_us", "us"},
    {"service.codec_n", "count"},
    {"service.request_bytes", "B"},
    {"service.reply_bytes", "B"},
    {"service.errors", "count"},
    {"service.sanitized", "count"},
    {"service.step_p50_us", "us"},
    {"service.step_p99_us", "us"},
    {"service.step_n", "count"},
    {"service.handle_snapshot_us", "us"},
    {"service.handle_open_us", "us"},
    {"service.handle_close_us", "us"},
    {"service.decode_snapshot_reply_us", "us"},
    {"service.encode_open_us", "us"},
    {"service.checkpoint_n", "count"},
    {"service.snapshot_p50_ms", "ms"},
    {"service.snapshot_p99_ms", "ms"},
    {"service.restore_p50_ms", "ms"},
    {"service.restore_p99_ms", "ms"},
    {"service.snapshot_n", "count"},
    {"snapshot.checksum_ns_per_byte", "ns/B"},
    {"snapshot.reader_us", "us"},
    {"snapshot.blob_bytes", "B"},
    {"snapshot.n", "count"},
    {"registry.make_controller_us", "us"},
    {"registry.make_controller_n", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(
      why +
      "\nusage: perfbench --workload <chip|fleet|service|checkpoint> "
      "--seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]");
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    usage("bad value for " + std::string(flag) + ": " + std::string(text));
  }
  return value;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parse_number<std::uint64_t>(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = parse_number<double>(flag, value);
    } else if (flag == "--trace") {
      const int t = parse_number<int>(flag, value);
      if (t != 0 && t != 1) usage("--trace takes 0 or 1");
      opt.trace = t == 1;
      have_trace = true;
    } else if (flag == "--spans-out") {
      opt.spans_out = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (opt.workload.empty() || !have_seed || !have_trace ||
      !(opt.seconds > 0.0)) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  return opt;
}

std::unique_ptr<perfbench::Workload> make_workload(const std::string& name,
                                                   std::uint64_t seed) {
  if (name == "chip") return perfbench::make_workload_chip(seed);
  if (name == "fleet") return perfbench::make_workload_fleet(seed);
  if (name == "service") return perfbench::make_workload_service(seed);
  if (name == "checkpoint") return perfbench::make_workload_checkpoint(seed);
  usage("unknown workload " + name);
}

void print_result(const Report& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted());
  out += ", \"failed\": " + std::to_string(report.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : trace ? std::span<const MetricSpec>(kPerLayer)
                                   : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = report.metrics().find(m.name);
    if (it == report.metrics().end() && !trace) {
      throw std::logic_error(std::string("end-to-end metric not measured: ") +
                             m.name);
    }
    const double value = it == report.metrics().end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      throw std::logic_error(std::string("metric is not finite: ") + m.name);
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    out += first ? "" : ", ";
    out += "\"" + std::string(m.name) + "\": {\"value\": " +
           std::string(buf, res.ptr) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    // Input generation happens in the factory, before any timing.
    std::unique_ptr<perfbench::Workload> workload =
        make_workload(opt.workload, opt.seed);
    Report report;
    if (opt.trace) {
      perfbench::Tracer tracer;
      workload->trace(opt.seconds, tracer, report);
      report.set("trace.spans", static_cast<double>(tracer.size()));
      if (!opt.spans_out.empty()) tracer.write_jsonl(opt.spans_out);
    } else {
      workload->measure(opt.seconds, report);
    }
    for (const std::string& problem : report.problems()) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
    }
    print_result(report, opt.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
