// `checkpoint`: the same single-worker server and loopback connection as
// `service`, but with 4 sessions of 256-core OD-RL chips trained in set-up
// and then cycled: Snapshot -> OpenSession warm-started from that blob ->
// one StepEpoch on the copy and on its source -> CloseSession of the copy.
// The codec runs on a few ~0.5 MB frames instead of many small ones.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "loopback.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "sim/controller_registry.hpp"
#include "snapshot/snapshot.hpp"

namespace perfbench {
namespace {

namespace svc = odrl::service;

constexpr std::size_t kSessions = 4;
constexpr std::size_t kCores = 256;
/// Epochs each session is trained on in set-up; the recorded stream is
/// longer so the measured steps keep seeing fresh observations.
constexpr std::size_t kTrainEpochs = 300;
constexpr std::size_t kStreamEpochs = 512;
/// One cycle per session: short slices, the fastest of which a run reports.
constexpr std::size_t kCyclesPerSlice = kSessions;
/// Spans of one traced cycle: 6 on the cycle, 4 replayed.
constexpr std::size_t kSpansPerCycle = 10;

struct Deployment {
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<svc::LoopbackClient> client;
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> epochs;  ///< each source session's next epoch
  std::size_t cycles = 0;
};

/// Round-trip times of one cycle's snapshot and warm-start open.
struct CycleTimes {
  double snapshot_us = 0.0;
  double restore_us = 0.0;
};

class CheckpointWorkload final : public Workload {
 public:
  explicit CheckpointWorkload(std::uint64_t seed)
      : chip_(odrl::arch::ChipConfig::make(kCores)) {
    sim_.chips = kSessions;
    for (std::size_t i = 0; i < kSessions; ++i) {
      RecordSpec spec;
      spec.cores = kCores;
      spec.controller = "OD-RL";
      spec.seed = fork_seed(seed, 30, i);
      spec.epochs = kStreamEpochs;
      RecordedChip rec = record_chip(spec);
      streams_.push_back(std::move(rec.observations));
      seeds_.push_back(spec.seed);
      sim_.add(rec.result);
    }
  }

  void measure(double seconds, Report& report) override {
    std::unique_ptr<Deployment> d;
    std::vector<double> save_restore_us;
    save_restore_us.reserve(kCyclesPerSlice);
    const Measured m = measure_rounds(
        seconds, 1, [&] { d.reset(); },
        [&](int) {
          return timed([&] { d = setup(report); });
        },
        [&](int, std::size_t) {
          for (std::size_t c = 0; c < kCyclesPerSlice; ++c) {
            const CycleTimes t = cycle(*d, report);
            save_restore_us.push_back(t.snapshot_us + t.restore_us);
          }
          return static_cast<double>(kCyclesPerSlice);
        },
        [&] { return drain_median(save_restore_us); });
    report_times(report, m);
    sim_.report(report);
  }

  void trace(double seconds, Tracer& tracer, Report& report) override {
    sim_.report(report);

    // First half: the measured cycle, as in measure(), for the round-trip
    // percentiles.
    std::unique_ptr<Deployment> d = setup(report);
    std::vector<double> snapshot_ms;
    std::vector<double> restore_ms;
    run_slices(seconds / 2, 1, [&](std::size_t) {
      for (std::size_t c = 0; c < kCyclesPerSlice; ++c) {
        const CycleTimes t = cycle(*d, report);
        snapshot_ms.push_back(t.snapshot_us * 1e-3);
        restore_ms.push_back(t.restore_us * 1e-3);
      }
      return static_cast<double>(kCyclesPerSlice);
    });
    report.set("service.snapshot_p50_ms", median(snapshot_ms));
    report.set("service.snapshot_p99_ms", quantile(snapshot_ms, 0.99));
    report.set("service.restore_p50_ms", median(restore_ms));
    report.set("service.restore_p99_ms", quantile(restore_ms, 0.99));
    report.set("service.snapshot_n", static_cast<double>(snapshot_ms.size()));

    // Second half: the cycle through Server::handle directly. Odd slices
    // are traced (each call a span; the snapshot layer and the registry
    // replayed on the kept blobs after the slice); even slices make the
    // same calls without clocks or spans, so trace.overhead_frac compares
    // like with like.
    Traced t(tracer);
    const std::vector<double> rates = run_slices(
        seconds / 2, 2,
        [&](std::size_t k) {
          t.on = k % 2 == 1;
          if (t.on && !tracer.has_room(kSpansPerCycle * kCyclesPerSlice)) {
            return 0.0;
          }
          for (std::size_t c = 0; c < kCyclesPerSlice; ++c) {
            direct_cycle(*d, t, report);
          }
          return static_cast<double>(kCyclesPerSlice);
        },
        [&](std::size_t) { replay(t, report); });

    report.set("service.handle_snapshot_us", median(tracer.durations_us("service.handle_snapshot")));
    report.set("service.handle_open_us", median(tracer.durations_us("service.handle_open")));
    report.set("service.handle_close_us", median(tracer.durations_us("service.handle_close")));
    report.set("service.decode_snapshot_reply_us", median(tracer.durations_us("service.decode_snapshot_reply")));
    report.set("service.encode_open_us", median(tracer.durations_us("service.encode_open")));
    report.set("service.checkpoint_n", static_cast<double>(t.blob_bytes.size()));
    report.set("snapshot.checksum_ns_per_byte", median(t.checksum_ns_per_byte));
    report.set("snapshot.reader_us", median(tracer.durations_us("snapshot.reader")));
    report.set("snapshot.blob_bytes", median(t.blob_bytes));
    report.set("snapshot.n", static_cast<double>(t.blob_bytes.size()));
    report.set("registry.make_controller_us",
               median(tracer.durations_us("registry.make_controller")));
    report.set("registry.make_controller_n",
               static_cast<double>(t.blob_bytes.size()));
    const svc::ServerStats stats = d->server->stats();
    report.set("service.errors", static_cast<double>(stats.errors));
    report.set("service.sanitized", static_cast<double>(stats.sanitized));
    report.set("trace.overhead_frac", traced_over_plain(rates));
  }

 private:
  /// A traced cycle's snapshot reply, kept for replay() after the slice.
  struct Kept {
    std::uint64_t id;
    std::size_t session;
    std::string snapshot_reply;
  };

  /// The traced phase's span names and what it measures besides them.
  struct Traced {
    explicit Traced(Tracer& t)
        : tracer(t),
          cycle(t.intern("checkpoint.cycle")),
          handle_snapshot(t.intern("service.handle_snapshot")),
          decode_snapshot_reply(t.intern("service.decode_snapshot_reply")),
          encode_open(t.intern("service.encode_open")),
          handle_open(t.intern("service.handle_open")),
          handle_close(t.intern("service.handle_close")),
          replay(t.intern("checkpoint.replay")),
          checksum(t.intern("snapshot.fnv1a64")),
          reader(t.intern("snapshot.reader")),
          make_controller(t.intern("registry.make_controller")) {
      kept.reserve(kCyclesPerSlice);
    }

    Tracer& tracer;
    std::uint32_t cycle, handle_snapshot, decode_snapshot_reply, encode_open,
        handle_open, handle_close, replay, checksum, reader, make_controller;
    bool on = false;  ///< whether this slice is traced
    std::uint64_t cycles = 0;
    std::vector<Kept> kept;
    std::vector<double> checksum_ns_per_byte;
    std::vector<double> blob_bytes;
  };

  const odrl::sim::EpochResult& stream(std::size_t session,
                                       std::uint64_t epoch) const {
    return streams_[session][epoch % kStreamEpochs];
  }

  svc::Message open_request(std::size_t session, std::string seed_blob) const {
    svc::OpenSessionRequest open;
    open.head.type = svc::MsgType::kOpenSession;
    open.controller = "OD-RL";
    open.cores = kCores;
    open.seed = seeds_[session];
    open.seed_blob = std::move(seed_blob);
    return open;
  }

  /// A restored session's first decision must equal its source's on the
  /// same observation, bit for bit.
  static void compare(const svc::Message& copy, const svc::Message& source,
                      std::uint64_t source_epoch, Report& report) {
    const svc::StepEpochReply* a = step_reply(copy, 0, kCores);
    const svc::StepEpochReply* b = step_reply(source, source_epoch, kCores);
    report.attempt(a != nullptr && b != nullptr && a->levels == b->levels);
  }

  /// Builds the server, opens the sessions and trains each on its stream.
  std::unique_ptr<Deployment> setup(Report& report) {
    auto d = std::make_unique<Deployment>();
    svc::ServerConfig config;
    config.workers = 1;
    d->server = std::make_unique<svc::Server>(config);
    d->client = std::make_unique<svc::LoopbackClient>(*d->server, "perfbench");
    d->client->hello();
    for (std::size_t s = 0; s < kSessions; ++s) {
      svc::Message open = open_request(s, {});
      d->ids.push_back(
          d->client
              ->open_session(std::move(std::get<svc::OpenSessionRequest>(open)))
              .head.session_id);
    }
    d->epochs.assign(kSessions, 0);
    for (std::size_t e = 0; e < kTrainEpochs; ++e) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        d->client->post(step_request(d->ids[s], e, stream(s, e)));
        report.check(step_reply(d->client->wait_reply(), e, kCores) != nullptr,
                     "checkpoint: training step failed");
        d->epochs[s] = e + 1;
      }
    }
    return d;
  }

  /// Snapshot -> warm-started open -> one step on copy and source -> close.
  CycleTimes cycle(Deployment& d, Report& report) {
    const std::size_t s = d.cycles++ % kSessions;
    CycleTimes t;
    std::int64_t t0 = now_ns();
    d.client->post(svc::SnapshotRequest{{svc::MsgType::kSnapshot, 0, d.ids[s]}});
    svc::Message snap_msg = d.client->wait_reply();
    t.snapshot_us = (now_ns() - t0) * 1e-3;
    auto* snap = std::get_if<svc::SnapshotReply>(&snap_msg);
    report.attempt(snap != nullptr);
    if (snap == nullptr) return t;

    svc::Message open = open_request(s, std::move(snap->blob));
    t0 = now_ns();
    d.client->post(std::move(open));
    const svc::Message opened = d.client->wait_reply();
    t.restore_us = (now_ns() - t0) * 1e-3;
    const auto* open_reply = std::get_if<svc::OpenSessionReply>(&opened);
    report.attempt(open_reply != nullptr);
    if (open_reply == nullptr) return t;
    const std::uint64_t copy = open_reply->head.session_id;

    const odrl::sim::EpochResult& obs = stream(s, d.epochs[s]);
    const svc::Message a = d.client->call(step_request(copy, 0, obs));
    const svc::Message b = d.client->call(step_request(d.ids[s], d.epochs[s], obs));
    compare(a, b, d.epochs[s]++, report);
    d.client->post(svc::CloseSessionRequest{{svc::MsgType::kCloseSession, 0, copy}});
    report.attempt(
        std::holds_alternative<svc::CloseSessionReply>(d.client->wait_reply()));
    return t;
  }

  /// cycle() through Server::handle directly. While t.on each call is a
  /// span under one checkpoint.cycle root, and the snapshot reply is kept
  /// for replay().
  void direct_cycle(Deployment& d, Traced& t, Report& report) {
    const std::uint64_t id = t.cycles++;
    const std::size_t s = d.cycles++ % kSessions;
    const auto mark = [&t] { return t.on ? now_ns() : 0; };
    const std::string snap_req = svc::encode_message(
        svc::SnapshotRequest{{svc::MsgType::kSnapshot, id, d.ids[s]}});
    const std::int64_t t0 = mark();
    std::string snap_reply = d.server->handle(snap_req);
    const std::int64_t t1 = mark();
    svc::Message snap_msg = svc::decode_message(snap_reply);
    const std::int64_t t2 = mark();
    auto* snap = std::get_if<svc::SnapshotReply>(&snap_msg);
    report.attempt(snap != nullptr);
    if (snap == nullptr) return;

    svc::Message open = open_request(s, std::move(snap->blob));
    std::get<svc::OpenSessionRequest>(open).head.seq = id;
    const std::int64_t t3 = mark();
    const std::string open_req = svc::encode_message(open);
    const std::int64_t t4 = mark();
    const std::string open_reply = d.server->handle(open_req);
    const std::int64_t t5 = mark();
    const svc::Message opened = svc::decode_message(open_reply);
    const auto* opened_reply = std::get_if<svc::OpenSessionReply>(&opened);
    report.attempt(opened_reply != nullptr);
    if (opened_reply == nullptr) return;
    const std::uint64_t copy = opened_reply->head.session_id;

    const odrl::sim::EpochResult& obs = stream(s, d.epochs[s]);
    const svc::Message a = svc::decode_message(
        d.server->handle(svc::encode_message(step_request(copy, 0, obs))));
    const svc::Message b = svc::decode_message(d.server->handle(
        svc::encode_message(step_request(d.ids[s], d.epochs[s], obs))));
    compare(a, b, d.epochs[s]++, report);

    const std::string close_req = svc::encode_message(
        svc::CloseSessionRequest{{svc::MsgType::kCloseSession, id, copy}});
    const std::int64_t t6 = mark();
    const std::string close_reply = d.server->handle(close_req);
    const std::int64_t t7 = mark();
    report.attempt(std::holds_alternative<svc::CloseSessionReply>(
        svc::decode_message(close_reply)));
    if (!t.on) return;

    Tracer& tr = t.tracer;
    const std::uint32_t root = tr.add(t.cycle, Span::kRoot, id, t0, now_ns());
    tr.add(t.handle_snapshot, root, id, t0, t1);
    tr.add(t.decode_snapshot_reply, root, id, t1, t2);
    tr.add(t.encode_open, root, id, t3, t4);
    tr.add(t.handle_open, root, id, t4, t5);
    tr.add(t.handle_close, root, id, t6, t7);
    t.kept.push_back(Kept{id, s, std::move(snap_reply)});
  }

  /// The snapshot layer and the registry on each kept cycle's session
  /// blob: the frame checksum, the section index, and building the
  /// controller a warm start restores into.
  void replay(Traced& t, Report& report) const {
    Tracer& tr = t.tracer;
    for (const Kept& k : t.kept) {
      const svc::Message msg = svc::decode_message(k.snapshot_reply);
      const auto* snap = std::get_if<svc::SnapshotReply>(&msg);
      report.check(snap != nullptr, "checkpoint: kept snapshot reply changed");
      if (snap == nullptr) continue;
      const std::int64_t c0 = now_ns();
      const std::uint64_t sum = odrl::snapshot::fnv1a64(snap->blob);
      const std::int64_t c1 = now_ns();
      const odrl::snapshot::Reader frame(snap->blob);
      const std::int64_t c2 = now_ns();
      const std::unique_ptr<odrl::sim::Controller> fresh =
          odrl::sim::make_controller(
              "OD-RL", chip_,
              odrl::sim::ControllerOverrides{
                  {"seed", std::to_string(seeds_[k.session])}});
      const std::int64_t c3 = now_ns();
      report.check(sum != 0 && frame.section_tags().size() == 2 && fresh,
                   "checkpoint: session blob did not parse");

      const std::uint32_t root = tr.add(t.replay, Span::kRoot, k.id, c0, c3);
      tr.add(t.checksum, root, k.id, c0, c1);
      tr.add(t.reader, root, k.id, c1, c2);
      tr.add(t.make_controller, root, k.id, c2, c3);
      t.checksum_ns_per_byte.push_back(static_cast<double>(c1 - c0) /
                                       static_cast<double>(snap->blob.size()));
      t.blob_bytes.push_back(static_cast<double>(snap->blob.size()));
    }
    t.kept.clear();
  }

  odrl::arch::ChipConfig chip_;
  std::vector<std::vector<odrl::sim::EpochResult>> streams_;
  std::vector<std::uint64_t> seeds_;
  SimTotals sim_;
};

}  // namespace

std::unique_ptr<Workload> make_workload_checkpoint(std::uint64_t seed) {
  return std::make_unique<CheckpointWorkload>(seed);
}

}  // namespace perfbench
