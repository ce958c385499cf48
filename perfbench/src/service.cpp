// `service`: one service::Server (workers = 1, so drains run inline) and
// one LoopbackClient connection carrying 64 sessions of 8-core chips, OD-RL
// and PID alternating, the watchdog armed on every fourth. Each session
// replays an observation stream recorded from its own simulated chip;
// closed loop, one outstanding StepEpoch at a time, zero think time. No
// simulation runs in the measured loop, so per-message costs dominate.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "loopback.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "snapshot/snapshot.hpp"

namespace perfbench {
namespace {

namespace svc = odrl::service;

constexpr std::size_t kSessions = 64;
constexpr std::size_t kCores = 8;
/// Recorded epochs per session, replayed cyclically.
constexpr std::size_t kStreamEpochs = 256;
constexpr std::size_t kRoundsPerSlice = 16;
constexpr std::size_t kStepsPerSlice = kRoundsPerSlice * kSessions;
/// Warm-up rounds (every session steps once per round) in each set-up,
/// kept short for the reason chip.cpp gives for its warm-up.
constexpr std::size_t kWarmupRounds = 100;
/// Measured rounds whose decisions the traced run compares with the
/// untraced run, session by session.
constexpr std::size_t kCheckRounds = 64;
/// Spans of one traced request: 4 on its round trip, 5 replayed.
constexpr std::size_t kSpansPerStep = 9;

/// One set-up: a server, one loopback connection and the open sessions.
struct Deployment {
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<svc::LoopbackClient> client;
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> digests;
  std::uint64_t epoch = 0;  ///< every session's next epoch (lockstep)
};

/// A request sent straight to Server::handle in a traced slice, kept for
/// replay() after the slice.
struct Kept {
  std::uint64_t id;
  std::string request;
  std::string reply;
  svc::Message reply_msg;
  std::int64_t handle_ns;
};

/// The traced phase's connection, span names and per-request figures.
struct Traced {
  Traced(Tracer& t, std::shared_ptr<svc::Server::Connection> c)
      : tracer(t),
        conn(std::move(c)),
        round_trip(t.intern("service.round_trip")),
        encode_request(t.intern("service.encode_request")),
        connection(t.intern("service.connection")),
        handle(t.intern("service.handle")),
        decode_reply(t.intern("service.decode_reply")),
        replay(t.intern("service.replay")),
        decode_request(t.intern("service.decode_request")),
        encode_reply(t.intern("service.encode_reply")),
        checksum(t.intern("snapshot.fnv1a64")),
        reader(t.intern("snapshot.reader")) {
    kept.reserve(kStepsPerSlice);
  }

  Tracer& tracer;
  std::shared_ptr<svc::Server::Connection> conn;
  std::uint32_t round_trip, encode_request, connection, handle, decode_reply,
      replay, decode_request, encode_reply, checksum, reader;
  bool on = false;  ///< whether this slice is traced
  std::uint64_t requests = 0;
  std::vector<Kept> kept;
  std::vector<double> dispatch_us;
  std::vector<double> checksum_ns_per_byte;
  std::vector<double> request_bytes;
  std::vector<double> reply_bytes;
};

class ServiceWorkload final : public Workload {
 public:
  explicit ServiceWorkload(std::uint64_t seed) {
    sim_.chips = kSessions;
    for (std::size_t i = 0; i < kSessions; ++i) {
      RecordSpec spec;
      spec.cores = kCores;
      spec.controller = controller(i);
      spec.seed = fork_seed(seed, 20, i);
      spec.epochs = kStreamEpochs;
      RecordedChip rec = record_chip(spec);
      streams_.push_back(std::move(rec.observations));
      seeds_.push_back(spec.seed);
      sim_.add(rec.result);
    }
  }

  void measure(double seconds, Report& report) override {
    std::unique_ptr<Deployment> d;
    std::vector<std::uint64_t> first;
    std::vector<double> rtt;
    rtt.reserve(kStepsPerSlice);
    const Measured m = measure_rounds(
        seconds, 1, [&] { d.reset(); },
        [&](int i) {
          const double s = timed([&] { d = setup(); });
          if (i == 0) first = d->digests;
          report.check(first == d->digests,
                       "service: warm-up decisions differ between set-ups");
          return s;
        },
        [&](int, std::size_t) {
          for (std::size_t r = 0; r < kRoundsPerSlice; ++r) {
            round(*d, report, &rtt);
          }
          return static_cast<double>(kStepsPerSlice);
        },
        [&] { return drain_median(rtt); });
    report_times(report, m);
    sim_.report(report);
  }

  void trace(double seconds, Tracer& tracer, Report& report) override {
    sim_.report(report);

    // First half: the end-to-end loop, as in measure(), for the round-trip
    // percentiles and the decisions the second half must reproduce.
    std::unique_ptr<Deployment> a = setup();
    std::vector<std::uint64_t> check_a;
    std::vector<double> rtt;
    std::size_t rounds = 0;
    run_slices(seconds / 2, kCheckRounds / kRoundsPerSlice, [&](std::size_t) {
      for (std::size_t r = 0; r < kRoundsPerSlice; ++r) {
        round(*a, report, &rtt);
        if (++rounds == kCheckRounds) check_a = a->digests;
      }
      return static_cast<double>(kStepsPerSlice);
    });
    report.set("service.step_p50_us", median(rtt));
    report.set("service.step_p99_us", quantile(rtt, 0.99));
    report.set("service.step_n", static_cast<double>(rtt.size()));
    a.reset();

    // Second half, on a fresh deployment: rounds alternate between the
    // connection and Server::handle called directly. Odd slices are
    // traced (each call timed as a span, the server side replayed after
    // the slice); even slices make the same calls without clocks or
    // spans, so trace.overhead_frac compares like with like.
    std::unique_ptr<Deployment> b = setup();
    Traced t(tracer, b->server->connect());
    rounds = 0;
    const std::vector<double> rates = run_slices(
        seconds / 2, kCheckRounds / kRoundsPerSlice,
        [&](std::size_t k) {
          t.on = k % 2 == 1;
          if (t.on && !tracer.has_room(kSpansPerStep * kStepsPerSlice)) {
            return 0.0;
          }
          for (std::size_t r = 0; r < kRoundsPerSlice; ++r) {
            for (std::size_t s = 0; s < kSessions; ++s) {
              step(*b, s, r % 2 == 1, t, report);
            }
            ++b->epoch;
            if (++rounds == kCheckRounds) {
              report.check(b->digests == check_a,
                           "service: decisions differ between the untraced "
                           "and traced runs");
            }
          }
          return static_cast<double>(kStepsPerSlice);
        },
        [&](std::size_t) { replay(t, report); });

    report.set("service.encode_request_us", median(tracer.durations_us("service.encode_request")));
    report.set("service.decode_request_us", median(tracer.durations_us("service.decode_request")));
    report.set("service.encode_reply_us", median(tracer.durations_us("service.encode_reply")));
    report.set("service.decode_reply_us", median(tracer.durations_us("service.decode_reply")));
    report.set("service.handle_us", median(tracer.durations_us("service.handle")));
    report.set("service.dispatch_us", median(t.dispatch_us));
    report.set("service.connection_us", median(tracer.durations_us("service.connection")));
    report.set("service.codec_n", static_cast<double>(t.dispatch_us.size()));
    report.set("service.request_bytes", median(t.request_bytes));
    report.set("service.reply_bytes", median(t.reply_bytes));
    const svc::ServerStats stats = b->server->stats();
    report.set("service.errors", static_cast<double>(stats.errors));
    report.set("service.sanitized", static_cast<double>(stats.sanitized));
    report.set("snapshot.checksum_ns_per_byte", median(t.checksum_ns_per_byte));
    report.set("snapshot.reader_us", median(tracer.durations_us("snapshot.reader")));
    report.set("snapshot.blob_bytes", median(t.request_bytes));
    report.set("snapshot.n", static_cast<double>(t.request_bytes.size()));
    report.set("trace.overhead_frac", traced_over_plain(rates));
  }

 private:
  /// One StepEpoch for session `s` of `d`: client encode, then the
  /// connection round trip or, when `direct`, Server::handle called
  /// directly, then client decode. While t.on each call is a span, and a
  /// direct request is kept for replay().
  void step(Deployment& d, std::size_t s, bool direct, Traced& t,
            Report& report) {
    const std::uint64_t id = t.requests++;
    const auto mark = [&t] { return t.on ? now_ns() : 0; };
    svc::Message req = step_request(d.ids[s], d.epoch, stream(s, d.epoch));
    std::get<svc::StepEpochRequest>(req).head.seq = id + 1;
    const std::int64_t t0 = mark();
    std::string payload = svc::encode_message(req);
    const std::int64_t t1 = mark();
    std::string reply_payload;
    if (direct) {
      reply_payload = d.server->handle(payload);
    } else {
      t.conn->post(std::move(payload));
      reply_payload = t.conn->take_reply();
    }
    const std::int64_t t2 = mark();
    svc::Message reply = svc::decode_message(reply_payload);
    const std::int64_t t3 = mark();
    const svc::StepEpochReply* decided = step_reply(reply, d.epoch, kCores);
    report.attempt(decided != nullptr);
    if (decided != nullptr) fold(d.digests[s], decided->levels);
    if (!t.on) return;

    Tracer& tr = t.tracer;
    const std::uint32_t rt = tr.add(t.round_trip, Span::kRoot, id, t0, t3);
    tr.add(t.encode_request, rt, id, t0, t1);
    tr.add(direct ? t.handle : t.connection, rt, id, t1, t2);
    tr.add(t.decode_reply, rt, id, t2, t3);
    if (direct) {
      t.kept.push_back(Kept{id, std::move(payload), std::move(reply_payload),
                            std::move(reply), t2 - t1});
    }
  }

  /// The server side of each kept request, call by call: request decode,
  /// reply encode (which must give back the reply's own bytes), and the
  /// snapshot layer's checksum and section index of the request frame.
  /// Dispatch is what handle took beyond that decode and encode.
  static void replay(Traced& t, Report& report) {
    Tracer& tr = t.tracer;
    for (const Kept& k : t.kept) {
      const std::int64_t t0 = now_ns();
      const svc::Message request = svc::decode_message(k.request);
      const std::int64_t t1 = now_ns();
      const std::string reencoded = svc::encode_message(k.reply_msg);
      const std::int64_t t2 = now_ns();
      const std::uint64_t sum = odrl::snapshot::fnv1a64(k.request);
      const std::int64_t t3 = now_ns();
      const odrl::snapshot::Reader frame(k.request);
      const std::int64_t t4 = now_ns();
      report.check(reencoded == k.reply,
                   "service: reply does not re-encode to its bytes");
      report.check(sum != 0 && !frame.section_tags().empty() &&
                       std::holds_alternative<svc::StepEpochRequest>(request),
                   "service: request frame did not decode");

      const std::uint32_t root = tr.add(t.replay, Span::kRoot, k.id, t0, t4);
      tr.add(t.decode_request, root, k.id, t0, t1);
      tr.add(t.encode_reply, root, k.id, t1, t2);
      tr.add(t.checksum, root, k.id, t2, t3);
      tr.add(t.reader, root, k.id, t3, t4);
      t.dispatch_us.push_back(
          static_cast<double>(k.handle_ns - (t1 - t0) - (t2 - t1)) * 1e-3);
      t.checksum_ns_per_byte.push_back(static_cast<double>(t3 - t2) /
                                       static_cast<double>(k.request.size()));
      t.request_bytes.push_back(static_cast<double>(k.request.size()));
      t.reply_bytes.push_back(static_cast<double>(k.reply.size()));
    }
    t.kept.clear();
  }

  static std::string controller(std::size_t session) {
    return session % 2 == 0 ? "OD-RL" : "PID";
  }

  const odrl::sim::EpochResult& stream(std::size_t session,
                                       std::uint64_t epoch) const {
    return streams_[session][epoch % kStreamEpochs];
  }

  /// Builds the server, opens every session and runs the warm-up rounds.
  std::unique_ptr<Deployment> setup() {
    auto d = std::make_unique<Deployment>();
    svc::ServerConfig config;
    config.workers = 1;
    config.max_sessions = kSessions;
    d->server = std::make_unique<svc::Server>(config);
    d->client = std::make_unique<svc::LoopbackClient>(*d->server, "perfbench");
    d->client->hello();
    for (std::size_t i = 0; i < kSessions; ++i) {
      svc::OpenSessionRequest open;
      open.controller = controller(i);
      open.cores = kCores;
      open.seed = seeds_[i];
      open.watchdog = i % 4 == 0;
      d->ids.push_back(d->client->open_session(std::move(open)).head.session_id);
    }
    d->digests.assign(kSessions, kDigestBasis);
    Report ignored;
    for (std::size_t r = 0; r < kWarmupRounds; ++r) round(*d, ignored, nullptr);
    return d;
  }

  /// Steps every session once through the client; each StepEpoch is one
  /// operation. Adds each round trip's microseconds to `rtt_us`.
  void round(Deployment& d, Report& report, std::vector<double>* rtt_us) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      svc::Message req = step_request(d.ids[s], d.epoch, stream(s, d.epoch));
      const std::int64_t t0 = now_ns();
      d.client->post(std::move(req));
      const svc::Message reply = d.client->wait_reply();
      if (rtt_us != nullptr) rtt_us->push_back((now_ns() - t0) * 1e-3);
      const svc::StepEpochReply* step = step_reply(reply, d.epoch, kCores);
      report.attempt(step != nullptr);
      if (step != nullptr) fold(d.digests[s], step->levels);
    }
    ++d.epoch;
  }

  std::vector<std::vector<odrl::sim::EpochResult>> streams_;
  std::vector<std::uint64_t> seeds_;
  SimTotals sim_;
};

}  // namespace

std::unique_ptr<Workload> make_workload_service(std::uint64_t seed) {
  return std::make_unique<ServiceWorkload>(seed);
}

}  // namespace perfbench
