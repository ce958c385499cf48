// Helpers shared by the two workloads that drive service::Server over a
// loopback connection (`service` and `checkpoint`).
#pragma once

#include <cstdint>
#include <span>
#include <variant>

#include "service/wire.hpp"
#include "sim/observation.hpp"

namespace perfbench {

inline odrl::service::Message step_request(std::uint64_t session,
                                           std::uint64_t epoch,
                                           const odrl::sim::EpochResult& obs) {
  odrl::service::StepEpochRequest req;
  req.head.type = odrl::service::MsgType::kStepEpoch;
  req.head.session_id = session;
  req.epoch = epoch;
  req.obs = obs;
  return req;
}

/// The decided levels of a StepEpoch reply for `epoch`, or null when the
/// reply is an error or does not match.
inline const odrl::service::StepEpochReply* step_reply(
    const odrl::service::Message& reply, std::uint64_t epoch,
    std::size_t cores) {
  const auto* r = std::get_if<odrl::service::StepEpochReply>(&reply);
  return r != nullptr && r->epoch == epoch && r->levels.size() == cores
             ? r
             : nullptr;
}

/// FNV-1a fold of a decision stream, level by level.
inline void fold(std::uint64_t& digest, std::span<const std::size_t> levels) {
  for (const std::size_t level : levels) {
    digest ^= static_cast<std::uint64_t>(level);
    digest *= 0x100000001b3ULL;
  }
}

inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

}  // namespace perfbench
