/// \file protocol.h
/// Wire protocol of the routing service: one JSON object per line.
///
/// `cpr_served` speaks a line-delimited JSON protocol over a local stream
/// socket. Every frame — request or reply — is a single flat JSON object
/// terminated by '\n', versioned with `"v":"cpr.serve.v1"`. Requests carry
/// an `op` (`route`, `stats`, `ping`, `shutdown`); route replies carry the
/// job's `id` plus an `event` drawn from the `serve.job.*` vocabulary in
/// obs/names.h, so a client can demultiplex pipelined jobs on one
/// connection by id and recognise terminal frames by event name.
///
/// The codec is the trust boundary of the daemon: `decodeRequest` must turn
/// arbitrary bytes into either a well-formed request or a reported parse
/// error, never into undefined behaviour. It is fuzzed directly
/// (fuzz/serve_frame_fuzzer.cpp); keep it allocation-bounded and free of
/// recursion on attacker-controlled depth — nested values are captured as
/// raw balanced slices, not parsed structures.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "core/solver.h"
#include "route/cpr.h"

namespace cpr::serve {

inline constexpr std::string_view kProtocolVersion = "cpr.serve.v1";

/// Admission lanes. Interactive jobs are popped before batch jobs so a
/// flood of bulk work cannot starve a designer's quick iteration; each lane
/// has its own capacity, so neither can evict the other's admissions.
enum class Priority { Interactive, Batch };

[[nodiscard]] std::string_view priorityName(Priority p);

/// One `op:"route"` request. `design` names a synthesized suite benchmark;
/// `defText` carries an inline DEF-subset payload instead (exactly one of
/// the two must be set — the daemon never touches the client filesystem).
struct RouteRequest {
  std::string id;               ///< client-chosen job id, echoed in replies
  std::string design;           ///< suite benchmark name (ecc|efc|...)
  std::string defText;          ///< inline DEF payload (alternative)
  route::Scheme scheme = route::Scheme::Cpr;
  core::Method pinAccess = core::Method::Lr;  ///< cpr scheme only
  Priority priority = Priority::Batch;
  double budgetSeconds = 0.0;   ///< job wall-clock budget; 0 = server default
  std::uint64_t seed = 7;       ///< generator seed for `design` jobs
};

/// A decoded client frame. `Invalid` frames carry the parse diagnostic in
/// `error`; the server replies with an error frame and keeps the
/// connection — one bad line must not kill a pipelined session.
struct Request {
  enum class Kind { Route, Stats, Ping, Shutdown, Invalid };
  Kind kind = Kind::Invalid;
  std::string error;  ///< set when kind == Invalid
  RouteRequest route; ///< meaningful when kind == Route
};

/// Terminal outcome of one job, as reported in a `serve.job.completed` /
/// `serve.job.failed` / `serve.job.rejected` frame.
struct JobResult {
  std::string id;
  std::string event;   ///< terminal serve.job.* event name
  std::string status;  ///< support::statusCodeName of the final Status
  std::string detail;  ///< human-readable cause (parse error, panel fault…)
  double routability = 0.0;
  long vias = 0;
  long wirelength = 0;
  double seconds = 0.0;   ///< pipeline wall-clock (pin access + routing)
  int attempts = 1;
  std::string digest;  ///< 16-hex-digit route::resultDigest of the result
};

/// A decoded server frame (client side). Progress frames are `Event`;
/// completed/failed/rejected are `Result` (their payload in `result`).
struct Reply {
  enum class Kind { Event, Result, Pong, Stats, Error, Invalid };
  Kind kind = Kind::Invalid;
  std::string id;
  std::string event;
  std::string detail;
  int attempt = 0;
  double queueDepth = 0.0;
  JobResult result;            ///< meaningful when kind == Result
  std::string countersRaw;     ///< raw JSON object when kind == Stats
};

/// True when `event` names a terminal job frame (completed/failed/rejected).
[[nodiscard]] bool isTerminalEvent(std::string_view event);

// ---- decoding (arbitrary bytes in, structured frame or diagnostic out) ----

[[nodiscard]] Request decodeRequest(std::string_view line);
[[nodiscard]] Reply decodeReply(std::string_view line);

// ---- encoding (frames are returned WITHOUT the trailing newline) ----

[[nodiscard]] std::string encodeRouteRequest(const RouteRequest& r);
[[nodiscard]] std::string encodeStatsRequest();
[[nodiscard]] std::string encodePing();
[[nodiscard]] std::string encodeShutdownRequest();

/// Progress frame: serve.job.accepted / started / retrying.
[[nodiscard]] std::string encodeEvent(std::string_view id,
                                      std::string_view event, int attempt,
                                      double queueDepth,
                                      std::string_view detail = {});
[[nodiscard]] std::string encodeResult(const JobResult& r);
[[nodiscard]] std::string encodePong();
[[nodiscard]] std::string encodeError(std::string_view detail);
/// `counters` is emitted as a nested JSON object, keys in map order.
[[nodiscard]] std::string encodeStatsReply(
    const std::map<std::string, long, std::less<>>& counters);

}  // namespace cpr::serve
