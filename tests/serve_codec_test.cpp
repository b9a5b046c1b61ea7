/// Serve-layer unit tests: the wire codec (decode arbitrary bytes safely,
/// round-trip every frame kind), the bounded two-lane job queue (admission
/// control, lane priority, retry gating, shutdown drain), the backoff
/// policy, and the shared exit-code table.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"  // tools/cli.h: the shared exit-code table
#include "obs/names.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "support/backoff.h"
#include "support/status.h"

namespace cpr::serve {
namespace {

// ---------------------------------------------------------------- codec --

TEST(ServeCodec, RouteRequestRoundTripsThroughEncodeDecode) {
  RouteRequest r;
  r.id = "job-42";
  r.design = "ecc";
  r.scheme = "cpr";
  r.pinAccess = "ilp";
  r.priority = Priority::Interactive;
  r.budgetSeconds = 2.5;
  r.seed = 99;
  const Request back = decodeRequest(encodeRouteRequest(r));
  ASSERT_EQ(back.kind, Request::Kind::Route) << back.error;
  EXPECT_EQ(back.route.id, "job-42");
  EXPECT_EQ(back.route.design, "ecc");
  EXPECT_EQ(back.route.pinAccess, "ilp");
  EXPECT_EQ(back.route.priority, Priority::Interactive);
  EXPECT_DOUBLE_EQ(back.route.budgetSeconds, 2.5);
  EXPECT_EQ(back.route.seed, 99U);
}

TEST(ServeCodec, InlineDefPayloadSurvivesEscaping) {
  RouteRequest r;
  r.id = "d";
  r.defText = "VERSION 5.8 ;\nDESIGN \"quoted\" ;\n\tEND DESIGN\n";
  const Request back = decodeRequest(encodeRouteRequest(r));
  ASSERT_EQ(back.kind, Request::Kind::Route) << back.error;
  EXPECT_EQ(back.route.defText, r.defText);
}

TEST(ServeCodec, ControlFramesRoundTrip) {
  EXPECT_EQ(decodeRequest(encodePing()).kind, Request::Kind::Ping);
  EXPECT_EQ(decodeRequest(encodeStatsRequest()).kind, Request::Kind::Stats);
  EXPECT_EQ(decodeRequest(encodeShutdownRequest()).kind,
            Request::Kind::Shutdown);
  EXPECT_EQ(decodeReply(encodePong()).kind, Reply::Kind::Pong);
  const Reply err = decodeReply(encodeError("what \"happened\""));
  EXPECT_EQ(err.kind, Reply::Kind::Error);
  EXPECT_EQ(err.detail, "what \"happened\"");
}

TEST(ServeCodec, ResultFrameRoundTripsWithMetrics) {
  JobResult r;
  r.id = "j";
  r.event = std::string(obs::names::kServeEvCompleted);
  r.status = "timed_out";
  r.detail = "budget fired";
  r.routability = 98.75;
  r.vias = 1234;
  r.wirelength = 56789;
  r.seconds = 1.5;
  r.attempts = 2;
  r.digest = "00ff00ff00ff00ff";
  const Reply back = decodeReply(encodeResult(r));
  ASSERT_EQ(back.kind, Reply::Kind::Result);
  EXPECT_EQ(back.result.status, "timed_out");
  EXPECT_DOUBLE_EQ(back.result.routability, 98.75);
  EXPECT_EQ(back.result.vias, 1234);
  EXPECT_EQ(back.result.wirelength, 56789);
  EXPECT_EQ(back.result.attempts, 2);
  EXPECT_EQ(back.result.digest, "00ff00ff00ff00ff");
  EXPECT_TRUE(isTerminalEvent(back.event));
}

TEST(ServeCodec, EventFramesAreNotTerminal) {
  const Reply ev = decodeReply(
      encodeEvent("j", obs::names::kServeEvAccepted, 0, 3.0));
  EXPECT_EQ(ev.kind, Reply::Kind::Event);
  EXPECT_EQ(ev.id, "j");
  EXPECT_DOUBLE_EQ(ev.queueDepth, 3.0);
  EXPECT_FALSE(isTerminalEvent(ev.event));
}

TEST(ServeCodec, StatsReplyCarriesCountersVerbatim) {
  std::map<std::string, long, std::less<>> counters;
  counters[std::string(obs::names::kServeJobsAccepted)] = 7;
  counters[std::string(obs::names::kServeJobsRejected)] = 2;
  const Reply back = decodeReply(encodeStatsReply(counters));
  ASSERT_EQ(back.kind, Reply::Kind::Stats);
  const std::string accepted =
      "\"" + std::string(obs::names::kServeJobsAccepted) + "\":7";
  const std::string rejected =
      "\"" + std::string(obs::names::kServeJobsRejected) + "\":2";
  EXPECT_NE(back.countersRaw.find(accepted), std::string::npos);
  EXPECT_NE(back.countersRaw.find(rejected), std::string::npos);
}

TEST(ServeCodec, MalformedFramesReportInvalidNeverCrash) {
  const char* cases[] = {
      "",
      "not json",
      "{",
      "[]",
      "{\"v\":\"cpr.serve.v1\"}",                      // no op
      "{\"v\":\"wrong.version\",\"op\":\"ping\"}",     // bad version
      "{\"op\":\"ping\"}",                             // missing version
      "{\"v\":\"cpr.serve.v1\",\"op\":\"teleport\"}",  // unknown op
      "{\"v\":\"cpr.serve.v1\",\"op\":\"route\"}",     // no id
      "{\"v\":\"cpr.serve.v1\",\"op\":\"route\",\"id\":\"x\"}",  // no design
      "{\"v\":\"cpr.serve.v1\",\"op\":\"route\",\"id\":\"x\","
      "\"design\":\"ecc\",\"def\":\"both\"}",          // both sources
      "{\"v\":\"cpr.serve.v1\",\"op\":\"route\",\"id\":\"x\","
      "\"design\":\"ecc\",\"scheme\":\"warp\"}",       // bad scheme
      "{\"v\":\"cpr.serve.v1\",\"op\":\"route\",\"id\":\"x\","
      "\"design\":\"ecc\",\"budget_seconds\":-1}",     // negative budget
      "{\"v\":\"cpr.serve.v1\",\"op\":\"route\",\"id\":\"x\","
      "\"design\":\"ecc\",\"budget_seconds\":1e99}",   // absurd budget
      "{\"key\":}",
      "{\"key\":\"unterminated",
      "{\"key\":\"bad\\escape\"}",
      "{\"a\":1,}",
      "{\"a\":1}trailing",
      "{\"a\":{\"deep\":[{\"un\":\"balanced\"}]}",     // missing brace
  };
  for (const char* line : cases) {
    const Request req = decodeRequest(line);
    EXPECT_EQ(req.kind, Request::Kind::Invalid) << line;
    EXPECT_FALSE(req.error.empty()) << line;
  }
}

TEST(ServeCodec, PinAccessNamesComeFromTheMethodTable) {
  const std::string head =
      "{\"v\":\"cpr.serve.v1\",\"op\":\"route\",\"id\":\"x\","
      "\"design\":\"ecc\",\"pin_access\":";
  for (const char* ok : {"lr", "ilp"}) {
    const Request req = decodeRequest(head + "\"" + ok + "\"}");
    ASSERT_EQ(req.kind, Request::Kind::Route) << ok << ": " << req.error;
    EXPECT_EQ(req.route.pinAccess, ok);
  }
  // A name outside the table, the retired "generic" included, is rejected
  // with a diagnostic.
  const Request req = decodeRequest(head + "\"generic\"}");
  EXPECT_EQ(req.kind, Request::Kind::Invalid);
  EXPECT_NE(req.error.find("unknown pin_access \"generic\""),
            std::string::npos)
      << req.error;
}

TEST(ServeCodec, UnknownKeysAndNestedValuesAreTolerated) {
  const Request req = decodeRequest(
      "{\"v\":\"cpr.serve.v1\",\"op\":\"route\",\"id\":\"x\","
      "\"design\":\"ecc\",\"future_field\":{\"a\":[1,2,{}]},\"flag\":true,"
      "\"unicode\":\"\\u0041\\u00e9\"}");
  EXPECT_EQ(req.kind, Request::Kind::Route) << req.error;
}

TEST(ServeCodec, DuplicateKeysKeepTheLastValueAcrossTypes) {
  // Same type: last wins (always worked).
  const Request sameType = decodeRequest(
      "{\"v\":\"cpr.serve.v1\",\"op\":\"stats\",\"op\":\"ping\"}");
  EXPECT_EQ(sameType.kind, Request::Kind::Ping);
  // String then number: the number must EVICT the stale string — a stale
  // "ping" here would silently turn a malformed frame into a valid op.
  const Request strThenNum = decodeRequest(
      "{\"v\":\"cpr.serve.v1\",\"op\":\"ping\",\"op\":5}");
  EXPECT_EQ(strThenNum.kind, Request::Kind::Invalid);
  EXPECT_NE(strThenNum.error.find("missing \"op\""), std::string::npos)
      << strThenNum.error;
  // Number then string: the string occurrence is the one that counts.
  const Request numThenStr = decodeRequest(
      "{\"v\":\"cpr.serve.v1\",\"op\":5,\"op\":\"ping\"}");
  EXPECT_EQ(numThenStr.kind, Request::Kind::Ping) << numThenStr.error;
  // Number fields shadowed by a later string are gone, not stale: the
  // budget falls back to "unset", it does not read the first occurrence.
  const Request budget = decodeRequest(
      "{\"v\":\"cpr.serve.v1\",\"op\":\"route\",\"id\":\"x\","
      "\"design\":\"ecc\",\"budget_seconds\":4.5,\"budget_seconds\":\"x\"}");
  ASSERT_EQ(budget.kind, Request::Kind::Route) << budget.error;
  EXPECT_DOUBLE_EQ(budget.route.budgetSeconds, 0.0);
  // Raw (nested) values participate in the same namespace.
  const Reply stats = decodeReply(
      "{\"v\":\"cpr.serve.v1\",\"event\":\"stats\","
      "\"counters\":{\"a\":1},\"counters\":\"gone\"}");
  ASSERT_EQ(stats.kind, Reply::Kind::Stats);
  EXPECT_TRUE(stats.countersRaw.empty()) << stats.countersRaw;
}

// ---------------------------------------------------------------- queue --

Job makeJob(std::string id, Priority prio, std::uint64_t serial) {
  Job j;
  j.request.id = std::move(id);
  j.request.priority = prio;
  j.serial = serial;
  return j;
}

TEST(ServeQueue, AdmitsUpToLaneCapacityThenRejects) {
  BoundedJobQueue q(2);
  std::size_t lastDepth = 0;
  const auto onAdmit = [&](std::size_t d) { lastDepth = d; };
  EXPECT_TRUE(q.tryPush(makeJob("a", Priority::Batch, 0), onAdmit));
  EXPECT_TRUE(q.tryPush(makeJob("b", Priority::Batch, 1), onAdmit));
  EXPECT_EQ(lastDepth, 2U);
  EXPECT_FALSE(q.tryPush(makeJob("c", Priority::Batch, 2), onAdmit));
  // Lanes are bounded independently: interactive still has room.
  EXPECT_TRUE(q.tryPush(makeJob("d", Priority::Interactive, 3), onAdmit));
  EXPECT_EQ(q.depth(), 3U);
  EXPECT_EQ(q.peakDepth(), 3U);
}

TEST(ServeQueue, InteractiveLanePopsBeforeBatch) {
  BoundedJobQueue q(4);
  ASSERT_TRUE(q.tryPush(makeJob("batch1", Priority::Batch, 0)));
  ASSERT_TRUE(q.tryPush(makeJob("batch2", Priority::Batch, 1)));
  ASSERT_TRUE(q.tryPush(makeJob("inter1", Priority::Interactive, 2)));
  std::optional<Job> j = q.pop();
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->request.id, "inter1");
  j = q.pop();
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->request.id, "batch1");
}

TEST(ServeQueue, RetryIsInvisibleUntilItsBackoffExpires) {
  BoundedJobQueue q(4);
  Job retry = makeJob("retry", Priority::Batch, 0);
  retry.readyAt = support::Deadline::after(0.05);
  ASSERT_TRUE(q.pushRetry(std::move(retry)));
  ASSERT_TRUE(q.tryPush(makeJob("fresh", Priority::Batch, 1)));
  // The fresh job pops first even though the retry is ahead of it.
  std::optional<Job> j = q.pop();
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->request.id, "fresh");
  // The retry becomes eligible once its gate expires; pop blocks until then.
  j = q.pop();
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->request.id, "retry");
  EXPECT_TRUE(j->readyAt.expired());
}

TEST(ServeQueue, PushRetryBypassesCapacity) {
  BoundedJobQueue q(1);
  ASSERT_TRUE(q.tryPush(makeJob("a", Priority::Batch, 0)));
  EXPECT_FALSE(q.tryPush(makeJob("b", Priority::Batch, 1)));
  EXPECT_TRUE(q.pushRetry(makeJob("r", Priority::Batch, 2)));
  EXPECT_EQ(q.depth(), 2U);
}

TEST(ServeQueue, CloseUnblocksAPopBlockedOnAnEmptyQueue) {
  BoundedJobQueue q(4);
  std::thread popper([&] { EXPECT_FALSE(q.pop().has_value()); });
  // No sequencing needed: whether pop is already parked in its wait or has
  // not reached it yet, close() must make it return nullopt.
  q.close();
  popper.join();
}

TEST(ServeQueue, PopAfterCloseYieldsNothingAndDrainReturnsAdmissionOrder) {
  BoundedJobQueue q(4);
  ASSERT_TRUE(q.tryPush(makeJob("b0", Priority::Batch, 0)));
  ASSERT_TRUE(q.tryPush(makeJob("i1", Priority::Interactive, 1)));
  ASSERT_TRUE(q.tryPush(makeJob("b2", Priority::Batch, 2)));
  q.close();
  // After close, pop returns nullopt even though jobs remain: leftovers
  // belong to drainRemaining, not to workers.
  EXPECT_FALSE(q.pop().has_value());
  const std::vector<Job> drained = q.drainRemaining();
  ASSERT_EQ(drained.size(), 3U);
  EXPECT_EQ(drained[0].request.id, "b0");
  EXPECT_EQ(drained[1].request.id, "i1");
  EXPECT_EQ(drained[2].request.id, "b2");
  EXPECT_FALSE(q.tryPush(makeJob("late", Priority::Batch, 3)));
  EXPECT_FALSE(q.pushRetry(makeJob("late2", Priority::Batch, 4)));
}

// -------------------------------------------------------------- backoff --

TEST(Backoff, GrowsExponentiallyAndSaturates) {
  support::BackoffPolicy p;
  p.jitterFraction = 0.0;  // isolate the growth curve
  EXPECT_DOUBLE_EQ(p.delaySeconds(1, 0), 0.05);
  EXPECT_DOUBLE_EQ(p.delaySeconds(2, 0), 0.10);
  EXPECT_DOUBLE_EQ(p.delaySeconds(3, 0), 0.20);
  EXPECT_DOUBLE_EQ(p.delaySeconds(20, 0), p.maxSeconds);
  EXPECT_DOUBLE_EQ(p.delaySeconds(0, 0), 0.05);  // clamped to attempt 1
}

TEST(Backoff, JitterIsDeterministicAndBounded) {
  support::BackoffPolicy p;
  for (std::uint64_t noise = 0; noise < 64; ++noise) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      const double a = p.delaySeconds(attempt, noise);
      const double b = p.delaySeconds(attempt, noise);
      EXPECT_DOUBLE_EQ(a, b) << "jitter must be a pure function";
      support::BackoffPolicy flat = p;
      flat.jitterFraction = 0.0;
      const double base = flat.delaySeconds(attempt, noise);
      EXPECT_GE(a, base * (1.0 - p.jitterFraction) - 1e-12);
      EXPECT_LE(a, base * (1.0 + p.jitterFraction) + 1e-12);
    }
  }
  // Different noise must actually spread retries out (not all identical).
  const double d1 = p.delaySeconds(1, 1);
  const double d2 = p.delaySeconds(1, 2);
  EXPECT_NE(d1, d2);
}

// ------------------------------------------------------------ exit codes --

TEST(ExitCodes, TableCoversEveryStatusCode) {
  using support::StatusCode;
  EXPECT_EQ(cli::exitCodeFor(StatusCode::Ok), 0);
  EXPECT_EQ(cli::exitCodeFor(StatusCode::Infeasible), 3);
  EXPECT_EQ(cli::exitCodeFor(StatusCode::Degraded), 4);
  EXPECT_EQ(cli::exitCodeFor(StatusCode::TimedOut), 4);
  EXPECT_EQ(cli::exitCodeFor(StatusCode::Failed), 5);
  EXPECT_EQ(cli::exitCodeFor(StatusCode::Cancelled), 6);
}

TEST(ExitCodes, CprRouteRejectsRetiredPinAccessAsUsageError) {
  // The same name table guards the CLI: validated before any design is
  // built, so the retired value fails fast with the usage exit code.
  const std::string cmd = std::string(CPR_ROUTE_BIN) +
                          " --design ecc --pin-access generic 2>/dev/null";
  const int raw = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(raw)) << raw;
  EXPECT_EQ(WEXITSTATUS(raw), 2);
}

TEST(ExitCodes, StatusNamesRoundTripThroughTheWireFormat) {
  using support::StatusCode;
  for (const StatusCode code :
       {StatusCode::Ok, StatusCode::Degraded, StatusCode::TimedOut,
        StatusCode::Infeasible, StatusCode::Failed, StatusCode::Cancelled}) {
    EXPECT_EQ(support::statusCodeFromName(support::statusCodeName(code)),
              code);
  }
  EXPECT_EQ(support::statusCodeFromName("garbage"),
            StatusCode::Failed);  // conservative default
}

TEST(Status, CancelledIsAFailureWithNoResult) {
  const support::Status st = support::Status::cancelled("queue full");
  EXPECT_EQ(st.code(), support::StatusCode::Cancelled);
  EXPECT_TRUE(st.isFailure());
  EXPECT_EQ(st.toString(), "cancelled (queue full)");
}

}  // namespace
}  // namespace cpr::serve
