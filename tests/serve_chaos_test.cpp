/// \file serve_chaos_test.cpp
/// Chaos harness for the routing service (DESIGN.md §14).
///
/// An in-process Server is flooded with hundreds of pipelined jobs over a
/// handful of connections while faults are injected through the public
/// seams: a throwing pin access solver (ServerOptions::solverHook), a
/// pre-route hook that poisons selected jobs, corrupt DEF payloads, unknown
/// design names, and budgets that are already expired on arrival. The
/// daemon must never crash, every submitted id must get exactly one
/// terminal frame, queue-full rejections must surface as Cancelled, and a
/// clean job's digest must be bit-identical to running the same pipeline
/// directly — the service adds fault containment, not nondeterminism.
///
/// The flood size defaults to 200 jobs; CI's chaos job can raise it with
/// CPR_SERVE_CHAOS_JOBS.
#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "core/solver.h"
#include "gen/generator.h"
#include "lefdef/def_io.h"
#include "obs/names.h"
#include "route/cpr.h"
#include "route/result.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/status.h"

namespace cpr::serve {
namespace {

// ---- fault injection ------------------------------------------------------

constexpr std::uint64_t kFaultSeed = 0xc0ffee123456789ULL;

/// splitmix64-style finalizer: faults are a pure function of the panel
/// index, so clean-job digests stay deterministic under any schedule.
std::uint64_t mix(std::uint64_t x) {
  x += kFaultSeed;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Throws on ~a quarter of all panels; healthy panels delegate to the real
/// LR solver. Injected through ServerOptions::solverHook, the same seam
/// production uses — the optimizer's degradation ladder absorbs the faults
/// and the job still completes (Degraded), which is exactly the containment
/// this harness is checking.
class ChaosSolver final : public core::Solver {
 public:
  using Solver::solve;
  [[nodiscard]] std::string_view name() const override { return "chaos"; }
  [[nodiscard]] core::Assignment solve(
      const core::PanelKernel& k, core::PanelScratch* scratch,
      obs::Collector* obs, support::Deadline deadline) const override {
    const int panel = obs ? obs->src() : 0;
    if ((mix(static_cast<std::uint64_t>(panel)) & 3U) == 0)
      throw std::runtime_error("injected panel fault");
    return inner_.solve(k, scratch, obs, deadline);
  }

 private:
  core::LrSolver inner_;
};

/// Throws on every panel, so every panel is recovered by the LR rung.
class AlwaysThrowingSolver final : public core::Solver {
 public:
  using Solver::solve;
  [[nodiscard]] std::string_view name() const override { return "throwing"; }
  [[nodiscard]] core::Assignment solve(const core::PanelKernel&,
                                       core::PanelScratch*, obs::Collector*,
                                       support::Deadline) const override {
    throw std::runtime_error("injected panel fault");
  }
};

// ---- harness helpers ------------------------------------------------------

std::string uniqueSocketPath(const char* tag) {
  static std::atomic<int> n{0};
  return "/tmp/cpr_chaos_" + std::to_string(::getpid()) + "_" + tag +
         std::to_string(n.fetch_add(1)) + ".sock";
}

/// A design small enough that one job is a few milliseconds: the flood has
/// to outrun the workers to exercise admission control.
std::string tinyDefText() {
  gen::GenOptions o;
  o.seed = 11;
  o.width = 48;
  o.numRows = 4;
  o.pinDensity = 0.18;
  o.maxNetSpan = 12;
  std::ostringstream os;
  lefdef::writeDef(gen::generate(o), os);
  return os.str();
}

std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xFU];
    v >>= 4;
  }
  return out;
}

/// What the service should produce for a clean job: the same pipeline, run
/// directly, faults and all.
std::string referenceDigest(const std::string& defText,
                            std::shared_ptr<const core::Solver> hook) {
  std::istringstream is(defText);
  const db::Design d = lefdef::readDef(is);
  route::CprOptions o;
  o.routing.threads = 1;
  o.pinAccess.threads = 1;
  o.pinAccess.solver = std::move(hook);
  const route::CprResult c = route::routeCpr(d, o);
  return hex16(route::resultDigest(c.routing));
}

RouteRequest defJob(std::string id, const std::string& defText,
                    Priority priority = Priority::Batch) {
  RouteRequest r;
  r.id = std::move(id);
  r.defText = defText;
  r.priority = priority;
  return r;
}

// ---- the flood ------------------------------------------------------------

TEST(ServeChaos, FloodWithInjectedFaultsLeavesEveryJobTerminal) {
  const std::string def = tinyDefText();
  auto chaos = std::make_shared<ChaosSolver>();
  const std::string wantDigest = referenceDigest(def, chaos);

  ServerOptions so;
  so.socketPath = uniqueSocketPath("flood");
  so.workers = 3;
  so.laneCapacity = 8;
  so.defaultBudgetSeconds = 20.0;
  so.maxJobSeconds = 30.0;
  so.maxRetries = 1;
  so.minRetryBudgetSeconds = 10.0;
  so.jobThreads = 1;
  so.solverHook = chaos;
  so.preRouteHook = [](const RouteRequest& r, int) {
    if (r.id.rfind("poison", 0) == 0)
      throw std::runtime_error("injected pre-route fault");
  };
  Server server(std::move(so));
  ASSERT_TRUE(server.start().isOk());

  int flood = 200;
  if (const char* env = std::getenv("CPR_SERVE_CHAOS_JOBS")) {
    const long asked = std::strtol(env, nullptr, 10);
    flood = std::max(flood, static_cast<int>(std::min(asked, 100000L)));
  }

  constexpr int kConns = 8;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.push_back(std::make_unique<Client>());
    ASSERT_TRUE(clients.back()->connect(server.socketPath()).isOk());
  }

  // Five job flavours, round-robin over the connections. Expired-budget
  // jobs ride the interactive lane so both lanes see admission pressure.
  std::vector<std::vector<std::string>> idsOf(kConns);
  for (int k = 0; k < flood; ++k) {
    const std::string n = std::to_string(k);
    RouteRequest r;
    switch (k % 5) {
      case 0: r = defJob("clean" + n, def); break;
      case 1: r = defJob("corrupt" + n, "DESIGN garbage ((("); break;
      case 2:
        r = defJob("rush" + n, def, Priority::Interactive);
        r.budgetSeconds = 1e-4;  // expired on arrival -> TimedOut -> retry
        break;
      case 3: r = defJob("poison" + n, def); break;
      default:
        r.id = "ghost" + n;
        r.design = "no_such_design";
        break;
    }
    Client& cl = *clients[static_cast<std::size_t>(k % kConns)];
    ASSERT_TRUE(cl.sendLine(encodeRouteRequest(r)));
    idsOf[static_cast<std::size_t>(k % kConns)].push_back(r.id);
  }

  // Demultiplex every connection until each of its jobs is terminal. A
  // hang here IS the failure mode this harness exists to catch — a job the
  // daemon lost — so the test relies on ctest's timeout, not its own.
  std::map<std::string, JobResult> terminal;
  long retryingEvents = 0;
  for (int c = 0; c < kConns; ++c) {
    std::size_t open = idsOf[static_cast<std::size_t>(c)].size();
    std::string line;
    while (open > 0 &&
           clients[static_cast<std::size_t>(c)]->readLine(line)) {
      const Reply reply = decodeReply(line);
      ASSERT_NE(reply.kind, Reply::Kind::Invalid) << line;
      if (reply.kind == Reply::Kind::Event &&
          reply.event == obs::names::kServeEvRetrying) {
        ++retryingEvents;
      }
      if (reply.kind != Reply::Kind::Result) continue;
      ASSERT_EQ(terminal.count(reply.result.id), 0U)
          << "two terminal frames for " << reply.result.id;
      terminal[reply.result.id] = reply.result;
      --open;
    }
    EXPECT_EQ(open, 0U) << "connection " << c << " lost jobs";
  }

  // Every id terminal, each flavour contained as specified.
  long completed = 0;
  long failedJobs = 0;
  long rejected = 0;
  long cleanServed = 0;
  for (int k = 0; k < flood; ++k) {
    const std::string n = std::to_string(k);
    const char* head = (k % 5 == 0)   ? "clean"
                       : (k % 5 == 1) ? "corrupt"
                       : (k % 5 == 2) ? "rush"
                       : (k % 5 == 3) ? "poison"
                                      : "ghost";
    const auto it = terminal.find(head + n);
    ASSERT_NE(it, terminal.end()) << head << n << " never became terminal";
    const JobResult& r = it->second;
    if (r.event == obs::names::kServeEvRejected) {
      ++rejected;
      EXPECT_EQ(r.status, "cancelled") << r.id;
      EXPECT_NE(r.detail.find("queue full"), std::string::npos) << r.id;
      continue;
    }
    if (r.event == obs::names::kServeEvFailed) ++failedJobs;
    if (r.event == obs::names::kServeEvCompleted) ++completed;
    switch (k % 5) {
      case 0:  // clean: served, deterministic digest, first attempt
        ASSERT_EQ(r.event, obs::names::kServeEvCompleted) << r.detail;
        EXPECT_EQ(r.status, "degraded") << r.id;  // chaos solver faults
        EXPECT_EQ(r.digest, wantDigest) << r.id;
        EXPECT_EQ(r.attempts, 1) << r.id;
        EXPECT_GT(r.routability, 0.0) << r.id;
        ++cleanServed;
        break;
      case 1:  // corrupt DEF: parse error folded to Infeasible
        EXPECT_EQ(r.event, obs::names::kServeEvFailed) << r.id;
        EXPECT_EQ(r.status, "infeasible") << r.id;
        break;
      case 2:  // expired budget: retried once, then served
        EXPECT_EQ(r.event, obs::names::kServeEvCompleted) << r.detail;
        EXPECT_EQ(r.attempts, 2) << r.id;
        break;
      case 3:  // poisoned hook: contained as a Failed terminal
        EXPECT_EQ(r.event, obs::names::kServeEvFailed) << r.id;
        EXPECT_EQ(r.status, "failed") << r.id;
        EXPECT_NE(r.detail.find("injected pre-route fault"),
                  std::string::npos)
            << r.id;
        break;
      default:  // unknown suite name: Infeasible, not a crash
        EXPECT_EQ(r.event, obs::names::kServeEvFailed) << r.id;
        EXPECT_EQ(r.status, "infeasible") << r.id;
        break;
    }
  }
  EXPECT_EQ(completed + failedJobs + rejected, flood);
  EXPECT_GT(rejected, 0) << "flood never hit admission control";
  EXPECT_GT(cleanServed, 0) << "admission control served nothing";
  EXPECT_GT(retryingEvents, 0);

  // The daemon is still healthy: a fresh connection gets a pong, and the
  // server's own ledger matches the client-side tally.
  Client probe;
  ASSERT_TRUE(probe.connect(server.socketPath()).isOk());
  ASSERT_TRUE(probe.sendLine(encodePing()));
  std::string line;
  ASSERT_TRUE(probe.readLine(line));
  EXPECT_EQ(decodeReply(line).kind, Reply::Kind::Pong);

  const obs::Collector stats = server.statsSnapshot();
  EXPECT_EQ(stats.counter(obs::names::kServeJobsRejected), rejected);
  EXPECT_EQ(stats.counter(obs::names::kServeJobsCompleted), completed);
  EXPECT_EQ(stats.counter(obs::names::kServeJobsFailed), failedJobs);
  EXPECT_EQ(stats.counter(obs::names::kServeJobsAccepted),
            completed + failedJobs);
  EXPECT_EQ(stats.counter(obs::names::kServeJobsRetried), retryingEvents);

  server.stop();
}

// ---- targeted failure modes ----------------------------------------------

TEST(ServeChaos, MalformedFrameGetsAnErrorAndTheConnectionSurvives) {
  ServerOptions so;
  so.socketPath = uniqueSocketPath("frames");
  so.workers = 1;
  Server server(std::move(so));
  ASSERT_TRUE(server.start().isOk());

  Client c;
  ASSERT_TRUE(c.connect(server.socketPath()).isOk());
  ASSERT_TRUE(c.sendLine("this is not json"));
  std::string line;
  ASSERT_TRUE(c.readLine(line));
  const Reply err = decodeReply(line);
  EXPECT_EQ(err.kind, Reply::Kind::Error);
  EXPECT_NE(err.detail.find("bad frame"), std::string::npos);

  // Same connection, real work: one bad line must not kill the session.
  const auto out = runJob(c, defJob("after-garbage", tinyDefText()));
  ASSERT_TRUE(out.isOk()) << out.status().message();
  EXPECT_EQ(out.value().event, obs::names::kServeEvCompleted);
  EXPECT_EQ(out.value().status, "ok");
  server.stop();
}

TEST(ServeChaos, DegradedDetailCountsEachFaultedPanelOnce) {
  const std::string def = tinyDefText();
  auto hook = std::make_shared<AlwaysThrowingSolver>();
  // The design's panel count, from the pin access stage run directly.
  std::istringstream is(def);
  const db::Design d = lefdef::readDef(is);
  core::OptimizerOptions oo;
  oo.threads = 1;
  oo.solver = hook;
  const core::PinAccessPlan plan = core::optimizePinAccess(d, oo);
  const long panels = plan.stats.counter(obs::names::kPaoPanels);
  ASSERT_GT(panels, 0);
  EXPECT_EQ(plan.panelsBelowPrimary(), panels);

  ServerOptions so;
  so.socketPath = uniqueSocketPath("degraded");
  so.workers = 1;
  so.jobThreads = 1;
  so.solverHook = hook;
  Server server(std::move(so));
  ASSERT_TRUE(server.start().isOk());
  Client c;
  ASSERT_TRUE(c.connect(server.socketPath()).isOk());
  const auto out = runJob(c, defJob("all-faulted", def));
  ASSERT_TRUE(out.isOk()) << out.status().message();
  EXPECT_EQ(out.value().status, "degraded");
  // Each faulted panel is one failed panel, not also one fallback.
  EXPECT_EQ(out.value().detail,
            std::to_string(panels) +
                " pin access panel(s) fell below the primary solver");
  server.stop();
}

TEST(ServeChaos, QueueFullRejectionsAreCancelledAndDeterministic) {
  ServerOptions so;
  so.socketPath = uniqueSocketPath("full");
  so.workers = 1;
  so.laneCapacity = 1;
  // Pin the only worker so the lane genuinely backs up.
  so.preRouteHook = [](const RouteRequest&, int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  };
  Server server(std::move(so));
  ASSERT_TRUE(server.start().isOk());

  const std::string def = tinyDefText();
  Client c;
  ASSERT_TRUE(c.connect(server.socketPath()).isOk());
  constexpr int kJobs = 6;
  for (int k = 0; k < kJobs; ++k)
    ASSERT_TRUE(c.sendLine(encodeRouteRequest(defJob("q" + std::to_string(k), def))));

  int rejected = 0;
  int seenTerminal = 0;
  std::string line;
  while (seenTerminal < kJobs && c.readLine(line)) {
    const Reply r = decodeReply(line);
    if (r.kind != Reply::Kind::Result) continue;
    ++seenTerminal;
    if (r.result.event != obs::names::kServeEvRejected) continue;
    ++rejected;
    EXPECT_EQ(r.result.status, "cancelled") << r.result.id;
    EXPECT_NE(r.result.detail.find("queue full: batch lane"),
              std::string::npos)
        << r.result.detail;
  }
  EXPECT_EQ(seenTerminal, kJobs);
  // One job reaches the worker; the lane holds at most one more (whether
  // it does depends on when the worker pops). Everything else bounced.
  EXPECT_GE(rejected, kJobs - 2);
  EXPECT_LE(rejected, kJobs - 1);
  server.stop();
}

TEST(ServeChaos, StopDrainsQueuedJobsToCancelledTerminals) {
  ServerOptions so;
  so.socketPath = uniqueSocketPath("drain");
  so.workers = 1;
  so.laneCapacity = 8;
  so.preRouteHook = [](const RouteRequest&, int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  Server server(std::move(so));
  ASSERT_TRUE(server.start().isOk());

  const std::string def = tinyDefText();
  Client c;
  ASSERT_TRUE(c.connect(server.socketPath()).isOk());
  constexpr int kJobs = 5;
  for (int k = 0; k < kJobs; ++k)
    ASSERT_TRUE(c.sendLine(encodeRouteRequest(defJob("d" + std::to_string(k), def))));
  // Let the first job reach the worker, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.stop();

  int completed = 0;
  int cancelled = 0;
  std::string line;
  while (c.readLine(line)) {
    const Reply r = decodeReply(line);
    if (r.kind != Reply::Kind::Result) continue;
    if (r.result.event == obs::names::kServeEvCompleted) {
      ++completed;
      continue;
    }
    EXPECT_EQ(r.result.event, obs::names::kServeEvRejected);
    EXPECT_EQ(r.result.status, "cancelled");
    EXPECT_NE(r.result.detail.find("shutting down"), std::string::npos);
    ++cancelled;
  }  // readLine returns false at EOF: stop() really closed the socket
  EXPECT_EQ(completed + cancelled, kJobs);
  // In-flight work finished; everything still queued was cancelled.
  EXPECT_GE(completed, 1);
  EXPECT_GE(cancelled, 1);
}

/// Open fds of this process, via /proc/self/fd (the tree is Linux-only).
int countOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

TEST(ServeChaos, ClosedConnectionsAreReapedNotLeaked) {
  ServerOptions so;
  so.socketPath = uniqueSocketPath("reap");
  so.workers = 1;
  Server server(std::move(so));
  ASSERT_TRUE(server.start().isOk());

  // Warm up one connect/disconnect cycle so anything allocated lazily on
  // the first connection is part of the baseline.
  {
    Client c;
    ASSERT_TRUE(c.connect(server.socketPath()).isOk());
    ASSERT_TRUE(c.sendLine(encodePing()));
    std::string line;
    ASSERT_TRUE(c.readLine(line));
  }
  const int before = countOpenFds();
  ASSERT_GT(before, 0);

  // A long-lived daemon serves many short-lived connections: each cycle
  // must not leave behind the server-side fd (or its reader thread).
  constexpr int kCycles = 40;
  for (int k = 0; k < kCycles; ++k) {
    Client c;
    ASSERT_TRUE(c.connect(server.socketPath()).isOk());
    ASSERT_TRUE(c.sendLine(encodePing()));
    std::string line;
    ASSERT_TRUE(c.readLine(line));
  }
  // Readers notice EOF asynchronously; poll briefly for the fds to drain.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int after = countOpenFds();
  while (after > before + 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    after = countOpenFds();
  }
  EXPECT_LE(after, before + 4)
      << "closed connections leaked fds (before=" << before << ")";
  server.stop();
}

TEST(ServeChaos, ClientVanishingMidJobDoesNotWedgeTheWorkers) {
  ServerOptions so;
  so.socketPath = uniqueSocketPath("vanish");
  so.workers = 1;
  so.sendTimeoutSeconds = 2.0;
  so.preRouteHook = [](const RouteRequest&, int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  Server server(std::move(so));
  ASSERT_TRUE(server.start().isOk());

  const std::string def = tinyDefText();
  {
    Client goner;
    ASSERT_TRUE(goner.connect(server.socketPath()).isOk());
    ASSERT_TRUE(goner.sendLine(encodeRouteRequest(defJob("goner", def))));
  }  // gone before its frames come back: every send hits a dead socket

  // The single worker must shrug that off and serve a live client.
  Client alive;
  ASSERT_TRUE(alive.connect(server.socketPath()).isOk());
  const auto out = runJob(alive, defJob("alive", def));
  ASSERT_TRUE(out.isOk()) << out.status().message();
  EXPECT_EQ(out.value().event, obs::names::kServeEvCompleted);
  server.stop();
}

TEST(ServeChaos, ConcurrentStopDoesNotRaceDestruction) {
  // The daemon's shutdown shape: a signal thread initiates stop() while
  // the owning thread wakes, calls stop() itself, and then DESTROYS the
  // server the moment its call returns. The owner's stop() must therefore
  // block until the signal thread's teardown is completely done — under
  // ASan, a stop() that returns early here is a use-after-free.
  for (int round = 0; round < 3; ++round) {
    ServerOptions so;
    so.socketPath = uniqueSocketPath("cstop");
    so.workers = 2;
    so.preRouteHook = [](const RouteRequest&, int) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    };
    auto server = std::make_unique<Server>(std::move(so));
    ASSERT_TRUE(server->start().isOk());

    Client c;
    ASSERT_TRUE(c.connect(server->socketPath()).isOk());
    const std::string def = tinyDefText();
    for (int k = 0; k < 3; ++k)
      ASSERT_TRUE(c.sendLine(
          encodeRouteRequest(defJob("cs" + std::to_string(k), def))));

    std::thread sig([&server] { server->stop(); });
    server->waitForShutdownRequest();  // wakes once sig's stop() begins
    server->stop();                    // must block until teardown is done
    server.reset();                    // safe exactly because it blocked
    sig.join();
  }
}

TEST(ServeChaos, RequestShutdownWakesTheOwningThread) {
  ServerOptions so;
  so.socketPath = uniqueSocketPath("reqstop");
  so.workers = 1;
  Server server(std::move(so));
  ASSERT_TRUE(server.start().isOk());
  std::thread sig([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.requestShutdown();  // what the daemon's sigwait thread does
  });
  server.waitForShutdownRequest();
  server.stop();
  sig.join();
}

TEST(ServeChaos, TimedOutJobRetriesOnceAtLowerFidelity) {
  std::mutex mu;
  std::vector<std::pair<int, core::Method>> attempts;
  ServerOptions so;
  so.socketPath = uniqueSocketPath("retry");
  so.workers = 1;
  so.maxRetries = 1;
  so.minRetryBudgetSeconds = 20.0;  // the retry must not time out again
  so.preRouteHook = [&](const RouteRequest& r, int attempt) {
    const std::unique_lock<std::mutex> lock(mu);
    attempts.emplace_back(attempt, r.pinAccess);
  };
  Server server(std::move(so));
  ASSERT_TRUE(server.start().isOk());

  Client c;
  ASSERT_TRUE(c.connect(server.socketPath()).isOk());
  RouteRequest r = defJob("rushed", tinyDefText());
  r.pinAccess = core::Method::Ilp;
  r.budgetSeconds = 1e-4;  // expired before the worker even starts

  std::vector<Reply> events;
  const auto out = runJob(c, r, &events);
  ASSERT_TRUE(out.isOk()) << out.status().message();
  EXPECT_EQ(out.value().event, obs::names::kServeEvCompleted);
  EXPECT_EQ(out.value().attempts, 2);
  EXPECT_TRUE(out.value().status == "ok" || out.value().status == "degraded")
      << out.value().status;

  bool sawRetrying = false;
  for (const Reply& e : events)
    sawRetrying |= e.event == obs::names::kServeEvRetrying;
  EXPECT_TRUE(sawRetrying);

  // The second attempt dropped the expensive pin access method.
  const std::unique_lock<std::mutex> lock(mu);
  ASSERT_EQ(attempts.size(), 2U);
  EXPECT_EQ(attempts[0], (std::pair<int, core::Method>{1, core::Method::Ilp}));
  EXPECT_EQ(attempts[1], (std::pair<int, core::Method>{2, core::Method::Lr}));
  server.stop();
}

TEST(ServeChaos, TimedOutNoPaoJobRetriesWithClampedNegotiation) {
  ServerOptions so;
  so.socketPath = uniqueSocketPath("retry-nopao");
  so.workers = 1;
  so.maxRetries = 1;
  so.minRetryBudgetSeconds = 20.0;  // the retry must not time out again
  Server server(std::move(so));
  ASSERT_TRUE(server.start().isOk());

  Client c;
  ASSERT_TRUE(c.connect(server.socketPath()).isOk());
  RouteRequest r;
  r.id = "rushed-nopao";
  r.design = "ecc";
  r.scheme = route::Scheme::NoPao;
  r.budgetSeconds = 1e-4;  // expired before the worker even starts
  const auto out = runJob(c, r);
  ASSERT_TRUE(out.isOk()) << out.status().message();
  EXPECT_EQ(out.value().event, obs::names::kServeEvCompleted);
  EXPECT_EQ(out.value().attempts, 2);
  EXPECT_EQ(out.value().status, "ok");
  server.stop();

  // The retry ran the same negotiation a direct call with the round cap
  // clamped to 6 runs (ecc runs all 20 rounds unclamped, another digest).
  const db::Design d = gen::makeSuiteDesign(gen::suiteSpec("ecc"), 7);
  route::NegotiationOptions o;
  o.maxRrrIterations = 6;
  EXPECT_EQ(out.value().digest,
            hex16(route::resultDigest(route::routeNegotiated(d, nullptr, o))));
}

}  // namespace
}  // namespace cpr::serve
