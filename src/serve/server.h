/// \file server.h
/// The routing service: a long-lived daemon around the compile→solve→route
/// pipeline. DESIGN.md §14 ("Service failure model") is the contract this
/// header implements.
///
/// Topology: one accept thread, one reader thread per connection, and a
/// fixed set of job worker threads pulling from a `BoundedJobQueue`.
/// Readers do only cheap work (frame decode, admission); every expensive or
/// fallible stage — DEF parse, validation, pin access, routing — runs on a
/// worker, inside a catch-all boundary. The failure containment ladder:
///
///   - malformed frame        -> error frame, connection stays up
///   - queue lane full        -> serve.job.rejected (Cancelled), accept
///                               loop never blocks
///   - bad DEF / invalid design -> serve.job.failed (Infeasible)
///   - job deadline fired     -> one retry at lower fidelity with
///                               exponential-backoff + jitter delay, then
///                               serve.job.completed (TimedOut) with the
///                               incumbent result
///   - anything thrown        -> serve.job.failed (Failed); the daemon and
///                               the connection survive — a poisoned job is
///                               one terminal frame, never a crash
///   - shutdown               -> queue drains to Cancelled terminals, every
///                               in-flight job finishes, then sockets close
///
/// Every job's budget is composed at admission via `Deadline::soonerOf`
/// from the client's requested budget and the server-wide watchdog cap, so
/// no request can hold a worker longer than `maxJobSeconds`.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/solver.h"
#include "obs/collector.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "support/backoff.h"
#include "support/status.h"
#include "support/thread_annotations.h"

namespace cpr::serve {

struct ServerOptions {
  std::string socketPath;  ///< AF_UNIX path; unlinked on bind and on stop
  int workers = 2;         ///< job worker threads
  std::size_t laneCapacity = 8;  ///< admission bound per priority lane
  /// Budget for jobs that do not request one.
  double defaultBudgetSeconds = 10.0;
  /// Server-wide watchdog: no job runs longer than this, whatever it asked
  /// for. Composed with the per-job budget via Deadline::soonerOf.
  double maxJobSeconds = 60.0;
  /// A retry whose leftover budget is below this gets topped up to it —
  /// re-running with an already-expired deadline would fail tautologically.
  double minRetryBudgetSeconds = 0.5;
  int maxRetries = 1;  ///< extra attempts after a TimedOut first run
  /// SO_SNDTIMEO on every accepted connection: a client that stops reading
  /// while its socket buffer is full stalls a write for at most this long,
  /// then the connection is dropped — a worker is never wedged forever on
  /// a dead peer. 0 disables the timeout.
  double sendTimeoutSeconds = 30.0;
  support::BackoffPolicy backoff;
  std::uint64_t seed = 0x5eedU;  ///< jitter noise base
  /// Threads each job's pipeline may use (route digests are thread-count
  /// invariant, so this is purely a throughput/fairness knob).
  int jobThreads = 1;
  /// Whether a client `shutdown` op is honoured (the daemon enables this;
  /// embedded test servers usually keep it off).
  bool allowRemoteShutdown = false;

  // ---- fault-injection seams (chaos harness; unset in production) ----
  /// Overrides the pin access solver for every job, exactly like
  /// core::OptimizerOptions::solver. Lets the chaos tests inject throwing /
  /// lying solvers through the public seam instead of a test backdoor.
  std::shared_ptr<const core::Solver> solverHook;
  /// Runs on the worker thread before each attempt's pipeline; may throw.
  std::function<void(const RouteRequest&, int attempt)> preRouteHook;
};

/// See file comment. Lifecycle: construct -> start() -> (serve) -> stop();
/// the destructor calls stop() if the caller did not.
class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the accept loop and workers. Fails (with
  /// Status::failed) if the socket cannot be bound; the server is then
  /// inert and stop() is a no-op.
  [[nodiscard]] support::Status start();

  /// Graceful shutdown, idempotent AND safe for concurrent callers: stop
  /// admitting, drain the queue to Cancelled terminals, finish in-flight
  /// jobs, close every connection, join every thread, unlink the socket.
  /// A second caller that arrives while teardown is in progress blocks
  /// until the teardown completes — when any stop() returns, no server
  /// thread touches the object again, so the caller may destroy it.
  void stop() CPR_NO_THREAD_SAFETY_ANALYSIS;

  /// Asks the serving loop to shut down without doing any teardown here:
  /// wakes waitForShutdownRequest(). Safe from any thread (e.g. a signal
  /// thread); the thread that owns the server then calls stop().
  void requestShutdown();

  /// Blocks until a client sends `shutdown` (when allowRemoteShutdown),
  /// requestShutdown() is called, or stop() begins on another thread.
  void waitForShutdownRequest() CPR_NO_THREAD_SAFETY_ANALYSIS;

  /// Point-in-time copy of the server's counters/gauges (thread-safe).
  [[nodiscard]] obs::Collector statsSnapshot() const;

  [[nodiscard]] const std::string& socketPath() const {
    return opts_.socketPath;
  }

 private:
  struct Connection;

  void acceptLoop();
  /// Reader thread body: runs readerLoop, then deregisters the connection
  /// and parks its own thread handle on doneReaders_ for reaping.
  void readerMain(std::shared_ptr<Connection> conn);
  void readerLoop(const std::shared_ptr<Connection>& conn);
  void workerLoop();

  /// Handles one decoded frame from `conn` (reader thread).
  void handleRequest(const std::shared_ptr<Connection>& conn,
                     const Request& req);
  /// Runs one attempt of `job` on this worker thread and emits either a
  /// retry re-queue or the terminal frame. Never throws.
  void runJob(Job job);
  /// The fallible pipeline body: parse/synthesize, validate, route.
  /// Everything it throws is folded into the JobResult by runJob.
  [[nodiscard]] JobResult executeAttempt(const Job& job);

  void sendToConn(Connection& conn, const std::string& frame)
      CPR_EXCLUDES(conn.writeMu);
  /// Body of sendToConn; the caller already holds conn.writeMu.
  void sendLocked(Connection& conn, const std::string& frame)
      CPR_REQUIRES(conn.writeMu);
  /// Joins reader threads whose loops have exited (they parked themselves
  /// on doneReaders_). Called from the accept loop and from stop(); must
  /// NOT be called while holding connMu_.
  void reapFinishedReaders() CPR_EXCLUDES(connMu_);
  void bump(std::string_view counter, long delta = 1) CPR_EXCLUDES(statsMu_);

  ServerOptions opts_;
  int listenFd_ = -1;
  BoundedJobQueue queue_;
  std::mutex serialMu_;
  std::uint64_t nextSerial_ CPR_GUARDED_BY(serialMu_) = 0;

  mutable std::mutex statsMu_;
  obs::Collector stats_ CPR_GUARDED_BY(statsMu_);

  /// Lifecycle: Idle until start(), Running while serving, Stopping while
  /// one thread runs stop()'s teardown, Stopped after. The phase makes
  /// stop() safe for concurrent callers: the first caller claims the
  /// Running→Stopping edge and tears down; later callers wait on
  /// shutdownCv_ for Stopped instead of returning into a destructor while
  /// the teardown still uses the members.
  enum class Phase { kIdle, kRunning, kStopping, kStopped };
  std::mutex lifecycleMu_;
  std::condition_variable shutdownCv_;
  bool shutdownRequested_ CPR_GUARDED_BY(lifecycleMu_) = false;
  Phase phase_ CPR_GUARDED_BY(lifecycleMu_) = Phase::kIdle;

  /// Joined by stop() (the only teardown path).
  std::thread acceptThread_ CPR_THREAD_REAPER;
  /// Job worker threads; stop() closes the queue (each worker returns
  /// after its in-flight job) and then joins them.
  std::vector<std::thread> workers_ CPR_THREAD_REAPER;
  /// Connection registry, guarded by connMu_. `conns_` holds connections
  /// whose reader is still running (queued jobs keep their own refs);
  /// `readers_` maps each live connection to its reader thread. A reader
  /// that exits erases its connection, moves its own std::thread handle to
  /// `doneReaders_`, and the accept loop (or stop()) joins it from there —
  /// a long-lived daemon does not accumulate one fd and one thread per
  /// closed connection.
  std::mutex connMu_;
  std::vector<std::shared_ptr<Connection>> conns_ CPR_GUARDED_BY(connMu_);
  std::unordered_map<const Connection*, std::thread> readers_
      CPR_GUARDED_BY(connMu_) CPR_THREAD_REAPER;
  std::vector<std::thread> doneReaders_ CPR_GUARDED_BY(connMu_)
      CPR_THREAD_REAPER;
};

}  // namespace cpr::serve
