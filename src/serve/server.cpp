#include "serve/server.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "eval/metrics.h"
#include "gen/generator.h"
#include "lefdef/def_io.h"
#include "obs/names.h"
#include "route/cpr.h"
#include "route/result.h"
#include "route/sequential_router.h"
#include "support/deadline.h"

namespace cpr::serve {

namespace {

/// A reader that accumulates this much without a newline is not speaking
/// the protocol (or is trying to exhaust memory); the connection is dropped.
constexpr std::size_t kMaxFrameBytes = 16U << 20U;

[[nodiscard]] std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xFU];
    v >>= 4;
  }
  return out;
}

}  // namespace

/// One client connection. The fd is owned here and closed exactly once, by
/// the destructor — queued jobs hold the shared_ptr, so the reply channel
/// outlives both the reader thread and the reader-side EOF.
struct Server::Connection {
  explicit Connection(int f) : fd(f) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd = -1;
  /// Frames are lines; interleaved writes would tear. CPR_MAY_BLOCK: this
  /// mutex exists to serialize socket writes, so the blocking ::send under
  /// it is the point, not a bug — a stalled peer wedges only its own
  /// connection (and only until SO_SNDTIMEO fires).
  std::mutex writeMu CPR_MAY_BLOCK;
  /// Set (under writeMu) when a send fails or times out: the peer is gone
  /// or not reading. Later frames for this connection return immediately
  /// instead of re-blocking a worker on a dead socket.
  bool broken CPR_GUARDED_BY(writeMu) = false;
};

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), queue_(opts_.laneCapacity) {}

Server::~Server() { stop(); }

support::Status Server::start() {
  sockaddr_un addr{};
  if (opts_.socketPath.empty() ||
      opts_.socketPath.size() >= sizeof addr.sun_path) {
    return support::Status::failed("socket path empty or too long");
  }
  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0) return support::Status::failed("socket() failed");
  ::unlink(opts_.socketPath.c_str());
  addr.sun_family = AF_UNIX;
  opts_.socketPath.copy(addr.sun_path, sizeof addr.sun_path - 1);
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listenFd_, 64) != 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    return support::Status::failed("cannot bind/listen on " +
                                   opts_.socketPath);
  }
  {
    std::lock_guard<std::mutex> lock(lifecycleMu_);
    phase_ = Phase::kRunning;
  }
  acceptThread_ = std::thread([this] { acceptLoop(); });
  // Workers are long-lived tasks on the shared pool seam. Pool size is
  // workers + 1 because the constructing thread counts as worker 0 and
  // posted tasks only run on the spawned workers.
  const int workers = std::max(1, opts_.workers);
  workerPool_ = std::make_unique<support::ThreadPool>(workers + 1);
  for (int i = 0; i < workers; ++i)
    workerPool_->post([this] { workerLoop(); });
  return support::Status::ok();
}

void Server::stop() {
  {
    std::unique_lock<std::mutex> lock(lifecycleMu_);
    if (phase_ != Phase::kRunning) {
      // Never started (nothing to do), or another thread is already tearing
      // down. In the latter case, WAIT for it: returning early would let
      // our caller destroy the server while that thread still uses the
      // queue, the pool, and the connection registry.
      shutdownCv_.wait(lock, [this] { return phase_ != Phase::kStopping; });
      return;
    }
    phase_ = Phase::kStopping;
    shutdownCv_.notify_all();  // wake waitForShutdownRequest()
  }
  // Stop admitting: wake the accept loop, then close the queue so workers
  // exit after their in-flight job. Leftover queue entries become Cancelled
  // terminals — every admitted job reaches a terminal frame, even now.
  ::shutdown(listenFd_, SHUT_RDWR);
  queue_.close();
  if (workerPool_) {
    workerPool_->drain();  // closed queue -> every workerLoop task returns
    workerPool_.reset();
  }
  for (Job& job : queue_.drainRemaining()) {
    JobResult r;
    r.id = job.request.id;
    r.event = obs::names::kServeEvRejected;
    r.status = support::statusCodeName(support::StatusCode::Cancelled);
    r.detail = "server shutting down before the job could run";
    r.attempts = job.attempt;
    bump(obs::names::kServeJobsCancelled);
    if (auto conn = std::static_pointer_cast<Connection>(job.session))
      sendToConn(*conn, encodeResult(r));
  }
  // Workers are gone, terminals are sent: now unblock and join readers.
  // The accept thread is joined FIRST — a connection landing between the
  // listen-socket shutdown and the accept loop noticing would otherwise be
  // added after this pass and leave its reader blocked forever.
  if (acceptThread_.joinable()) acceptThread_.join();
  {
    std::lock_guard<std::mutex> lock(connMu_);
    for (const std::shared_ptr<Connection>& c : conns_)
      ::shutdown(c->fd, SHUT_RDWR);
  }
  // Join live readers one at a time, moving each handle out under the lock
  // and joining outside it — a reader's exit path takes connMu_ itself, so
  // joining under the lock would deadlock.
  while (true) {
    std::thread reader;
    {
      std::lock_guard<std::mutex> lock(connMu_);
      if (readers_.empty()) break;
      auto it = readers_.begin();
      reader = std::move(it->second);
      readers_.erase(it);
    }
    if (reader.joinable()) reader.join();
  }
  reapFinishedReaders();  // readers that exited on their own since the scan
  {
    std::lock_guard<std::mutex> lock(connMu_);
    conns_.clear();  // destructors close the fds
  }
  ::close(listenFd_);
  listenFd_ = -1;
  ::unlink(opts_.socketPath.c_str());
  {
    std::lock_guard<std::mutex> lock(lifecycleMu_);
    phase_ = Phase::kStopped;
    shutdownCv_.notify_all();  // release any concurrent stop() callers
  }
}

void Server::requestShutdown() {
  std::lock_guard<std::mutex> lock(lifecycleMu_);
  shutdownRequested_ = true;
  shutdownCv_.notify_all();
}

void Server::waitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(lifecycleMu_);
  shutdownCv_.wait(
      lock, [this] { return shutdownRequested_ || phase_ != Phase::kRunning; });
}

obs::Collector Server::statsSnapshot() const {
  // Read the queue's mark before taking statsMu_: the admission callback
  // runs under the queue lock and bumps counters (queue -> stats order), so
  // taking the locks here in the opposite order would be an ABBA deadlock.
  const auto peak = static_cast<double>(queue_.peakDepth());
  std::lock_guard<std::mutex> lock(statsMu_);
  obs::Collector copy = stats_;
  copy.gauge(obs::names::kServeQueuePeakDepth, peak);
  return copy;
}

void Server::bump(std::string_view counter, long delta) {
  std::lock_guard<std::mutex> lock(statsMu_);
  stats_.add(counter, delta);
}

void Server::acceptLoop() {
  while (true) {
    reapFinishedReaders();
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      {
        std::lock_guard<std::mutex> lock(lifecycleMu_);
        if (phase_ != Phase::kRunning) return;  // stop() shut the socket down
      }
      // A long-lived daemon's front door must survive transient accept
      // failures: a handshake the peer already aborted, or a momentary
      // fd / buffer shortage (which WILL happen under flood). Only a
      // genuinely broken listen socket ends the loop.
      if (err == ECONNABORTED || err == EPROTO) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        bump(obs::names::kServeAcceptRetried);
        // Back off so the retry is not a busy spin while every fd is in
        // use; reaping above frees fds as readers finish.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      return;  // EBADF/EINVAL etc.: the listen socket itself is gone
    }
    if (opts_.sendTimeoutSeconds > 0.0) {
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(opts_.sendTimeoutSeconds);
      tv.tv_usec = static_cast<suseconds_t>(
          (opts_.sendTimeoutSeconds - static_cast<double>(tv.tv_sec)) * 1e6);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }
    bump(obs::names::kServeConnections);
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(connMu_);
    conns_.push_back(conn);
    // Registered under connMu_ BEFORE the thread can deregister itself:
    // readerMain's exit path takes the same lock.
    readers_.emplace(conn.get(),
                     std::thread([this, conn] { readerMain(conn); }));
  }
}

void Server::readerMain(std::shared_ptr<Connection> conn) {
  readerLoop(conn);
  // Deregister: drop the registry's ref (queued jobs keep theirs, so the
  // fd closes once the last terminal frame is sent) and park the thread
  // handle where the accept loop or stop() will join it.
  std::lock_guard<std::mutex> lock(connMu_);
  conns_.erase(std::remove(conns_.begin(), conns_.end(), conn), conns_.end());
  const auto it = readers_.find(conn.get());
  if (it != readers_.end()) {
    doneReaders_.push_back(std::move(it->second));
    readers_.erase(it);
  }
}

void Server::reapFinishedReaders() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(connMu_);
    done.swap(doneReaders_);
  }
  // These threads have exited (or are in readerMain's last lines); the
  // joins are immediate. Never under connMu_ — see readerMain.
  for (std::thread& t : done)
    if (t.joinable()) t.join();
}

void Server::readerLoop(const std::shared_ptr<Connection>& conn) {
  std::string pending;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // EOF or error; queued jobs still hold the reply channel
    }
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = pending.find('\n', start);
         nl != std::string::npos; nl = pending.find('\n', start)) {
      const std::string_view line(pending.data() + start, nl - start);
      if (!line.empty()) handleRequest(conn, decodeRequest(line));
      start = nl + 1;
    }
    pending.erase(0, start);
    if (pending.size() > kMaxFrameBytes) {
      bump(obs::names::kServeFramesBad);
      sendToConn(*conn, encodeError("frame exceeds the 16 MiB line limit"));
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    }
  }
}

void Server::handleRequest(const std::shared_ptr<Connection>& conn,
                           const Request& req) {
  switch (req.kind) {
    case Request::Kind::Invalid:
      bump(obs::names::kServeFramesBad);
      sendToConn(*conn, encodeError("bad frame: " + req.error));
      return;
    case Request::Kind::Ping:
      sendToConn(*conn, encodePong());
      return;
    case Request::Kind::Stats:
      sendToConn(*conn, encodeStatsReply(statsSnapshot().counters()));
      return;
    case Request::Kind::Shutdown: {
      if (!opts_.allowRemoteShutdown) {
        sendToConn(*conn, encodeError("shutdown is not enabled"));
        return;
      }
      requestShutdown();
      return;
    }
    case Request::Kind::Route:
      break;
  }

  Job job;
  job.request = req.route;
  job.session = conn;
  // Admission composes the budget: the client's ask, capped by the
  // server-wide watchdog. Queue wait spends this budget — a job that
  // starves in the queue times out and retries with a fresh slice rather
  // than occupying a worker with nothing left to spend.
  const double budget = job.request.budgetSeconds > 0.0
                            ? job.request.budgetSeconds
                            : opts_.defaultBudgetSeconds;
  job.deadline =
      support::Deadline::soonerOf(support::Deadline::after(budget),
                                  support::Deadline::after(opts_.maxJobSeconds));
  {
    std::lock_guard<std::mutex> lock(serialMu_);
    job.serial = nextSerial_++;
  }
  const std::string id = job.request.id;
  bool admitted = false;
  {
    // Hold the connection's WRITE lock (not the queue lock) across
    // admission: the worker that pops this job must take the same lock to
    // emit "started", so the "accepted" frame below is on the wire first.
    // The blocking send happens outside the queue mutex — a client that
    // stops reading can wedge only its own connection, never admissions
    // from other connections, the workers' pop(), or stop().
    std::lock_guard<std::mutex> wlock(conn->writeMu);
    std::size_t depthAfter = 0;
    admitted = queue_.tryPush(std::move(job), [&](std::size_t depth) {
      // Under the queue lock: cheap bookkeeping only (stats after queue is
      // the lock order statsSnapshot() relies on).
      bump(obs::names::kServeJobsAccepted);
      depthAfter = depth;
    });
    if (admitted)
      sendLocked(*conn, encodeEvent(id, obs::names::kServeEvAccepted, 0,
                                    static_cast<double>(depthAfter)));
  }
  if (!admitted) {
    bump(obs::names::kServeJobsRejected);
    JobResult r;
    r.id = id;
    r.event = obs::names::kServeEvRejected;
    r.status = support::statusCodeName(support::StatusCode::Cancelled);
    r.detail = std::string("queue full: ") +
               std::string(priorityName(req.route.priority)) +
               " lane at capacity";
    sendToConn(*conn, encodeResult(r));
  }
}

void Server::workerLoop() {
  while (true) {
    std::optional<Job> job = queue_.pop();
    if (!job) return;
    runJob(std::move(*job));
  }
}

void Server::runJob(Job job) {
  auto conn = std::static_pointer_cast<Connection>(job.session);
  sendToConn(*conn, encodeEvent(job.request.id, obs::names::kServeEvStarted,
                                job.attempt, 0.0));
  obs::Collector jobStats;
  JobResult result;
  bool failed = false;
  {
    obs::ScopedTimer timer(&jobStats, obs::names::kServeJobSpan);
    try {
      result = executeAttempt(job);
    } catch (const lefdef::DefParseError& e) {
      failed = true;
      result.status =
          support::statusCodeName(support::StatusCode::Infeasible);
      result.detail = e.what();
    } catch (const std::invalid_argument& e) {
      failed = true;
      result.status =
          support::statusCodeName(support::StatusCode::Infeasible);
      result.detail = e.what();
    } catch (const std::exception& e) {
      failed = true;
      result.status = support::statusCodeName(support::StatusCode::Failed);
      result.detail = e.what();
    } catch (...) {
      failed = true;
      result.status = support::statusCodeName(support::StatusCode::Failed);
      result.detail = "unknown exception in the routing pipeline";
    }
  }
  result.id = job.request.id;
  result.attempts = job.attempt;
  if (failed) {
    result.event = obs::names::kServeEvFailed;
    bump(obs::names::kServeJobsFailed);
  } else if (result.status ==
                 support::statusCodeName(support::StatusCode::TimedOut) &&
             job.attempt <= opts_.maxRetries) {
    // One more try, cheaper and with a fresh budget slice: the common cause
    // of a first-attempt timeout is queue wait or an expensive pin access
    // method, and both are fixable without bothering the client.
    const double delay = opts_.backoff.delaySeconds(
        job.attempt, opts_.seed ^ job.serial);
    sendToConn(*conn,
               encodeEvent(job.request.id, obs::names::kServeEvRetrying,
                           job.attempt + 1, 0.0,
                           "budget expired; retrying at lower fidelity"));
    bump(obs::names::kServeJobsRetried);
    Job retry = std::move(job);
    retry.attempt += 1;
    retry.request.pinAccess = "lr";  // drop to the cheap method
    const double fresh =
        std::max(opts_.minRetryBudgetSeconds,
                 retry.request.budgetSeconds > 0.0
                     ? retry.request.budgetSeconds
                     : opts_.defaultBudgetSeconds);
    retry.deadline = support::Deadline::soonerOf(
        support::Deadline::after(fresh),
        support::Deadline::after(opts_.maxJobSeconds));
    retry.readyAt = support::Deadline::after(delay);
    {
      std::lock_guard<std::mutex> lock(statsMu_);
      stats_.merge(jobStats);
    }
    if (queue_.pushRetry(std::move(retry))) return;
    // Queue closed under us: fall through to a terminal frame so the
    // client is not left waiting across shutdown.
    result.event = obs::names::kServeEvCompleted;
    bump(obs::names::kServeJobsCompleted);
    sendToConn(*conn, encodeResult(result));
    return;
  } else {
    result.event = obs::names::kServeEvCompleted;
    bump(obs::names::kServeJobsCompleted);
  }
  sendToConn(*conn, encodeResult(result));
  const auto peak = static_cast<double>(queue_.peakDepth());
  {
    std::lock_guard<std::mutex> lock(statsMu_);
    stats_.merge(jobStats);
    stats_.gauge(obs::names::kServeQueuePeakDepth, peak);
  }
}

JobResult Server::executeAttempt(const Job& job) {
  const RouteRequest& req = job.request;
  if (opts_.preRouteHook) opts_.preRouteHook(req, job.attempt);

  db::Design design = [&] {
    if (!req.defText.empty()) {
      std::istringstream is(req.defText);
      return lefdef::readDef(is);
    }
    // Throws std::invalid_argument for an unknown name -> Infeasible.
    return gen::makeSuiteDesign(gen::suiteSpec(req.design), req.seed);
  }();
  if (const std::string report = design.validate(); !report.empty())
    throw std::invalid_argument("design fails validation: " + report);

  route::RoutingResult routed;
  double extraSeconds = 0.0;
  long degradedPanels = 0;
  if (req.scheme == "seq") {
    route::SequentialOptions o;
    o.deadline = job.deadline;
    routed = route::routeSequential(design, o);
  } else if (req.scheme == "nopao") {
    route::NegotiationOptions o;
    o.deadline = job.deadline;
    o.threads = opts_.jobThreads;
    routed = route::routeNegotiated(design, nullptr, o);
  } else {
    route::CprOptions o;
    o.routing.deadline = job.deadline;
    o.routing.threads = opts_.jobThreads;
    o.pinAccess.threads = opts_.jobThreads;
    o.pinAccess.deadline = job.deadline;
    o.pinAccess.solver = opts_.solverHook;
    // The codec admitted only known names, so the lookup cannot miss.
    o.pinAccess.solve.method =
        core::methodFromName(req.pinAccess).value_or(core::Method::Lr);
    // Containment: an exact solve gets a 1 s slice per panel, so one hard
    // panel degrades down the ladder instead of holding a worker.
    if (o.pinAccess.solve.method == core::Method::Ilp)
      o.pinAccess.panelBudgetSeconds = 1.0;
    if (job.attempt > 1) {
      // Lower-fidelity retry: fewer negotiation rounds, faster convergence
      // to *a* result inside the fresh (smaller) budget.
      o.routing.maxRrrIterations =
          std::min(o.routing.maxRrrIterations, 6);
    }
    route::CprResult c = route::routeCpr(design, o);
    degradedPanels =
        c.plan.stats.counter(obs::names::kPaoPanelFailed) +
        c.plan.stats.counter(obs::names::kPaoPanelDegraded) +
        c.plan.stats.counter(obs::names::kPaoFallbacks);
    routed = std::move(c.routing);
    extraSeconds = c.pinAccessSeconds;
  }

  const eval::Metrics m = eval::summarize(design, routed, extraSeconds);
  JobResult out;
  out.event = obs::names::kServeEvCompleted;
  out.routability = m.routability;
  out.vias = m.vias;
  out.wirelength = m.wirelength;
  out.seconds = m.seconds;
  out.digest = hex16(route::resultDigest(routed));
  // The deadline is checked between pipeline stages, never mid-net, so an
  // expired budget still produced a complete (if modest) result — report it
  // as the incumbent with TimedOut rather than discarding work.
  const support::StatusCode code =
      job.deadline.expired() ? support::StatusCode::TimedOut
      : degradedPanels > 0  ? support::StatusCode::Degraded
                            : support::StatusCode::Ok;
  out.status = support::statusCodeName(code);
  if (code == support::StatusCode::Degraded)
    out.detail = std::to_string(degradedPanels) +
                 " pin access panel(s) fell below the primary solver";
  return out;
}

void Server::sendToConn(Connection& conn, const std::string& frame) {
  std::lock_guard<std::mutex> lock(conn.writeMu);
  sendLocked(conn, frame);
}

void Server::sendLocked(Connection& conn, const std::string& frame) {
  if (conn.fd < 0 || conn.broken) return;
  std::string line = frame;
  line.push_back('\n');
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::send(conn.fd, line.data() + off, line.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Peer gone (EPIPE/ECONNRESET) or not reading (SO_SNDTIMEO fired:
      // EAGAIN on a full buffer). Either way this connection is dead to
      // us: mark it so later frames return immediately instead of
      // re-blocking a worker, and shut it down so its reader unblocks.
      // The job's outcome still lands in the stats.
      conn.broken = true;
      ::shutdown(conn.fd, SHUT_RDWR);
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace cpr::serve
