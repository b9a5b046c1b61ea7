/// \file cpr_client.cpp
/// Command-line client for the cpr_served routing daemon.
///
///   cpr_client --socket /tmp/cpr.sock --design ecc
///   cpr_client --socket /tmp/cpr.sock --def my.def --priority interactive
///   cpr_client --socket /tmp/cpr.sock --design alu --budget 2 --id myjob
///   cpr_client --socket /tmp/cpr.sock --ping
///   cpr_client --socket /tmp/cpr.sock --stats
///   cpr_client --socket /tmp/cpr.sock --shutdown
///
/// A --def file is read locally and shipped inline in the request frame —
/// the daemon never touches the client's filesystem. Progress frames
/// (accepted / started / retrying) stream to stderr as they arrive; the
/// terminal frame prints as a result table on stdout and selects the exit
/// code via the shared cli::exitCodeFor table.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cli.h"
#include "core/solver.h"
#include "route/cpr.h"
#include "serve/client.h"
#include "support/status.h"

namespace {

constexpr char kExitCodeHelp[] =
    "exit codes (cli::exitCodeFor):\n"
    "  0  job completed (status ok)\n"
    "  2  usage error\n"
    "  3  bad input: the daemon could not parse or validate the design\n"
    "  4  completed degraded, or a budget fired and the incumbent was kept\n"
    "  5  internal/transport error (daemon unreachable, job failed)\n"
    "  6  cancelled: admission control rejected the job (queue full) or\n"
    "     the daemon shut down before it ran\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace cpr;
  std::string socketPath;
  std::string defPath;
  std::string priority = "batch";
  std::string scheme = "cpr";
  std::string pinAccess = "lr";
  bool ping = false;
  bool stats = false;
  bool shutdown = false;
  bool quiet = false;
  serve::RouteRequest req;
  req.id = "job1";

  cli::Parser parser("cpr_client", "client for the cpr_served daemon");
  parser.option("--socket", "path", "daemon AF_UNIX socket", &socketPath);
  parser.option("--design", "ecc|efc|ctl|alu|div|top",
                "synthesize a suite benchmark on the daemon", &req.design);
  parser.option("--def", "path",
                "ship this DEF-subset file inline for routing", &defPath);
  parser.option("--id", "name", "job id echoed in every reply (default job1)",
                &req.id);
  parser.option("--scheme", "cpr|nopao|seq", "routing scheme (default cpr)",
                &scheme);
  parser.option("--pin-access", "lr|ilp",
                "pin access optimizer for the cpr scheme", &pinAccess);
  parser.option("--priority", "interactive|batch",
                "admission lane (default batch)", &priority);
  parser.option("--budget", "seconds",
                "job wall-clock budget (0 = daemon default)",
                &req.budgetSeconds);
  parser.option("--seed", "n", "generator seed for --design jobs", &req.seed);
  parser.flag("--ping", "liveness check: send ping, expect pong", &ping);
  parser.flag("--stats", "print the daemon's lifetime counters", &stats);
  parser.flag("--shutdown", "ask the daemon to shut down gracefully",
              &shutdown);
  parser.flag("--quiet", "suppress progress frames on stderr", &quiet);
  parser.epilog(kExitCodeHelp);
  if (!parser.parse(argc, argv)) return 2;
  const bool wantRoute = !ping && !stats && !shutdown;
  if (parser.helpRequested() || socketPath.empty() ||
      (wantRoute && req.design.empty() == defPath.empty())) {
    parser.printUsage(parser.helpRequested() ? stdout : stderr);
    return parser.helpRequested() ? 0 : 2;
  }
  if (priority == "interactive") {
    req.priority = serve::Priority::Interactive;
  } else if (priority != "batch") {
    std::fprintf(stderr, "unknown --priority %s\n", priority.c_str());
    return 2;
  }
  const auto typedScheme = route::schemeFromName(scheme);
  if (!typedScheme) {
    std::fprintf(stderr, "unknown --scheme %s (want cpr|nopao|seq)\n",
                 scheme.c_str());
    return 2;
  }
  req.scheme = *typedScheme;
  const auto method = core::methodFromName(pinAccess);
  if (!method) {
    std::fprintf(stderr, "unknown --pin-access %s (want lr|ilp)\n",
                 pinAccess.c_str());
    return 2;
  }
  req.pinAccess = *method;

  serve::Client client;
  if (const support::Status st = client.connect(socketPath); !st.isOk()) {
    std::fprintf(stderr, "cpr_client: %s\n", st.toString().c_str());
    return cli::exitCodeFor(st.code());
  }

  if (ping || stats || shutdown) {
    const std::string frame = ping      ? serve::encodePing()
                              : stats   ? serve::encodeStatsRequest()
                                        : serve::encodeShutdownRequest();
    if (!client.sendLine(frame)) {
      std::fprintf(stderr, "cpr_client: connection lost\n");
      return 5;
    }
    if (shutdown) {
      // No ack frame is defined: the daemon drains and closes; EOF is the
      // confirmation.
      std::string line;
      while (client.readLine(line)) {
      }
      std::printf("daemon shut down\n");
      return 0;
    }
    std::string line;
    if (!client.readLine(line)) {
      std::fprintf(stderr, "cpr_client: connection closed before reply\n");
      return 5;
    }
    const serve::Reply rep = serve::decodeReply(line);
    if (ping && rep.kind == serve::Reply::Kind::Pong) {
      std::printf("pong\n");
      return 0;
    }
    if (stats && rep.kind == serve::Reply::Kind::Stats) {
      std::printf("%s\n", rep.countersRaw.c_str());
      return 0;
    }
    std::fprintf(stderr, "cpr_client: unexpected reply: %s\n", line.c_str());
    return 5;
  }

  if (!defPath.empty()) {
    std::ifstream is(defPath);
    if (!is) {
      std::fprintf(stderr, "cpr_client: cannot read %s\n", defPath.c_str());
      return 3;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    req.defText = buf.str();
  }

  if (!client.sendLine(serve::encodeRouteRequest(req))) {
    std::fprintf(stderr, "cpr_client: connection lost sending the job\n");
    return 5;
  }
  serve::JobResult r;
  bool terminal = false;
  std::string line;
  while (!terminal && client.readLine(line)) {
    serve::Reply rep = serve::decodeReply(line);
    if (rep.kind == serve::Reply::Kind::Result && rep.id == req.id) {
      r = std::move(rep.result);
      terminal = true;
    } else if (!quiet) {
      std::fprintf(stderr, "[%s] %s%s%s\n", rep.id.c_str(), rep.event.c_str(),
                   rep.detail.empty() ? "" : ": ", rep.detail.c_str());
    }
  }
  if (!terminal) {
    std::fprintf(stderr,
                 "cpr_client: connection closed before the terminal frame\n");
    return 5;
  }
  std::printf("%-10s %-10s %8s %8s %8s %8s %9s  %s\n", "id", "status",
              "Rout%", "Via#", "WL", "cpu(s)", "attempts", "digest");
  std::printf("%-10s %-10s %8.2f %8ld %8ld %8.2f %9d  %s\n", r.id.c_str(),
              r.status.c_str(), r.routability, r.vias, r.wirelength,
              r.seconds, r.attempts, r.digest.c_str());
  if (!r.detail.empty()) std::printf("detail: %s\n", r.detail.c_str());
  return cli::exitCodeFor(support::statusCodeFromName(r.status));
}
