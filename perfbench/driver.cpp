/// \file driver.cpp
/// One run of the repository benchmark. Builds a workload's inputs (the
/// paper's seed-7 designs; the run seed orders the served jobs), runs the
/// workload for the requested time, and prints one JSON record of raw
/// measurements on stdout. perfbench/run.py builds this
/// program, checks the record and reduces it to the metrics BENCHMARK.json
/// names; perfbench/NOTES.md says why each workload exists.
///
///   perfbench_driver --workload cpr_top --seed 7 --seconds 10 --trace 0
///
/// The library is reached only through public entry points —
/// gen::makeSuiteDesign, lefdef::writeDef/readDef, core::optimizePinAccess,
/// route::routeNegotiated, eval::summarize, route::resultDigest and
/// serve::Server/serve::Client — and every call is timed from outside. With
/// --trace 1 the driver also resets and reads the kernel's peak-RSS mark
/// around each call and copies the spans and counters that
/// PinAccessPlan::stats and RoutingResult::stats already carry; it adds no
/// instrumentation to the library. Every pipeline runs on one thread.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/optimizer.h"
#include "db/design.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "lefdef/def_io.h"
#include "obs/collector.h"
#include "obs/names.h"
#include "obs/report.h"
#include "route/cpr.h"
#include "route/negotiation_router.h"
#include "route/result.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using namespace cpr;
using Clock = std::chrono::steady_clock;

// ---- measurement primitives -------------------------------------------------

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double secondsSince(Clock::time_point t0) {
  return secondsBetween(t0, Clock::now());
}

Clock::time_point after(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

/// User plus system CPU time of the whole process.
double cpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set of the process so far, MB.
double peakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// One "<field>: <n> kB" line of /proc/self/status, in MB (0 when absent).
double procStatusMb(std::string_view field) {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() > field.size() &&
        line.compare(0, field.size(), field) == 0 && line[field.size()] == ':')
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Resets the process's peak-RSS mark (VmHWM) to its current RSS, so the
/// next VmHWM read is the peak of the code run in between. False when the
/// kernel refuses.
bool resetPeakRss() {
  std::ofstream os("/proc/self/clear_refs");
  os << "5\n";
  os.flush();
  return os.good();
}

/// Spin probe results: the loop iterations one thread completes per second
/// (absolute single-core speed), and what `threads` spinning threads complete
/// together over what one completes alone. On an idle machine with `threads`
/// free cores the ratio is `threads`; a shared or throttled box delivers
/// less, and thread-scaling figures are normalised against it.
struct Calibration {
  double spinPerSecond = 0.0;
  double effectiveCores = 0.0;
};

Calibration calibrate(int threads) {
  const auto spin = [](double seconds) {
    std::uint64_t x = 88172645463325252ULL;
    std::uint64_t iters = 0;
    const Clock::time_point end = after(Clock::now(), seconds);
    do {
      for (int i = 0; i < 4096; ++i) {
        x ^= x << 13U;
        x ^= x >> 7U;
        x ^= x << 17U;
      }
      iters += 4096;
    } while (Clock::now() < end);
    return iters + (x & 1U);  // keeps the xorshift chain observable
  };
  constexpr double kWindowSeconds = 0.1;
  const auto alone = static_cast<double>(spin(kWindowSeconds));
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> spinners;
  for (std::size_t t = 0; t < counts.size(); ++t)
    spinners.emplace_back(
        [&counts, &spin, t] { counts[t] = spin(kWindowSeconds); });
  for (std::thread& s : spinners) s.join();
  double together = 0.0;
  for (const std::uint64_t c : counts) together += static_cast<double>(c);
  return Calibration{alone / kWindowSeconds, together / alone};
}

// ---- JSON output ------------------------------------------------------------

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonString(std::string_view s) {
  return "\"" + obs::jsonEscape(s) + "\"";
}

std::string jsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ',';
    out += items[i];
  }
  return out + "]";
}

std::string jsonNumbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (const double v : values) items.push_back(jsonNumber(v));
  return jsonArray(items);
}

/// Builds one JSON object field by field; `raw` values are encoded JSON.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ',';
    body_ += jsonString(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  JsonObject& num(std::string_view key, double v) {
    return raw(key, jsonNumber(v));
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, jsonString(v));
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- workloads --------------------------------------------------------------

struct Workload {
  std::string_view name;
  bool served;              ///< jobs go through serve::Server as DEF payloads
  std::string_view design;  ///< suite design a direct workload routes
  bool pinAccess;           ///< false: routing without pin access optimization
};

constexpr Workload kWorkloads[] = {
    {"cpr_top", false, "top", true},
    {"nopao_div", false, "div", false},
    {"served_def", true, "", true},
};

/// Generator seed of every design a job routes: the seed of the paper tables
/// and of the pinned digests. Job cost differs from design to design more
/// than a run's bound allows, so every run times the same designs and the
/// run seed orders the served jobs instead; see perfbench/NOTES.md.
constexpr std::uint64_t kDesignSeed = 7;

/// Payload design of each served_def client connection.
constexpr std::string_view kServedDesigns[] = {"ecc", "efc"};

/// The options of every job: the CPR defaults (LR pin access) on exactly one
/// thread, with no deadline and no panel budget (a budget makes results
/// timing-dependent).
route::CprOptions pipelineOptions() {
  route::CprOptions o;
  o.pinAccess.threads = 1;
  o.pinAccess.solve.method = core::Method::Lr;
  o.routing.threads = 1;
  return o;
}

// ---- one pipeline run -------------------------------------------------------

/// Times each public call of a job from outside. When traced it also resets
/// the peak-RSS mark before each call and samples VmRSS and VmHWM after it.
class CallTimer {
 public:
  explicit CallTimer(bool traced) : traced_(traced) {}

  template <class F>
  auto operator()(std::string_view call, F&& f) {
    if (traced_ && !resetPeakRss())
      throw std::runtime_error("cannot reset the peak-RSS mark");
    const Clock::time_point t0 = Clock::now();
    auto result = f();
    Sample& s = samples_[std::string(call)];
    s.seconds = secondsSince(t0);
    if (traced_) {
      s.rssMb = procStatusMb("VmRSS");
      s.hwmMb = procStatusMb("VmHWM");
    }
    return result;
  }

  [[nodiscard]] double seconds(std::string_view call) const {
    const auto it = samples_.find(call);
    return it == samples_.end() ? 0.0 : it->second.seconds;
  }
  [[nodiscard]] double peakMb(std::string_view call) const {
    const auto it = samples_.find(call);
    return it == samples_.end() ? 0.0 : it->second.hwmMb;
  }
  [[nodiscard]] double totalSeconds() const {
    double s = 0.0;
    for (const auto& [call, sample] : samples_) s += sample.seconds;
    return s;
  }
  /// {"<call>": {"s": .., "rss_mb": .., "hwm_mb": ..}, ...}
  [[nodiscard]] std::string json() const {
    JsonObject o;
    for (const auto& [call, sample] : samples_) {
      o.raw(call, JsonObject()
                      .num("s", sample.seconds)
                      .num("rss_mb", sample.rssMb)
                      .num("hwm_mb", sample.hwmMb)
                      .done());
    }
    return o.done();
  }

 private:
  struct Sample {
    double seconds = 0.0;
    double rssMb = 0.0;
    double hwmMb = 0.0;
  };
  bool traced_;
  std::map<std::string, Sample, std::less<>> samples_;
};

/// Where a job's design comes from: a design in memory, or DEF text the job
/// parses first (the served workload's in-process replay).
struct JobInput {
  std::string label;
  const db::Design* design = nullptr;
  const std::string* defText = nullptr;
};

/// One job's outcome; `layers` and `boundaries` are filled for traced jobs.
struct JobRecord {
  std::string design;
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;
  std::string digest;
  eval::Metrics metrics;
  double paoObjective = 0.0;
  std::map<std::string, double> layers;
  std::string boundaries;
};

double spanSeconds(const obs::Collector& c, std::string_view name) {
  double s = 0.0;
  for (const obs::Span& span : c.spans())
    if (span.name == name) s += std::chrono::duration<double>(span.dur).count();
  return s;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Per-layer figures of one traced job, named as in BENCHMARK.json.
std::map<std::string, double> layerMetrics(const JobInput& in,
                                           const JobRecord& rec,
                                           const CallTimer& timer,
                                           const core::PinAccessPlan& plan,
                                           const route::RoutingResult& routing) {
  namespace n = obs::names;
  const obs::Collector& ps = plan.stats;
  const obs::Collector& rs = routing.stats;
  const auto count = [](const obs::Collector& c, std::string_view name) {
    return static_cast<double>(c.counter(name));
  };
  std::map<std::string, double> m;
  m["lefdef.read_s"] = timer.seconds("lefdef.read");
  m["lefdef.bytes"] =
      in.defText ? static_cast<double>(in.defText->size()) : 0.0;

  m["pao.total_s"] = timer.seconds("pao");
  m["pao.gen_s"] = spanSeconds(ps, n::kPaoGenSpan);
  m["pao.conflict_s"] = spanSeconds(ps, n::kPaoConflictSpan);
  m["pao.compile_s"] = spanSeconds(ps, n::kPaoCompileSpan);
  m["pao.solve_s"] = spanSeconds(ps, n::kPaoSolveSpan);
  m["pao.intervals"] = count(ps, n::kPaoIntervals);
  m["pao.kernel_bytes"] = count(ps, n::kPaoKernelBytes);
  m["pao.scratch_peak_bytes"] = ps.gaugeOr(n::kPaoScratchPeakBytes, 0.0);
  m["pao.rss_hwm_mb"] = timer.peakMb("pao");
  m["lr.iterations"] = count(ps, n::kLrIterations);
  m["pao_objective"] = plan.objective;

  m["pao.rung.primary"] = count(ps, n::kPaoRungPrimary);

  const double total = timer.seconds("route");
  const double independent = spanSeconds(rs, n::kRouteIndependentSpan);
  const double rrr = spanSeconds(rs, n::kRouteRrrSpan);
  const double repair = spanSeconds(rs, n::kRouteDrcRepairSpan);
  const double signoff = spanSeconds(rs, n::kRouteSignoffSpan);
  m["route.total_s"] = total;
  // Grid and engine construction (plus the sharing cleanup between RRR and
  // repair) run outside every route.* span.
  m["route.build_s"] = total - (independent + rrr + repair + signoff);
  m["route.independent_s"] = independent;
  m["route.rrr_s"] = rrr;
  m["route.drc_repair_s"] = repair;
  m["route.signoff_s"] = signoff;
  m["route.rss_hwm_mb"] = timer.peakMb("route");
  const double searches = count(rs, n::kRouteSearches);
  const double pops = count(rs, n::kRoutePops);
  m["route.astar.searches"] = searches;
  m["route.astar.pops"] = pops;
  m["route.pops_per_search"] = ratio(pops, searches);
  m["route.rrr.iterations"] = count(rs, n::kRouteRrrIterations);
  m["route.ripups"] = count(rs, n::kRouteRipups);
  m["route.retries"] = count(rs, n::kRouteRetries);
  m["route.congested_pre_rrr"] = count(rs, n::kRouteCongestedPreRrr);

  m["eval.summarize_s"] = timer.seconds("eval.summarize");
  m["eval.digest_s"] = timer.seconds("eval.digest");
  m["failed_frac"] = ratio(
      static_cast<double>(rec.metrics.totalNets - rec.metrics.routedClean),
      static_cast<double>(rec.metrics.totalNets));
  return m;
}

/// One job: [read DEF ->] pin access -> routing -> summary -> digest. The
/// job's wall time includes releasing its results.
JobRecord runJob(const Workload& w, const JobInput& in, bool traced) {
  JobRecord rec;
  rec.design = in.label;
  const route::CprOptions opts = pipelineOptions();
  CallTimer timer(traced);
  const double cpu0 = cpuSeconds();
  const Clock::time_point t0 = Clock::now();
  {
    std::optional<db::Design> parsed;
    if (in.defText) {
      parsed = timer("lefdef.read", [&] {
        std::istringstream is(*in.defText);
        return lefdef::readDef(is);
      });
    }
    const db::Design& d = parsed ? *parsed : *in.design;
    core::PinAccessPlan plan;
    if (w.pinAccess) {
      plan = timer("pao",
                   [&] { return core::optimizePinAccess(d, opts.pinAccess); });
    }
    const route::RoutingResult routing = timer("route", [&] {
      return route::routeNegotiated(d, w.pinAccess ? &plan : nullptr,
                                    opts.routing);
    });
    rec.metrics = timer("eval.summarize", [&] {
      return eval::summarize(d, routing, timer.seconds("pao"));
    });
    rec.digest = hex16(
        timer("eval.digest", [&] { return route::resultDigest(routing); }));
    rec.paoObjective = plan.objective;
    if (traced) rec.layers = layerMetrics(in, rec, timer, plan, routing);
  }
  rec.wallSeconds = secondsSince(t0);
  rec.cpuSeconds = cpuSeconds() - cpu0;
  if (traced) {
    rec.layers["unattributed_s"] = rec.wallSeconds - timer.totalSeconds();
    rec.boundaries = timer.json();
  }
  return rec;
}

std::string jobJson(const JobRecord& r) {
  JsonObject o;
  o.str("design", r.design)
      .num("wall_s", r.wallSeconds)
      .num("cpu_s", r.cpuSeconds)
      .str("digest", r.digest)
      .num("nets", r.metrics.totalNets)
      .num("clean", r.metrics.routedClean)
      .num("routability_pct", r.metrics.routability)
      .num("via_count", static_cast<double>(r.metrics.vias))
      .num("wirelength", static_cast<double>(r.metrics.wirelength))
      .num("drc_violations", static_cast<double>(r.metrics.drcViolations))
      .num("pao_objective", r.paoObjective);
  if (!r.layers.empty()) {
    JsonObject layers;
    for (const auto& [name, value] : r.layers) layers.num(name, value);
    o.raw("layers", layers.done()).raw("boundaries", r.boundaries);
  }
  return o.done();
}

/// Runs `job()` at least once, and again while another job, as long as the
/// longest so far, still ends within `seconds` of the first job's start.
template <class Job>
std::vector<std::string> repeatWithin(double seconds, Job&& job) {
  std::vector<std::string> out;
  const Clock::time_point t0 = Clock::now();
  double longest = 0.0;
  do {
    const JobRecord r = job();
    longest = std::max(longest, r.wallSeconds);
    out.push_back(jobJson(r));
  } while (secondsSince(t0) + longest <= seconds);
  return out;
}

/// Set-up runs at least kMinReps times, and again until one second of it
/// has been measured, so that the median of a set-up lasting milliseconds
/// rests on many samples.
bool wantMoreSetup(const std::vector<double>& done) {
  constexpr std::size_t kMinReps = 5;
  constexpr double kSetupSeconds = 1.0;
  constexpr std::size_t kMaxReps = 400;
  double total = 0.0;
  for (const double s : done) total += s;
  return done.size() < kMinReps ||
         (total < kSetupSeconds && done.size() < kMaxReps);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir = ".";
};

// ---- direct workloads -------------------------------------------------------

/// Set-up is generating the design (see wantMoreSetup); jobs, traced or
/// not, then run for the window.
void runDirect(const Workload& w, const Args& a, JsonObject& rec) {
  const gen::SuiteSpec& spec = gen::suiteSpec(std::string(w.design));
  std::vector<double> setup;
  std::optional<db::Design> design;
  while (wantMoreSetup(setup)) {
    design.reset();
    const Clock::time_point t0 = Clock::now();
    design.emplace(gen::makeSuiteDesign(spec, kDesignSeed));
    setup.push_back(secondsSince(t0));
  }
  rec.raw("setup_s", jsonNumbers(setup)).raw("gen_s", jsonNumbers(setup));
  const JobInput input{std::string(w.design), &*design, nullptr};
  std::vector<std::string> jobs =
      repeatWithin(a.seconds, [&] { return runJob(w, input, a.trace); });
  std::vector<std::string> traced;
  if (a.trace) std::swap(jobs, traced);
  rec.raw("jobs", jsonArray(jobs)).raw("traced", jsonArray(traced));
}

// ---- the served workload ----------------------------------------------------

/// One served job as its client saw it.
struct ServedJob {
  std::string design;
  double latency = 0.0;  ///< request sent -> terminal frame read
  double wait = 0.0;     ///< accepted frame -> started frame
  double service = 0.0;  ///< started frame -> terminal frame
  serve::JobResult result;
};

/// One DEF payload of the served workload.
struct Payload {
  std::string label;
  std::string defText;
  std::size_t nets = 0;
};

/// Closed loop on one connection: send a job, read frames until its
/// terminal frame, repeat until `stopAt`. Every consecutive run of
/// `payloads.size()` jobs sends each payload once, in an order drawn from
/// `seed`. Returns an error, empty if none.
std::string clientLoop(const std::string& socket,
                       std::vector<const Payload*> payloads,
                       std::uint64_t seed, Clock::time_point stopAt,
                       std::vector<ServedJob>& out) {
  serve::Client client;
  if (!client.connect(socket).isOk()) return "cannot connect to " + socket;
  std::mt19937_64 rng(seed);
  for (std::size_t k = 0; Clock::now() < stopAt; ++k) {
    if (k % payloads.size() == 0)
      std::shuffle(payloads.begin(), payloads.end(), rng);
    const Payload& payload = *payloads[k % payloads.size()];
    serve::RouteRequest req;
    req.id = payload.label + "-" + std::to_string(k);
    req.defText = payload.defText;
    const Clock::time_point sent = Clock::now();
    if (!client.sendLine(serve::encodeRouteRequest(req)))
      return "connection lost sending " + req.id;
    Clock::time_point accepted = sent;
    Clock::time_point started = sent;
    Clock::time_point finished = sent;
    std::optional<serve::JobResult> result;
    std::string line;
    while (!result && client.readLine(line)) {
      serve::Reply rep = serve::decodeReply(line);
      const Clock::time_point now = Clock::now();
      if (rep.kind == serve::Reply::Kind::Event && rep.id == req.id) {
        if (rep.event == obs::names::kServeEvAccepted) accepted = now;
        if (rep.event == obs::names::kServeEvStarted) started = now;
      } else if (rep.kind == serve::Reply::Kind::Result &&
                 rep.result.id == req.id) {
        result = std::move(rep.result);
        finished = now;
      }
    }
    if (!result) return "connection closed before the result of " + req.id;
    out.push_back(ServedJob{payload.label,
                            secondsBetween(sent, finished),
                            secondsBetween(accepted, started),
                            secondsBetween(started, finished),
                            std::move(*result)});
  }
  return {};
}

std::string servedJobJson(const ServedJob& j) {
  return JsonObject()
      .str("design", j.design)
      .num("latency_s", j.latency)
      .num("wait_s", j.wait)
      .num("service_s", j.service)
      .num("pipeline_s", j.result.seconds)
      .str("event", j.result.event)
      .str("status", j.result.status)
      .num("attempts", j.result.attempts)
      .str("digest", j.result.digest)
      .num("routability_pct", j.result.routability)
      .num("via_count", static_cast<double>(j.result.vias))
      .num("wirelength", static_cast<double>(j.result.wirelength))
      .done();
}

/// Set-up (see wantMoreSetup) is generating the payload designs, writing
/// them as DEF text and starting an in-process server (1 job worker, 1
/// pipeline thread). Two client connections then run closed loops for the
/// window, each sending both payloads in a seed-drawn order. Afterwards
/// every payload is replayed once in-process through the same public calls
/// (DEF parse included), traced in traced runs to split a job into layers;
/// the replays' digests must equal the served ones and their signoff is
/// checked for DRC violations.
void runServed(const Workload& w, const Args& a, JsonObject& rec) {
  constexpr std::size_t kClients = 2;
  const std::string socket =
      a.workDir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  std::vector<Payload> payloads;
  std::vector<double> setup;
  std::vector<double> genSeconds;
  std::unique_ptr<serve::Server> server;
  while (wantMoreSetup(setup)) {
    server.reset();  // stops the previous repetition's server
    payloads.clear();
    const Clock::time_point t0 = Clock::now();
    double gen = 0.0;
    for (const std::string_view name : kServedDesigns) {
      const gen::SuiteSpec& spec = gen::suiteSpec(std::string(name));
      const Clock::time_point g0 = Clock::now();
      const db::Design d = gen::makeSuiteDesign(spec, kDesignSeed);
      gen += secondsSince(g0);
      std::ostringstream os;
      lefdef::writeDef(d, os);
      payloads.push_back(
          Payload{std::string(name), os.str(), d.nets().size()});
    }
    serve::ServerOptions so;
    so.socketPath = socket;
    so.workers = 1;
    so.jobThreads = 1;
    // Far above any job's run time: no deadline fires, so no job is retried
    // at lower fidelity and every result is the full pipeline's.
    so.defaultBudgetSeconds = 3600.0;
    so.maxJobSeconds = 3600.0;
    server = std::make_unique<serve::Server>(std::move(so));
    if (const support::Status st = server->start(); !st.isOk())
      throw std::runtime_error("server start: " + st.toString());
    setup.push_back(secondsSince(t0));
    genSeconds.push_back(gen);
  }
  rec.raw("setup_s", jsonNumbers(setup)).raw("gen_s", jsonNumbers(genSeconds));

  std::vector<const Payload*> sends;
  for (const Payload& p : payloads) sends.push_back(&p);
  std::vector<std::vector<ServedJob>> done(kClients);
  std::vector<std::string> errors(kClients);
  const double cpu0 = cpuSeconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stopAt = after(t0, a.seconds);
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          errors[c] = clientLoop(socket, sends, a.seed * kClients + c,
                                 stopAt, done[c]);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double loopSeconds = secondsSince(t0);
  const double loopCpu = cpuSeconds() - cpu0;
  const obs::Collector stats = server->statsSnapshot();
  server->stop();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("client: " + e);

  std::vector<std::string> jobs;
  for (const std::vector<ServedJob>& client : done)
    for (const ServedJob& j : client) jobs.push_back(servedJobJson(j));
  JsonObject nets;
  for (const Payload& p : payloads)
    nets.num(p.label, static_cast<double>(p.nets));
  rec.raw("served",
          JsonObject()
              .num("loop_s", loopSeconds)
              .num("cpu_s", loopCpu)
              .num("queue_peak_depth",
                   stats.gaugeOr(obs::names::kServeQueuePeakDepth, 0.0))
              .num("jobs_retried", static_cast<double>(stats.counter(
                                       obs::names::kServeJobsRetried)))
              .raw("nets", nets.done())
              .raw("jobs", jsonArray(jobs))
              .done());

  std::vector<std::string> replays;
  std::vector<std::string> traced;
  for (const Payload& p : payloads) {
    const JobInput input{p.label, nullptr, &p.defText};
    (a.trace ? traced : replays).push_back(jobJson(runJob(w, input, a.trace)));
  }
  rec.raw("jobs", jsonArray(replays)).raw("traced", jsonArray(traced));
}

bool parseArgs(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      continue;
    }
    if (key == "--work-dir") {
      a.workDir = value;
      continue;
    }
    if (key == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      a.trace = std::strtol(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == value || *end != '\0') return false;
  }
  return !a.workload.empty() && a.seconds >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread. With glibc's default of an arena per
  // thread, the served workload's peak RSS depends on which of the client,
  // reader and worker threads' arenas happen to grow (136-172 MB across
  // identical runs); with one it repeats to within 1 MB.
  ::mallopt(M_ARENA_MAX, 1);
  Args a;
  if (!parseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> [--seed n] "
                 "[--seconds s] [--trace 0|1] [--work-dir dir]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (k.name == a.workload) w = &k;
  if (!w) {
    std::fprintf(stderr, "perfbench_driver: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }
  const int nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  const Calibration calibration = calibrate(nproc);
  JsonObject rec;
  rec.str("workload", w->name)
      .num("seed", static_cast<double>(a.seed))
      .num("trace", a.trace ? 1 : 0)
      .num("nproc", nproc)
      .num("effective_cores", calibration.effectiveCores)
      .num("spin_per_s", calibration.spinPerSecond);
  try {
    if (w->served)
      runServed(*w, a, rec);
    else
      runDirect(*w, a, rec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  rec.num("peak_rss_mb", peakRssMb());
  std::printf("%s\n", rec.done().c_str());
  return 0;
}
