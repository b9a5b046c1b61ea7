#include "route/negotiation_router.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

#include "db/layer.h"
#include "obs/names.h"
#include "route/engine.h"
#include "route/wave_scheduler.h"
#include "support/contracts.h"
#include "support/thread_pool.h"

namespace cpr::route {

namespace {
using Clock = std::chrono::steady_clock;

/// RRR iterations without material progress before the loop exits (see
/// `RrrStallDetector`).
constexpr int kCongestionStallIters = 4;
/// Present-sharing penalty of RRR iteration i is kPresentFactor * i.
constexpr float kPresentFactor = 3.0F;

/// Greedily drops routed nets until no grid is shared (the survivor on each
/// contested grid keeps its route). Only a net that shares now can share
/// after earlier drops, so the walk visits just those, in net order.
void dropSharing(RouteEngine& engine, obs::Collector* obs) {
  for (const Index n : engine.sharingNets()) {
    if (engine.sharesGrid(n)) {
      engine.ripNet(n);
      obs->add(obs::names::kRouteDroppedSharing);
    }
  }
}

/// Routes every net loop of the negotiation through disjoint waves: rip the
/// wave, search its nets concurrently against the then-immutable grid,
/// commit the found plans serially in wave order, and retry the misses
/// sequentially with a widened window once all waves have landed (a widened
/// window escapes the disjointness boxes, so those retries cannot ride in a
/// wave). The wave partition and every commit order depend only on the net
/// list — never on the thread count — so results are bit-identical from
/// `threads = 1` to `threads = N`.
class BatchRouter {
 public:
  BatchRouter(RouteEngine& engine, support::ThreadPool& pool,
              obs::Collector* obs)
      : engine_(engine),
        pool_(pool),
        obs_(obs),
        scheduler_(engine.grid().width(), engine.grid().height()),
        scratches_(std::size_t(pool.size())) {}

  /// Rips and reroutes `nets` under `costs`. Stops launching waves once
  /// `deadline` expires (counting `route.timeout` once); already-searched
  /// waves still commit, so no net is ever left half-routed.
  void route(const std::vector<Index>& nets, const MazeCosts& costs,
             const support::Deadline& deadline) {
    if (nets.empty()) return;
    std::vector<geom::Rect> boxes(nets.size());
    for (std::size_t k = 0; k < nets.size(); ++k) {
      geom::Rect box = engine_.windowOf(nets[k]);
      if (!box.empty()) {
        box.x = geom::Interval{box.x.lo - kHalo, box.x.hi + kHalo};
        box.y = geom::Interval{box.y.lo - kHalo, box.y.hi + kHalo};
      }
      boxes[k] = box;
    }
    const auto waves = scheduler_.partition(nets, boxes);
    obs::add(obs_, obs::names::kRouteBatches, static_cast<long>(waves.size()));
    obs::add(obs_, obs::names::kRouteBatchConflicts, scheduler_.conflicts());

    std::vector<Index> misses;
    bool cut = false;
    for (const auto& wave : waves) {
      if (deadline.expired()) {
        cut = true;
        break;
      }
      if (wave.size() > 1)
        obs::add(obs_, obs::names::kRouteParallelNets,
                 static_cast<long>(wave.size()));
      for (Index net : wave) engine_.ripNet(net);
      if (plans_.size() < wave.size()) plans_.resize(wave.size());
      pool_.parallelFor(wave.size(), [&](int worker, std::size_t k) {
        engine_.searchNet(wave[k], costs, /*extraMargin=*/0,
                          scratches_[std::size_t(worker)], plans_[k]);
      });
      for (MazeScratch& s : scratches_) engine_.flushSearchStats(s);
      for (std::size_t k = 0; k < wave.size(); ++k) {
        if (plans_[k].found)
          engine_.commitPlan(wave[k], plans_[k]);
        else
          misses.push_back(wave[k]);
      }
    }
    if (!cut) {
      for (Index net : misses) {
        if (deadline.expired()) {
          cut = true;
          break;
        }
        obs::add(obs_, obs::names::kRouteRetries);
        engine_.routeNet(net, costs, scratches_.front(), /*extraMargin=*/24);
      }
    }
    if (cut) obs::add(obs_, obs::names::kRouteTimeout);
  }

  /// Largest per-worker arena footprint so far (the retries run on worker
  /// 0's arena, so they are covered too).
  [[nodiscard]] std::size_t scratchPeakBytes() const {
    std::size_t peak = 0;
    for (const MazeScratch& s : scratches_)
      peak = std::max(peak, s.footprintBytes());
    return peak;
  }

 private:
  /// Influence halo around a net's window: the search window margin, plus
  /// the line-end extension a commit writes beyond its runs, plus the
  /// adjacency (one grid) and forbidden-via (kViaSpacing) lookups that a
  /// search reads around the window.
  static constexpr Coord kHalo =
      kWindowMargin + db::kLineEndExtension + 1 + db::kViaSpacing;

  RouteEngine& engine_;
  support::ThreadPool& pool_;
  obs::Collector* obs_;
  WaveScheduler scheduler_;
  /// One search arena per worker; worker 0's also serves the retries.
  std::vector<MazeScratch> scratches_;
  /// One plan per wave slot, refilled by every wave (slot k holds the k-th
  /// net of the current wave).
  std::vector<NetPlan> plans_;
};

}  // namespace

RoutingResult routeNegotiated(const db::Design& design,
                              const core::PinAccessPlan* plan,
                              const NegotiationOptions& opts) {
  // History is an 8-bit count that grows at most once per RRR iteration.
  CPR_CHECK(opts.maxRrrIterations <= 255);
  const auto t0 = Clock::now();
  RoutingResult result;
  obs::Collector* obs = &result.stats;
  RouteEngine engine(design, plan, obs);
  RoutingGrid& grid = engine.grid();
  const auto numNets = static_cast<Index>(design.nets().size());

  support::ThreadPool pool(
      std::min(support::ThreadPool::clampThreads(opts.threads),
               std::max(1, static_cast<int>(numNets))));
  BatchRouter batch(engine, pool, obs);

  std::vector<Index> todo;
  todo.reserve(static_cast<std::size_t>(numNets));

  // ---- independent routing stage ----
  MazeCosts costs;  // sharing is free here (present = 0)
  {
    obs::ScopedTimer t(obs, obs::names::kRouteIndependentSpan);
    for (Index n = 0; n < numNets; ++n) todo.push_back(n);
    batch.route(todo, costs, opts.deadline);
  }
  long congestion = grid.congestedNodeCount();
  obs->add(obs::names::kRouteCongestedPreRrr, congestion);

  // ---- rip-up & reroute ----
  RrrStallDetector stall(congestion, kCongestionStallIters);
  {
    obs::ScopedTimer t(obs, obs::names::kRouteRrrSpan);
    for (int iter = 1; iter <= opts.maxRrrIterations; ++iter) {
      if (opts.deadline.expired()) {
        obs::add(obs, obs::names::kRouteTimeout);
        break;
      }
      congestion = grid.congestedNodeCount();
      if (congestion == 0) break;
      if (stall.shouldStop(congestion))
        break;  // negotiation has stopped making material progress
      obs->add(obs::names::kRouteRrrIterations);
      obs->row("rrr.iter", {"iter", "congested"},
               {static_cast<double>(iter), static_cast<double>(congestion)});
      // Snapshot this iteration's reroute set — unrouted nets plus nets
      // sharing a grid, in net order — then rip & reroute it as one batch.
      // (The legacy sequential loop re-tested sharing net by net as earlier
      // reroutes landed; the snapshot is the wave-order equivalent and is
      // what the determinism policy pins.)
      todo.clear();
      const std::vector<Index>& sharing = engine.sharingNets();
      auto next = sharing.begin();
      for (Index n = 0; n < numNets; ++n) {
        const bool shares = next != sharing.end() && *next == n;
        if (shares) ++next;
        // Failed nets keep retrying.
        if (shares || !engine.state(n).routed()) todo.push_back(n);
      }
      grid.accrueHistory();  // +1 on every node shared right now
      costs.present = kPresentFactor * static_cast<float>(iter);
      costs.adjacency = 0.5F * costs.present;
      batch.route(todo, costs, opts.deadline);
    }
  }
  // Unresolved sharing. Dropping it leaves the layout DRC-clean (every
  // violation puts two nets on one grid, db/layer.h): no repair stage.
  dropSharing(engine, obs);

  // Arena high-water mark. A gauge, not a counter: the value depends on how
  // nets landed on workers, so it may vary with the thread count.
  obs->gauge(obs::names::kRouteScratchPeakBytes,
             static_cast<double>(batch.scratchPeakBytes()));

  engine.signoff(result);
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return result;
}

}  // namespace cpr::route
