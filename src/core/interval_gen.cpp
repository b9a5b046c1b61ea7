#include "core/interval_gen.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "core/ids.h"
#include "obs/names.h"

namespace cpr::core {

namespace {

using geom::Interval;

/// Per-track view of a panel's pins, for cut-line and coverage queries.
struct TrackPin {
  PinIdx localPin;
  Interval x;
  Index net;
};

/// Appends the candidates of one or more panels to a kernel builder.
class Generator {
 public:
  Generator(const db::Design& design, const GenOptions& opts,
            PanelKernelBuilder& out)
      : design_(design), opts_(opts), out_(out) {}

  void addPanel(const db::Panel& panel) {
    const std::size_t firstLocal = out_.numPins();
    for (const Index dp : panel.pins) (void)out_.addPin(dp);
    // Per-track pin buckets.
    const std::size_t nTracks = std::size_t(panel.tracks.span());
    std::vector<std::vector<TrackPin>> byTrack(nTracks);
    for (std::size_t k = 0; k < panel.pins.size(); ++k) {
      const db::Pin& pin = design_.pin(panel.pins[k]);
      for (Coord t = pin.shape.y.lo; t <= pin.shape.y.hi; ++t) {
        byTrack[TrackIdx{t - panel.tracks.lo}.idx()].push_back(
            TrackPin{PinIdx{firstLocal + k}, pin.shape.x, pin.net});
      }
    }
    for (auto& bucket : byTrack) {
      std::sort(bucket.begin(), bucket.end(),
                [](const TrackPin& a, const TrackPin& b) { return a.x.lo < b.x.lo; });
    }
    // Generate candidates pin by pin.
    for (std::size_t k = 0; k < panel.pins.size(); ++k) {
      const PinIdx local{firstLocal + k};
      generateForPin(panel, byTrack, local, design_.pin(panel.pins[k]));
      if (!out_.minimalIntervalOf(local).valid()) ++blocked_;
    }
  }

  long shared() const { return shared_; }
  long blocked() const { return blocked_; }

 private:
  /// Returns (creating if needed) the interval id for (net, track, span);
  /// associates it with every same-net pin it covers on that track.
  CandIdx internInterval(Coord track, Interval span, Index net,
                         const std::vector<TrackPin>& bucket, bool minimal) {
    const auto key = std::make_tuple(net, track, span.lo, span.hi);
    if (auto it = interned_.find(key); it != interned_.end()) {
      if (minimal) out_.markMinimal(it->second);
      return it->second;
    }
    covered_.clear();
    for (const TrackPin& tp : bucket) {
      if (tp.net == net && span.contains(tp.x)) covered_.push_back(tp.localPin);
    }
    if (covered_.size() > 1) ++shared_;
    const CandIdx id = out_.addInterval(track, span, net, covered_, minimal);
    interned_.emplace(key, id);
    return id;
  }

  void generateForPin(const db::Panel& panel,
                      const std::vector<std::vector<TrackPin>>& byTrack,
                      PinIdx local, const db::Pin& pin) {
    Interval box = design_.netBox(pin.net).x;
    if (opts_.maxExtent > 0) {
      box = geom::intersect(
          box, Interval{pin.shape.x.lo - opts_.maxExtent,
                        pin.shape.x.hi + opts_.maxExtent});
    }

    for (Coord t = pin.shape.y.lo; t <= pin.shape.y.hi; ++t) {
      const Interval segment =
          panel.freeOn(t).segmentContaining(pin.shape.x.lo);
      if (!segment.contains(pin.shape.x)) continue;  // blocked track
      const Interval avail = geom::intersect(segment, box);
      if (!avail.contains(pin.shape.x)) continue;

      const auto& bucket = byTrack[TrackIdx{t - panel.tracks.lo}.idx()];
      // Cut lines of diff-net pins on this track inside `avail`
      // (paper Fig. 3(a): candidate edges are the box edges plus the
      // vertical cutting line of each diff-net pin).
      std::vector<Coord> lefts{avail.lo};
      std::vector<Coord> rights{avail.hi};
      for (const TrackPin& q : bucket) {
        if (q.localPin == local || q.net == pin.net) continue;
        if (!q.x.overlaps(avail)) continue;
        if (q.x.hi < pin.shape.x.lo) {
          lefts.push_back(q.x.hi + 1);
        } else if (q.x.lo > pin.shape.x.hi) {
          rights.push_back(q.x.lo - 1);
        }
        // Diff-net pins overlapping the pin's own columns produce no cut
        // line; the conflict sets capture that interference.
      }
      dedupe(lefts);
      dedupe(rights);

      for (const Coord le : lefts) {
        if (le > pin.shape.x.lo) continue;
        for (const Coord re : rights) {
          if (re < pin.shape.x.hi) continue;
          (void)internInterval(t, Interval{le, re}, pin.net, bucket,
                               /*minimal=*/false);
        }
      }
      // A minimum interval on every accessible track; the pin's own
      // fallback is the first one.
      const CandIdx id = internInterval(t, pin.shape.x, pin.net, bucket,
                                        /*minimal=*/true);
      if (!out_.minimalIntervalOf(local).valid())
        out_.setMinimalInterval(local, id);
    }
  }

  static void dedupe(std::vector<Coord>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }

  const db::Design& design_;
  const GenOptions& opts_;
  PanelKernelBuilder& out_;
  std::map<std::tuple<Index, Coord, Coord, Coord>, CandIdx> interned_;
  std::vector<PinIdx> covered_;
  long shared_ = 0;
  long blocked_ = 0;
};

}  // namespace

PanelKernel buildPanelKernel(const db::Design& design,
                             std::span<const db::Panel> panels,
                             const GenOptions& opts, obs::Collector* obs) {
  PanelKernelBuilder builder(opts.profitModel);
  {
    obs::ScopedTimer t(obs, obs::names::kPaoGenSpan);
    Generator gen(design, opts, builder);
    for (const db::Panel& panel : panels) gen.addPanel(panel);
    obs::add(obs, obs::names::kGenIntervals,
             static_cast<long>(builder.numIntervals()));
    obs::add(obs, obs::names::kGenShared, gen.shared());
    obs::add(obs, obs::names::kGenBlockedPins, gen.blocked());
  }
  return std::move(builder).finish(obs);
}

}  // namespace cpr::core
