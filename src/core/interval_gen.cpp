#include "core/interval_gen.h"

#include <algorithm>

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

/// A candidate that an earlier pin generated and that also covers a later
/// pin, chained per covered pin (`next` is an index into the same pool).
struct SharedLink {
  Coord track;
  Interval span;
  CandIdx id;
  Index next;
};

constexpr Index kNoLink = -1;

/// First pin of an x.lo-sorted track bucket whose x.lo is at least `lo`.
std::vector<TrackPin>::const_iterator firstFrom(
    const std::vector<TrackPin>& bucket, Coord lo) {
  return std::lower_bound(
      bucket.begin(), bucket.end(), lo,
      [](const TrackPin& p, Coord c) { return p.x.lo < c; });
}

/// Appends the candidates of one or more panels to a kernel builder.
class Generator {
 public:
  Generator(const db::Design& design, const GenOptions& opts,
            PanelKernelBuilder& out)
      : design_(design), opts_(opts), out_(out) {}

  void addPanel(const db::Panel& panel) {
    const std::size_t firstLocal = out_.numPins();
    for (const Index dp : panel.pins) (void)out_.addPin(dp);
    sharedHead_.resize(out_.numPins(), kNoLink);
    // Per-track pin buckets.
    const std::size_t nTracks = std::size_t(panel.tracks.span());
    std::vector<std::vector<TrackPin>> byTrack(nTracks);
    widestPin_ = 1;
    for (std::size_t k = 0; k < panel.pins.size(); ++k) {
      const db::Pin& pin = design_.pin(panel.pins[k]);
      widestPin_ = std::max(widestPin_, pin.shape.x.span());
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
  /// Returns (creating if needed) the interval id for (`local`'s net,
  /// track, span); a new interval is associated with every same-net pin it
  /// covers on that track. An identical interval covers `local` too, so if
  /// an earlier pin made it, it sits on `local`'s shared chain. (`local`'s
  /// own strips on one track are distinct; the one repeat, a strip equal to
  /// the minimum interval, is resolved by the caller.)
  CandIdx internInterval(Coord track, Interval span, Index net, PinIdx local,
                         const std::vector<TrackPin>& bucket, bool minimal) {
    for (Index e = sharedHead_[local.idx()]; e != kNoLink;
         e = sharedLinks_[std::size_t(e)].next) {
      const SharedLink& link = sharedLinks_[std::size_t(e)];
      if (link.track != track || link.span != span) continue;
      if (minimal) out_.markMinimal(link.id);
      return link.id;
    }
    // The bucket is sorted by x.lo, so the pins inside `span` start at the
    // first x.lo >= span.lo and end before the first x.lo > span.hi.
    covered_.clear();
    for (auto tp = firstFrom(bucket, span.lo);
         tp != bucket.end() && tp->x.lo <= span.hi; ++tp) {
      if (tp->net == net && span.contains(tp->x))
        covered_.push_back(tp->localPin);
    }
    const CandIdx id = out_.addInterval(track, span, net, covered_, minimal);
    if (covered_.size() > 1) {
      ++shared_;
      // Pins are generated in ascending order; only later ones look it up.
      for (const PinIdx q : covered_) {
        if (q <= local) continue;
        sharedLinks_.push_back(
            SharedLink{track, span, id, sharedHead_[q.idx()]});
        sharedHead_[q.idx()] = static_cast<Index>(sharedLinks_.size() - 1);
      }
    }
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
      // vertical cutting line of each diff-net pin). A pin overlapping
      // `avail` starts at most `widestPin_ - 1` columns before it.
      lefts_.assign(1, avail.lo);
      rights_.assign(1, avail.hi);
      for (auto it = firstFrom(bucket, avail.lo - (widestPin_ - 1));
           it != bucket.end() && it->x.lo <= avail.hi; ++it) {
        const TrackPin& q = *it;
        if (q.localPin == local || q.net == pin.net) continue;
        if (!q.x.overlaps(avail)) continue;
        if (q.x.hi < pin.shape.x.lo) {
          lefts_.push_back(q.x.hi + 1);
        } else if (q.x.lo > pin.shape.x.hi) {
          rights_.push_back(q.x.lo - 1);
        }
        // Diff-net pins overlapping the pin's own columns produce no cut
        // line; the conflict sets capture that interference.
      }
      dedupe(lefts_);
      dedupe(rights_);

      CandIdx id = CandIdx::invalid();  // the minimum interval, once made
      for (const Coord le : lefts_) {
        if (le > pin.shape.x.lo) continue;
        for (const Coord re : rights_) {
          if (re < pin.shape.x.hi) continue;
          const CandIdx strip = internInterval(t, Interval{le, re}, pin.net,
                                               local, bucket,
                                               /*minimal=*/false);
          if (le == pin.shape.x.lo && re == pin.shape.x.hi) id = strip;
        }
      }
      // A minimum interval on every accessible track; the pin's own
      // fallback is the first one.
      if (id.valid()) {
        out_.markMinimal(id);
      } else {
        id = internInterval(t, pin.shape.x, pin.net, local, bucket,
                            /*minimal=*/true);
      }
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
  std::vector<Index> sharedHead_;  ///< per kernel pin: first shared link
  std::vector<SharedLink> sharedLinks_;
  std::vector<Coord> lefts_, rights_;
  Coord widestPin_ = 1;  ///< widest pin (columns) of the current panel
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
