#include "core/panel_kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "db/layer.h"
#include "obs/names.h"

namespace cpr::core {

namespace {

/// Appends the end offset of a just-filled CSR row. Offsets are stored as
/// Index; a panel whose flat adjacency no longer fits would silently wrap
/// and corrupt every span handed out later.
void closeRow(std::vector<Index>& off, std::size_t total) {
  CPR_CHECK(total <= std::size_t{std::numeric_limits<Index>::max()});
  off.push_back(static_cast<Index>(total));
}

/// Counting-sort transpose: from rows `off`/`data` (row ids of type `Row`,
/// entries of type `Col` below `nCols`) builds `offT`/`dataT` with one row
/// per column id. Filling in ascending row order leaves every transposed
/// row ascending.
template <typename Row, typename Col>
void transpose(const std::vector<Index>& off, const std::vector<Col>& data,
               std::size_t nCols, std::vector<Index>& offT,
               std::vector<Row>& dataT) {
  offT.assign(nCols + 1, 0);
  for (const Col c : data) {
    // An entry outside the column space would turn the histogram below
    // into an out-of-bounds write.
    CPR_DCHECK(c.idx() < nCols);
    ++offT[c.idx() + 1];
  }
  for (std::size_t c = 0; c < nCols; ++c) offT[c + 1] += offT[c];
  dataT.assign(data.size(), Row{});
  std::vector<Index> cursor(offT.begin(), offT.end() - 1);
  for (std::size_t r = 0; r + 1 < off.size(); ++r) {
    for (Index e = off[r]; e < off[r + 1]; ++e)
      dataT[std::size_t(cursor[data[std::size_t(e)].idx()]++)] = Row{r};
  }
}

}  // namespace

PinIdx PanelKernelBuilder::addPin(Index designPin) {
  const PinIdx j{k_.designPin_.size()};
  k_.designPin_.push_back(designPin);
  k_.minimalOf_.push_back(CandIdx::invalid());
  return j;
}

CandIdx PanelKernelBuilder::addInterval(Coord track, geom::Interval span,
                                        Index net,
                                        std::span<const PinIdx> pins,
                                        bool minimal) {
  const CandIdx i{k_.track_.size()};
  k_.track_.push_back(track);
  k_.span_.push_back(span);
  k_.net_.push_back(net);
  k_.minimalBit_.push_back(minimal ? 1 : 0);
  for (const PinIdx q : pins) {
    CPR_DCHECK(q.idx() < k_.numPins());
    k_.ivPin_.push_back(q);
  }
  closeRow(k_.ivPinOff_, k_.ivPin_.size());
  return i;
}

PanelKernel PanelKernelBuilder::finish(obs::Collector* obs) && {
  PanelKernel& k = k_;
  const std::size_t nPins = k.numPins();
  const std::size_t nIv = k.numIntervals();
  auto guarded = [&](CandIdx i) {
    const geom::Interval& s = k.span_[i.idx()];
    return geom::Interval{s.lo - db::kLineEndExtension,
                          s.hi + db::kLineEndExtension};
  };

  {
    obs::ScopedTimer t(obs, obs::names::kPaoConflictSpan);
    // Conflict sets (Section 3.2): the maximal cliques of each track's
    // interval graph over guarded spans. Bucket ids by track (ascending ids
    // within a track), then order each bucket by guarded (lo, hi).
    std::vector<CandIdx> byTrack(nIv);
    std::vector<Index> trackOff;
    Coord lowTrack = 0;
    if (nIv > 0) {
      const auto [lo, hi] = std::minmax_element(k.track_.begin(), k.track_.end());
      lowTrack = *lo;
      trackOff.assign(std::size_t(*hi - *lo) + 2, 0);
      for (const Coord t : k.track_) ++trackOff[std::size_t(t - lowTrack) + 1];
      for (std::size_t t = 1; t < trackOff.size(); ++t)
        trackOff[t] += trackOff[t - 1];
      std::vector<Index> cursor(trackOff.begin(), trackOff.end() - 1);
      for (std::size_t i = 0; i < nIv; ++i)
        byTrack[std::size_t(cursor[std::size_t(k.track_[i] - lowTrack)]++)] =
            CandIdx{i};
    }
    std::vector<CandIdx> active;
    auto emit = [&](Coord track) {
      geom::Interval common = guarded(active.front());
      for (const CandIdx i : active) {
        common = geom::intersect(common, guarded(i));
        k.confMem_.push_back(i);
      }
      closeRow(k.confMemOff_, k.confMem_.size());
      k.confTrack_.push_back(track);
      k.confLm_.push_back(common.span());
    };
    for (std::size_t t = 0; t + 1 < trackOff.size(); ++t) {
      const auto first = byTrack.begin() + trackOff[t];
      const auto last = byTrack.begin() + trackOff[t + 1];
      std::sort(first, last, [&](CandIdx a, CandIdx b) {
        const geom::Interval& ia = k.span_[a.idx()];
        const geom::Interval& ib = k.span_[b.idx()];
        return ia.lo != ib.lo ? ia.lo < ib.lo : ia.hi < ib.hi;
      });
      // Scanline: `active` holds intervals containing the lo of the last
      // inserted interval. A maximal clique is emitted whenever an
      // insertion is about to expire members, and once at the end.
      const Coord track = lowTrack + static_cast<Coord>(t);
      active.clear();
      bool insertedSinceEmit = false;
      for (auto it = first; it != last; ++it) {
        const Coord lo = guarded(*it).lo;
        auto expired = [&](CandIdx a) { return guarded(a).hi < lo; };
        if (std::any_of(active.begin(), active.end(), expired)) {
          if (insertedSinceEmit && active.size() >= 2) emit(track);
          std::erase_if(active, expired);
          insertedSinceEmit = false;
        }
        active.push_back(*it);
        insertedSinceEmit = true;
      }
      if (insertedSinceEmit && active.size() >= 2) emit(track);
    }
  }
  obs::add(obs, obs::names::kConflictSets,
           static_cast<long>(k.numConflicts()));

  obs::ScopedTimer t(obs, obs::names::kPaoCompileSpan);
  transpose(k.ivPinOff_, k.ivPin_, nPins, k.pinCandOff_, k.pinCand_);
  transpose(k.confMemOff_, k.confMem_, nIv, k.ivConfOff_, k.ivConf_);

  k.profit_.resize(nIv);
  k.weight_.resize(nIv);
  k.degree_.resize(nIv);
  for (std::size_t i = 0; i < nIv; ++i) {
    const double span = static_cast<double>(k.span_[i].span());
    k.profit_[i] = model_ == ProfitModel::SqrtSpan ? std::sqrt(span) : span;
    k.degree_[i] = k.ivPinOff_[i + 1] - k.ivPinOff_[i];
    k.weight_[i] = k.degree_[i] * k.profit_[i];
  }

  // Per-pin candidate order for LR re-expansion: profit desc, id asc.
  k.sortedCand_ = k.pinCand_;
  for (std::size_t j = 0; j < nPins; ++j) {
    std::sort(k.sortedCand_.begin() + k.pinCandOff_[j],
              k.sortedCand_.begin() + k.pinCandOff_[j + 1],
              [&](CandIdx a, CandIdx b) {
                const double pa = k.profit_[a.idx()];
                const double pb = k.profit_[b.idx()];
                return pa != pb ? pa > pb : a < b;
              });
  }
  return std::move(k_);
}

std::size_t PanelKernel::footprintBytes() const {
  auto bytes = [](const auto& v) { return v.size() * sizeof(v[0]); };
  return bytes(pinCandOff_) + bytes(pinCand_) + bytes(sortedCand_) +
         bytes(ivPinOff_) +
         bytes(ivPin_) + bytes(confMemOff_) + bytes(confMem_) +
         bytes(ivConfOff_) + bytes(ivConf_) + bytes(track_) + bytes(span_) +
         bytes(net_) + bytes(profit_) + bytes(weight_) + bytes(degree_) +
         bytes(minimalBit_) + bytes(minimalOf_) + bytes(designPin_) +
         bytes(confTrack_) + bytes(confLm_);
}

AssignmentAudit audit(const PanelKernel& k, const Assignment& a) {
  AssignmentAudit out;
  // Distinct selected intervals (a shared interval assigned to several pins
  // counts once for overlap checking, once per pin for the objective).
  std::vector<CandIdx> selected;
  const std::size_t nPins = k.numPins();
  CPR_CHECK(a.intervalOfPin.size() == nPins);
  for (std::size_t j = 0; j < nPins; ++j) {
    const Index raw = a.intervalOfPin[j];
    CPR_DCHECK(raw == geom::kInvalidIndex ||
               CandIdx{raw}.idx() < k.numIntervals());
    if (raw == geom::kInvalidIndex) {
      ++out.unassignedPins;
      continue;
    }
    const CandIdx i{raw};
    out.objective += k.profitOf(i);
    selected.push_back(i);
    // The assigned interval must be a candidate of this pin.
    const std::span<const CandIdx> cand = k.candidatesOf(PinIdx{j});
    if (std::find(cand.begin(), cand.end(), i) == cand.end())
      out.eachPinCovered = false;
  }
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());

  // Group by track and count pairwise diff-net overlaps.
  std::map<Coord, std::vector<CandIdx>> byTrack;
  for (const CandIdx i : selected) byTrack[k.trackOf(i)].push_back(i);
  for (const auto& [track, ids] : byTrack) {
    for (std::size_t u = 0; u < ids.size(); ++u) {
      for (std::size_t v = u + 1; v < ids.size(); ++v) {
        if (k.netOf(ids[u]) != k.netOf(ids[v]) &&
            k.spanOf(ids[u]).overlaps(k.spanOf(ids[v])))
          ++out.overlapsBetweenNets;
      }
    }
  }
  return out;
}

}  // namespace cpr::core
