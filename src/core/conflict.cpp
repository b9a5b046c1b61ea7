#include "core/conflict.h"

#include <algorithm>
#include <map>

namespace cpr::core {

std::vector<std::vector<CandIdx>> detectConflictsBruteForce(
    const PanelKernel& k, Coord guard) {
  auto guarded = [&](CandIdx i) {
    return geom::Interval{k.spanOf(i).lo - guard, k.spanOf(i).hi + guard};
  };
  std::map<Coord, std::vector<CandIdx>> byTrack;
  for (std::size_t i = 0; i < k.numIntervals(); ++i)
    byTrack[k.trackOf(CandIdx{i})].push_back(CandIdx{i});

  std::vector<std::vector<CandIdx>> out;
  for (const auto& [track, ids] : byTrack) {
    // Every maximal clique of an interval graph equals the set of intervals
    // containing some member's right endpoint; enumerate those point sets
    // and keep the inclusion-maximal distinct ones.
    std::vector<std::vector<CandIdx>> candidates;
    for (const CandIdx id : ids) {
      const Coord r = guarded(id).hi;
      std::vector<CandIdx> s;
      for (const CandIdx j : ids) {
        if (guarded(j).contains(r)) s.push_back(j);
      }
      if (s.size() >= 2) candidates.push_back(std::move(s));
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (std::size_t a = 0; a < candidates.size(); ++a) {
      bool maximal = true;
      for (std::size_t b = 0; b < candidates.size() && maximal; ++b) {
        if (a == b || candidates[b].size() <= candidates[a].size()) continue;
        maximal = !std::includes(candidates[b].begin(), candidates[b].end(),
                                 candidates[a].begin(), candidates[a].end());
      }
      if (maximal) out.push_back(candidates[a]);
    }
  }
  return out;
}

}  // namespace cpr::core
