#include "core/ilp_builder.h"

#include <cmath>

#include "support/contracts.h"

namespace cpr::core {

IlpBuild buildIlpModel(const PanelKernel& k, bool pairwiseConflicts) {
  IlpBuild out;
  const std::size_t nIv = k.numIntervals();
  out.varOfInterval.reserve(nIv);
  for (std::size_t i = 0; i < nIv; ++i) {
    out.varOfInterval.push_back(out.model.addBinary(k.weightOf(CandIdx{i})));
  }
  // (1b): sum_{Ii in Sj} x_i = 1 for every accessible pin.
  for (std::size_t j = 0; j < k.numPins(); ++j) {
    const std::span<const CandIdx> cand = k.candidatesOf(PinIdx{j});
    if (cand.empty()) continue;
    std::vector<ilp::Term> terms;
    terms.reserve(cand.size());
    for (const CandIdx i : cand) {
      CPR_DCHECK(i.idx() < out.varOfInterval.size());
      terms.push_back({out.varOfInterval[i.idx()], 1.0});
    }
    out.model.addConstraint(std::move(terms), ilp::Sense::Equal, 1.0);
  }
  if (!pairwiseConflicts) {
    // (1c): sum_{Ii in Cm} x_i <= 1 per conflict set.
    for (std::size_t m = 0; m < k.numConflicts(); ++m) {
      const std::span<const CandIdx> members = k.membersOf(ConflictIdx{m});
      std::vector<ilp::Term> terms;
      terms.reserve(members.size());
      for (const CandIdx i : members) {
        CPR_DCHECK(i.idx() < out.varOfInterval.size());
        terms.push_back({out.varOfInterval[i.idx()], 1.0});
      }
      out.model.addConstraint(std::move(terms), ilp::Sense::LessEqual, 1.0);
    }
  } else {
    // Quadratic pairwise encoding for the ablation bench.
    for (std::size_t m = 0; m < k.numConflicts(); ++m) {
      const std::span<const CandIdx> members = k.membersOf(ConflictIdx{m});
      for (std::size_t a = 0; a < members.size(); ++a) {
        for (std::size_t b = a + 1; b < members.size(); ++b) {
          out.model.addConstraint(
              {{out.varOfInterval[members[a].idx()], 1.0},
               {out.varOfInterval[members[b].idx()], 1.0}},
              ilp::Sense::LessEqual, 1.0);
        }
      }
    }
  }
  return out;
}

Assignment decodeIlpSolution(const PanelKernel& k, const IlpBuild& build,
                             const std::vector<double>& x) {
  Assignment out;
  const std::size_t nPins = k.numPins();
  // The solution vector must cover every variable the build created, and
  // the build must map every interval of this kernel: a mismatched pair
  // (kernel from one panel, build from another) would decode garbage.
  CPR_CHECK(build.varOfInterval.size() == k.numIntervals());
  out.intervalOfPin.assign(nPins, geom::kInvalidIndex);
  for (std::size_t j = 0; j < nPins; ++j) {
    for (const CandIdx i : k.candidatesOf(PinIdx{j})) {
      const auto var = std::size_t(build.varOfInterval[i.idx()]);
      CPR_DCHECK(var < x.size());
      if (x[var] > 0.5) {
        out.intervalOfPin[j] = i.value();
        out.objective += k.profitOf(i);
        break;
      }
    }
  }
  return out;
}

}  // namespace cpr::core
