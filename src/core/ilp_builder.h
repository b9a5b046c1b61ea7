/// \file ilp_builder.h
/// Translation of the weighted interval assignment problem into the generic
/// binary ILP of Formula (1): objective (1a) weights each interval by
/// degree * f(I); one equality row (1b) per pin; one <=1 row (1c) per
/// conflict set (the linear-size alternative to quadratic pairwise rows).
#pragma once

#include "core/panel_kernel.h"
#include "ilp/model.h"

namespace cpr::core {

struct IlpBuild {
  ilp::Model model;
  /// model variable id per kernel interval (1:1, but kept explicit so
  /// callers don't depend on the ordering).
  std::vector<ilp::Index> varOfInterval;
};

/// Builds Formula (1) from the instance. When `pairwiseConflicts`
/// is true the quadratic pairwise encoding (x_i + x_i' <= 1 per overlapping
/// pair) is emitted instead of the conflict-set rows — only used by the
/// constraint-count ablation bench; the solutions are identical.
[[nodiscard]] IlpBuild buildIlpModel(const PanelKernel& k,
                                     bool pairwiseConflicts = false);

/// Decodes a 0/1 model solution back into a per-pin assignment.
[[nodiscard]] Assignment decodeIlpSolution(const PanelKernel& k,
                                           const IlpBuild& build,
                                           const std::vector<double>& x);

}  // namespace cpr::core
