#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <set>

#include "core/conflict.h"
#include "db/layer.h"

namespace cpr::core {
namespace {

using geom::Interval;

/// One diff-net interval per item. The kernel inflates every span by
/// db::kLineEndExtension (one column) per side before testing overlap.
PanelKernel kernelWith(std::vector<std::pair<geom::Coord, Interval>> items) {
  PanelKernelBuilder b(ProfitModel::SqrtSpan);
  for (std::size_t k = 0; k < items.size(); ++k) {
    (void)b.addInterval(items[k].first, items[k].second,
                        static_cast<Index>(k), {}, false);
  }
  return std::move(b).finish();
}

std::set<std::set<Index>> asSets(const std::vector<std::vector<CandIdx>>& cs) {
  std::set<std::set<Index>> out;
  for (const std::vector<CandIdx>& c : cs) {
    std::set<Index> members;
    for (const CandIdx i : c) members.insert(i.value());
    out.insert(members);
  }
  return out;
}

/// The kernel's conflict rows, as member lists.
std::vector<std::vector<CandIdx>> rows(const PanelKernel& k) {
  std::vector<std::vector<CandIdx>> out;
  for (std::size_t m = 0; m < k.numConflicts(); ++m) {
    const std::span<const CandIdx> members = k.membersOf(ConflictIdx{m});
    out.emplace_back(members.begin(), members.end());
  }
  return out;
}

TEST(Conflict, DisjointIntervalsNoConflicts) {
  // Two free columns between line ends: room for both extensions.
  const PanelKernel k = kernelWith({{0, {0, 3}}, {0, {6, 9}}, {0, {12, 14}}});
  EXPECT_EQ(k.numConflicts(), 0u);
}

TEST(Conflict, LineEndsOneColumnApartConflict) {
  // [0,3] and [5,8] do not overlap, but their extensions would meet at 4.
  const PanelKernel k = kernelWith({{0, {0, 3}}, {0, {5, 8}}});
  ASSERT_EQ(k.numConflicts(), 1u);
  EXPECT_EQ(k.conflictSpanOf(ConflictIdx{0}), 1);  // guarded common [4,4]
}

TEST(Conflict, SingleOverlapPair) {
  const PanelKernel k = kernelWith({{0, {0, 5}}, {0, {4, 9}}});
  ASSERT_EQ(k.numConflicts(), 1u);
  EXPECT_EQ(k.membersOf(ConflictIdx{0}).size(), 2u);
  EXPECT_EQ(k.conflictSpanOf(ConflictIdx{0}), 4);  // guarded common [3,6]
}

TEST(Conflict, ChainYieldsTwoMaximalCliques) {
  // a-[0,5], b-[4,9], c-[8,12] (guarded [-1,6], [3,10], [7,13]): cliques
  // {a,b} and {b,c}, not {a,b,c}.
  const PanelKernel k = kernelWith({{0, {0, 5}}, {0, {4, 9}}, {0, {8, 12}}});
  const auto sets = asSets(rows(k));
  EXPECT_EQ(sets.size(), 2u);
  EXPECT_TRUE(sets.count({0, 1}));
  EXPECT_TRUE(sets.count({1, 2}));
}

TEST(Conflict, TracksAreIndependent) {
  const PanelKernel k = kernelWith({{0, {0, 5}}, {1, {0, 5}}, {0, {3, 8}}});
  ASSERT_EQ(k.numConflicts(), 1u);
  EXPECT_EQ(k.conflictTrackOf(ConflictIdx{0}), 0);
}

TEST(Conflict, Figure4LikeStack) {
  // Five nested intervals sharing a common core plus one off to the right:
  // the scanline must emit the big clique and the right pair.
  const PanelKernel k = kernelWith({{0, {0, 20}},
                                    {0, {2, 18}},
                                    {0, {4, 16}},
                                    {0, {6, 14}},
                                    {0, {8, 12}},
                                    {0, {17, 30}}});
  const auto sets = asSets(rows(k));
  EXPECT_TRUE(sets.count({0, 1, 2, 3, 4}));
  // Intervals whose guarded hi reaches 16: ids 0(21), 1(19), 2(17), 5.
  EXPECT_TRUE(sets.count({0, 1, 2, 5}));
  EXPECT_EQ(sets.size(), 2u);
}

TEST(Conflict, CommonIntersectionIsTight) {
  const PanelKernel k = kernelWith({{0, {0, 10}}, {0, {5, 15}}, {0, {7, 9}}});
  ASSERT_EQ(k.numConflicts(), 1u);
  // Guarded common [6,10]: L_m = 5.
  EXPECT_EQ(k.conflictSpanOf(ConflictIdx{0}), 5);
}

TEST(Conflict, IdenticalIntervalsFormOneClique) {
  const PanelKernel k = kernelWith({{0, {3, 7}}, {0, {3, 7}}, {0, {3, 7}}});
  ASSERT_EQ(k.numConflicts(), 1u);
  EXPECT_EQ(k.membersOf(ConflictIdx{0}).size(), 3u);
}

/// Property: the scanline agrees with the brute-force maximal-clique
/// enumeration on random interval families, and the clique count stays
/// linear in the interval count (paper Section 3.2).
class ConflictProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConflictProperty, MatchesBruteForce) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> nDist(1, 40);
  std::uniform_int_distribution<int> coordDist(0, 50);
  std::uniform_int_distribution<int> trackDist(0, 2);

  for (int round = 0; round < 50; ++round) {
    std::vector<std::pair<geom::Coord, Interval>> items;
    const int n = nDist(rng);
    for (int k = 0; k < n; ++k) {
      int a = coordDist(rng);
      int b = coordDist(rng);
      if (a > b) std::swap(a, b);
      items.push_back({trackDist(rng), {a, b}});
    }
    const PanelKernel k = kernelWith(items);
    const auto scan = asSets(rows(k));
    const auto ref =
        asSets(detectConflictsBruteForce(k, db::kLineEndExtension));
    EXPECT_EQ(scan, ref) << "round " << round;
    EXPECT_LE(k.numConflicts(), items.size());  // linear bound
    // Every clique's members truly share a common guarded range of span L_m.
    for (std::size_t m = 0; m < k.numConflicts(); ++m) {
      Interval common{std::numeric_limits<geom::Coord>::min(),
                      std::numeric_limits<geom::Coord>::max()};
      for (const CandIdx i : k.membersOf(ConflictIdx{m})) {
        common = geom::intersect(
            common, Interval{k.spanOf(i).lo - db::kLineEndExtension,
                             k.spanOf(i).hi + db::kLineEndExtension});
      }
      ASSERT_FALSE(common.empty());
      EXPECT_EQ(k.conflictSpanOf(ConflictIdx{m}), common.span());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictProperty,
                         ::testing::Values(31u, 32u, 33u, 34u, 35u, 36u));

}  // namespace
}  // namespace cpr::core
