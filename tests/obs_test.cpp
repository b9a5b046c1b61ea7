#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/collector.h"
#include "obs/names.h"
#include "obs/report.h"

namespace cpr::obs {
namespace {

TEST(Collector, CountersAccumulateAndDefaultToZero) {
  Collector c;
  EXPECT_EQ(c.counter("never.touched"), 0);
  c.add("a.b");
  c.add("a.b", 4);
  EXPECT_EQ(c.counter("a.b"), 5);
}

TEST(Collector, GaugesAndNotesLastWriteWins) {
  Collector c;
  EXPECT_DOUBLE_EQ(c.gaugeOr("g", -1.0), -1.0);
  c.gauge("g", 1.5);
  c.gauge("g", 2.5);
  EXPECT_DOUBLE_EQ(c.gaugeOr("g", -1.0), 2.5);
  c.note("k", "first");
  c.note("k", "second");
  EXPECT_EQ(c.notes().at("k"), "second");
}

TEST(Collector, SeriesPrependSrcColumn) {
  Collector c(7);
  c.row("s", {"iter", "value"}, {1.0, 10.0});
  c.row("s", {"iter", "value"}, {2.0, 20.0});
  const Series& s = c.series().at("s");
  ASSERT_EQ(s.columns.size(), 3U);
  EXPECT_EQ(s.columns[0], "src");
  EXPECT_EQ(s.columns[1], "iter");
  ASSERT_EQ(s.rows.size(), 2U);
  EXPECT_DOUBLE_EQ(s.rows[0][0], 7.0);  // src id
  EXPECT_DOUBLE_EQ(s.rows[1][2], 20.0);
}

TEST(Collector, TimerNestingRecordsDepth) {
  Collector c;
  {
    ScopedTimer outer(&c, "outer");
    {
      ScopedTimer inner(&c, "inner");
      ScopedTimer innermost(&c, "innermost");
    }
    ScopedTimer sibling(&c, "sibling");
  }
  ASSERT_EQ(c.spans().size(), 4U);
  int depthOf[4] = {};
  for (const Span& s : c.spans()) {
    if (s.name == "outer") depthOf[0] = s.depth;
    if (s.name == "inner") depthOf[1] = s.depth;
    if (s.name == "innermost") depthOf[2] = s.depth;
    if (s.name == "sibling") depthOf[3] = s.depth;
  }
  EXPECT_EQ(depthOf[0], 0);
  EXPECT_EQ(depthOf[1], 1);
  EXPECT_EQ(depthOf[2], 2);
  EXPECT_EQ(depthOf[3], 1);
}

TEST(Collector, NullCollectorIsSafe) {
  ScopedTimer t(nullptr, "noop");
  add(nullptr, "x");
  gauge(nullptr, "x", 1.0);
  note(nullptr, "x", "y");
  row(nullptr, "x", {"a"}, {1.0});
}

TEST(Collector, MergeSumsCountersAndAppendsSeries) {
  Collector a(0);
  Collector b(1);
  a.add("n", 2);
  b.add("n", 3);
  a.row("s", {"v"}, {1.0});
  b.row("s", {"v"}, {2.0});
  b.gauge("g", 9.0);
  b.note("k", "v");
  a.merge(b);
  EXPECT_EQ(a.counter("n"), 5);
  const Series& s = a.series().at("s");
  ASSERT_EQ(s.rows.size(), 2U);
  EXPECT_DOUBLE_EQ(s.rows[0][0], 0.0);
  EXPECT_DOUBLE_EQ(s.rows[1][0], 1.0);
  EXPECT_DOUBLE_EQ(a.gaugeOr("g", 0.0), 9.0);
  EXPECT_EQ(a.notes().at("k"), "v");
}

TEST(Collector, ThreadedWorkersMergeDeterministically) {
  // The concurrency pattern used by the optimizer: one collector per worker,
  // merged in fixed order afterwards. The merged counters and series must be
  // independent of interleaving.
  constexpr int kWorkers = 8;
  auto runOnce = [] {
    std::vector<Collector> per;
    for (int w = 0; w < kWorkers; ++w) per.emplace_back(w);
    std::vector<std::thread> pool;
    pool.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      pool.emplace_back([&per, w] {
        for (int i = 0; i < 100 * (w + 1); ++i) per[w].add("work.items");
        per[w].row("work.trace", {"w"}, {static_cast<double>(w)});
      });
    }
    for (std::thread& t : pool) t.join();
    Collector total;
    for (const Collector& c : per) total.merge(c);
    return total;
  };
  const Collector a = runOnce();
  const Collector b = runOnce();
  EXPECT_EQ(a.counter("work.items"), 100 * kWorkers * (kWorkers + 1) / 2);
  EXPECT_EQ(a.counter("work.items"), b.counter("work.items"));
  ASSERT_EQ(a.series().at("work.trace").rows.size(), kWorkers);
  EXPECT_EQ(a.series().at("work.trace").rows,
            b.series().at("work.trace").rows);
  EXPECT_EQ(reportJson(a), reportJson(b));
}

TEST(Report, JsonGolden) {
  // Exact serialized form of a small collector: schema tag, sorted keys,
  // escaped strings. A format change must be a conscious schema bump.
  Collector c(0);
  c.note("tool", "cpr \"quoted\"\n");
  c.add("b.count", 2);
  c.add("a.count", 1);
  c.gauge("z.g", 1.5);
  c.row("it", {"k"}, {3.0});
  const std::string expected =
      "{\n"
      "  \"schema\": \"cpr.report.v1\",\n"
      "  \"notes\": {\n"
      "    \"tool\": \"cpr \\\"quoted\\\"\\n\"\n"
      "  },\n"
      "  \"counters\": {\n"
      "    \"a.count\": 1,\n"
      "    \"b.count\": 2\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"z.g\": 1.5\n"
      "  },\n"
      "  \"series\": {\n"
      "    \"it\": {\"columns\": [\"src\", \"k\"], \"rows\": [[0, 3]]}\n"
      "  },\n"
      "  \"phases\": []\n"
      "}\n";
  EXPECT_EQ(reportJson(c), expected);

  EXPECT_EQ(reportJson(Collector{}),
            "{\n"
            "  \"schema\": \"cpr.report.v1\",\n"
            "  \"notes\": {},\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"series\": {},\n"
            "  \"phases\": []\n"
            "}\n");
}

TEST(Report, ChromeTraceContainsSpansAndCounters) {
  Collector c(3);
  {
    ScopedTimer t(&c, "phase.a");
  }
  c.add("x.count", 4);
  const std::string trace = chromeTrace(c);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"phase.a\""), std::string::npos);
  EXPECT_NE(trace.find("\"tid\": 3"), std::string::npos);
  EXPECT_NE(trace.find("\"x.count\": 4"), std::string::npos);
}

TEST(Report, CanonicalNamesFollowConvention) {
  // Every canonical counter is dot-separated lower_snake_case with a known
  // layer prefix (the convention documented in DESIGN.md).
  using namespace names;
  const std::vector<std::string_view> all = {
      kGenIntervals,   kGenShared,         kGenBlockedPins, kConflictSets,
      kLrIterations,   kLrRemovalRounds,   kLrReexpandUpgrades,
      kIlpNodes,       kIlpPivots,
      kIlpNotProved,   kPaoPanels,         kPaoIntervals,   kPaoConflicts,
      kPaoUnassigned,  kPaoFallbacks,      kPaoKernelBytes,
      kRouteRrrIterations,
      kRouteCongestedPreRrr, kRouteRipups, kRouteRetries,   kRouteSearches,
      kRoutePops,      kRouteDroppedSharing, kDrcViolations, kDrcLineEnd,
      kDrcViaSpacing,  kDrcDirtyNets};
  for (const std::string_view n : all) {
    ASSERT_FALSE(n.empty());
    EXPECT_NE(n.find('.'), std::string_view::npos) << n;
    for (const char ch : n) {
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') ||
                  ch == '.' || ch == '_')
          << n;
    }
    const std::string_view layer = n.substr(0, n.find('.'));
    const bool known = layer == "gen" || layer == "conflict" || layer == "lr" ||
                       layer == "ilp" || layer == "pao" || layer == "route" ||
                       layer == "drc" || layer == "cli" || layer == "bench";
    EXPECT_TRUE(known) << n;
  }
}

}  // namespace
}  // namespace cpr::obs
