#include <gtest/gtest.h>

#include "core/interval_gen.h"
#include "db/panel.h"
#include "gen/generator.h"

namespace cpr::gen {
namespace {

TEST(Generator, ProducesValidDesign) {
  GenOptions o;
  o.seed = 42;
  o.width = 100;
  o.numRows = 5;
  const db::Design d = generate(o);
  EXPECT_EQ(d.validate(), "");
  EXPECT_GT(d.nets().size(), 0u);
  EXPECT_GT(d.pins().size(), 0u);
}

TEST(Generator, IsDeterministic) {
  GenOptions o;
  o.seed = 7;
  o.width = 80;
  o.numRows = 4;
  const db::Design a = generate(o);
  const db::Design b = generate(o);
  ASSERT_EQ(a.pins().size(), b.pins().size());
  ASSERT_EQ(a.nets().size(), b.nets().size());
  for (std::size_t i = 0; i < a.pins().size(); ++i) {
    EXPECT_EQ(a.pins()[i].shape, b.pins()[i].shape);
    EXPECT_EQ(a.pins()[i].net, b.pins()[i].net);
  }
  ASSERT_EQ(a.blockages().size(), b.blockages().size());
}

TEST(Generator, SeedsProduceDifferentDesigns) {
  GenOptions o;
  o.width = 80;
  o.numRows = 4;
  o.seed = 1;
  const db::Design a = generate(o);
  o.seed = 2;
  const db::Design b = generate(o);
  bool differs = a.pins().size() != b.pins().size();
  for (std::size_t i = 0; !differs && i < a.pins().size(); ++i)
    differs = a.pins()[i].shape != b.pins()[i].shape;
  EXPECT_TRUE(differs);
}

TEST(Generator, EveryNetHasAtLeastTwoPins) {
  GenOptions o;
  o.seed = 5;
  o.width = 120;
  o.numRows = 6;
  const db::Design d = generate(o);
  for (const db::Net& n : d.nets()) EXPECT_GE(n.pins.size(), 2u);
}

TEST(Generator, PinsAreDisjoint) {
  GenOptions o;
  o.seed = 9;
  o.width = 60;
  o.numRows = 3;
  o.pinDensity = 0.5;
  const db::Design d = generate(o);
  for (std::size_t a = 0; a < d.pins().size(); ++a) {
    for (std::size_t b = a + 1; b < d.pins().size(); ++b) {
      EXPECT_FALSE(d.pins()[a].shape.overlaps(d.pins()[b].shape))
          << d.pins()[a].name << " vs " << d.pins()[b].name;
    }
  }
}

TEST(Generator, NetsRespectLocality) {
  GenOptions o;
  o.seed = 13;
  o.width = 200;
  o.numRows = 8;
  o.maxNetSpan = 20;
  o.maxNetRowSpread = 1;
  const db::Design d = generate(o);
  for (std::size_t n = 0; n < d.nets().size(); ++n) {
    const geom::Rect box = d.netBox(static_cast<db::Index>(n));
    EXPECT_LE(box.x.length(), 2 * o.maxNetSpan);
    // Row spread: tracks across at most (2*spread+1) rows.
    EXPECT_LE(box.y.length(),
              (2 * o.maxNetRowSpread + 1) * o.tracksPerRow - 1);
  }
}

TEST(Generator, EveryPinKeepsAFreeTrack) {
  GenOptions o;
  o.seed = 17;
  o.width = 100;
  o.numRows = 5;
  o.blockagesPerRow = 3.0;
  const db::Design d = generate(o);
  const core::PanelKernel k = core::buildPanelKernel(d, db::extractPanels(d));
  for (std::size_t j = 0; j < k.numPins(); ++j) {
    EXPECT_TRUE(k.minimalIntervalOf(core::PinIdx{j}).valid())
        << "pin " << d.pin(k.designPinOf(core::PinIdx{j})).name
        << " lost all access";
  }
}

TEST(PaperSuite, SpecsMatchTable2) {
  const auto& suite = paperSuite();
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_EQ(suiteSpec("ecc").nets, 1671);
  EXPECT_EQ(suiteSpec("efc").nets, 2219);
  EXPECT_EQ(suiteSpec("ctl").nets, 2706);
  EXPECT_EQ(suiteSpec("alu").nets, 3108);
  EXPECT_EQ(suiteSpec("div").nets, 5813);
  EXPECT_EQ(suiteSpec("top").nets, 22201);
  EXPECT_THROW((void)suiteSpec("nope"), std::invalid_argument);
}

TEST(PaperSuite, SmallestDesignBuildsWithExactNetCount) {
  const db::Design d = makeSuiteDesign(suiteSpec("ecc"));
  EXPECT_EQ(d.nets().size(), 1671u);
  EXPECT_EQ(d.validate(), "");
  EXPECT_EQ(d.tracksPerRow(), 10);  // the paper's 10-track panel
  // 21 um at 40 nm pitch, utilization-rescaled (DESIGN.md §4): the die keeps
  // the published square aspect ratio.
  EXPECT_NEAR(static_cast<double>(d.width()) / (10.0 * d.numRows()), 1.0, 0.06);
  EXPECT_GT(d.width(), 300);
}

}  // namespace
}  // namespace cpr::gen
