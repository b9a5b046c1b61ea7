/// Drives tools/lint (cpr_lint) over the fixture corpus in
/// tests/lint_corpus/. Two fixture shapes, both self-describing:
///
/// Single-file fixtures:
///   line 1: `// lint-as: <virtual repo path>` — the path the file is linted
///           as, so path-scoped rules (THROW-BOUNDARY, DEADLINE-RAW,
///           CONTRACT-COVERAGE, HEADER-HYGIENE, INDEX-CAST) can be
///           exercised without placing fixtures inside src/;
///   line 2: `// lint-expect: RULE@LINE ...` or `// lint-expect: none`.
///
/// Multi-file (tree) fixtures, for the architecture-graph rules
/// (LAYER-VIOLATION / LAYER-CYCLE / DEAD-HEADER):
///   line 1: `// lint-tree`
///   line 2: `// lint-expect: ...` with LINE numbers counted on the
///           *physical* fixture file, so expectations stay greppable;
///   then repeated `// lint-file: <virtual path>` markers, each opening a
///   virtual file whose content runs to the next marker. The whole set is
///   linted together with the real repo manifest (CPR_LINT_LAYERS_FILE).
///
/// The test asserts the linter reports exactly the expected rule IDs at the
/// expected lines — no more, no fewer — and separately checks the
/// suppression-directive semantics, the lexer's comment/string immunity,
/// the declaration-level IR, and the layer-manifest parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/arch.h"
#include "lint/concurrency.h"
#include "lint/hotpath.h"
#include "lint/ir.h"
#include "lint/lexer.h"
#include "lint/lint.h"

namespace {

namespace fs = std::filesystem;
using cpr::lint::Diagnostic;

struct Fixture {
  std::string name;    // file name inside the corpus directory
  bool isTree = false;
  std::string lintAs;  // single-file: virtual repo-relative path
  std::vector<std::pair<std::string, int>> expected;  // (rule, line)
  std::string source;  // single-file: whole fixture text
  // Tree fixtures: the virtual files plus each one's first physical line,
  // for mapping diagnostics back onto the fixture file.
  std::vector<cpr::lint::SourceFile> files;
  std::vector<int> fileStartLine;
  bool parsed = false;
};

bool parseExpectations(const std::string& expectLine, Fixture& fx) {
  const std::string kExpect = "// lint-expect: ";
  if (expectLine.rfind(kExpect, 0) != 0) return false;
  std::istringstream specs(expectLine.substr(kExpect.size()));
  std::string spec;
  while (specs >> spec) {
    if (spec == "none") break;
    const std::size_t at = spec.find('@');
    if (at == std::string::npos) return false;
    fx.expected.emplace_back(spec.substr(0, at),
                             std::stoi(spec.substr(at + 1)));
  }
  return true;
}

Fixture loadFixture(const fs::path& path) {
  Fixture fx;
  fx.name = path.filename().string();
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  fx.source = buf.str();

  std::istringstream lines(fx.source);
  std::string firstLine;
  std::string expectLine;
  std::getline(lines, firstLine);
  std::getline(lines, expectLine);

  if (firstLine == "// lint-tree") {
    fx.isTree = true;
    if (!parseExpectations(expectLine, fx)) return fx;
    const std::string kFile = "// lint-file: ";
    std::string line;
    int lineNo = 2;
    while (std::getline(lines, line)) {
      ++lineNo;
      if (line.rfind(kFile, 0) == 0) {
        fx.files.push_back(
            cpr::lint::SourceFile{line.substr(kFile.size()), {}});
        fx.fileStartLine.push_back(lineNo + 1);
      } else if (!fx.files.empty()) {
        fx.files.back().source += line + "\n";
      }
    }
    fx.parsed = !fx.files.empty();
    return fx;
  }

  const std::string kAs = "// lint-as: ";
  if (firstLine.rfind(kAs, 0) != 0) return fx;
  fx.lintAs = firstLine.substr(kAs.size());
  if (!parseExpectations(expectLine, fx)) return fx;
  fx.parsed = true;
  return fx;
}

std::vector<Fixture> loadCorpus() {
  std::vector<Fixture> out;
  for (const auto& entry : fs::directory_iterator(CPR_LINT_CORPUS_DIR)) {
    if (!entry.is_regular_file()) continue;
    out.push_back(loadFixture(entry.path()));
  }
  std::sort(out.begin(), out.end(),
            [](const Fixture& a, const Fixture& b) { return a.name < b.name; });
  return out;
}

const cpr::lint::LayerManifest& repoManifest() {
  static const cpr::lint::LayerManifest m = [] {
    cpr::lint::LayerManifest out;
    std::string error;
    if (!cpr::lint::loadLayerManifest(CPR_LINT_LAYERS_FILE, out, error)) {
      ADD_FAILURE() << "cannot load layer manifest: " << error;
    }
    return out;
  }();
  return m;
}

std::vector<std::pair<std::string, int>> found(const std::string& lintAs,
                                               const std::string& source) {
  std::vector<std::pair<std::string, int>> out;
  for (const Diagnostic& d : cpr::lint::lintSource(lintAs, source))
    out.emplace_back(d.rule, d.line);
  std::sort(out.begin(), out.end());
  return out;
}

/// Tree fixture run: lints the virtual file set with the repo manifest and
/// maps every diagnostic's line back to the physical fixture line.
std::vector<std::pair<std::string, int>> foundTree(const Fixture& fx) {
  std::vector<std::pair<std::string, int>> out;
  for (const Diagnostic& d :
       cpr::lint::lintFiles(fx.files, &repoManifest())) {
    int phys = -1;
    for (std::size_t i = 0; i < fx.files.size(); ++i) {
      if (fx.files[i].relPath == d.file)
        phys = fx.fileStartLine[i] + d.line - 1;
    }
    EXPECT_NE(phys, -1) << fx.name << ": diagnostic names unknown file "
                        << d.file;
    out.emplace_back(d.rule, phys);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string describe(const std::vector<std::pair<std::string, int>>& v) {
  std::ostringstream os;
  for (const auto& [rule, line] : v) os << rule << "@" << line << " ";
  return v.empty() ? std::string("<none>") : os.str();
}

TEST(ToolsLint, CorpusFixturesProduceExactlyTheExpectedDiagnostics) {
  const std::vector<Fixture> corpus = loadCorpus();
  ASSERT_FALSE(corpus.empty())
      << "no fixtures under " << CPR_LINT_CORPUS_DIR;
  for (const Fixture& fx : corpus) {
    ASSERT_TRUE(fx.parsed)
        << fx.name << ": missing or malformed fixture header";
    std::vector<std::pair<std::string, int>> expected = fx.expected;
    std::sort(expected.begin(), expected.end());
    const auto actual =
        fx.isTree ? foundTree(fx) : found(fx.lintAs, fx.source);
    EXPECT_EQ(actual, expected)
        << fx.name << "\n  expected: " << describe(expected)
        << "\n  actual:   " << describe(actual);
  }
}

// The rule table and the fixture corpus name the same rules: every rule has
// a bad fixture that expects it, and no fixture expects a rule the table no
// longer lists — retiring a rule retires its row and its fixtures together.
TEST(ToolsLint, RuleTableAndFixtureCorpusNameTheSameRules) {
  std::set<std::string> expectedRules;
  for (const Fixture& fx : loadCorpus())
    for (const auto& e : fx.expected) expectedRules.insert(e.first);
  std::set<std::string> tableRules;
  for (const cpr::lint::RuleInfo& info : cpr::lint::ruleTable())
    tableRules.insert(std::string(info.id));
  for (const std::string& id : tableRules)
    EXPECT_TRUE(expectedRules.count(id)) << "no bad fixture expects " << id;
  for (const std::string& id : expectedRules)
    EXPECT_TRUE(tableRules.count(id))
        << "a fixture expects " << id << ", which ruleTable() does not list";
}

TEST(ToolsLint, CorpusHasAtLeastOneCleanFixturePerRule) {
  std::size_t cleanFixtures = 0;
  for (const Fixture& fx : loadCorpus())
    if (fx.expected.empty()) ++cleanFixtures;
  EXPECT_GE(cleanFixtures, cpr::lint::ruleTable().size())
      << "expected at least one clean (good) fixture per rule";
}

TEST(ToolsLint, RuleTableIsSortedAndDocumented) {
  const auto& table = cpr::lint::ruleTable();
  ASSERT_EQ(table.size(), 20u);
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_FALSE(table[i].id.empty());
    EXPECT_FALSE(table[i].summary.empty()) << table[i].id;
    if (i > 0) {
      EXPECT_LT(table[i - 1].id, table[i].id);
    }
  }
}

// The banned identifiers below live inside string literals of *this* file,
// so the repo-wide lint run tokenizes them as strings and stays clean; the
// lintSource call under test sees them as real identifiers.
TEST(ToolsLint, AllowDirectiveCoversItsOwnLineAndTheNextOnly) {
  const std::string src =
      "#include <cstdlib>\n"                // 1
      "// cpr-lint: allow(BANNED-FN)\n"     // 2
      "int a = atoi(\"1\");\n"              // 3: suppressed (next line)
      "int b = atoi(\"2\");\n";             // 4: out of the window
  const auto actual = found("src/viz/example.cpp", src);
  const std::vector<std::pair<std::string, int>> expected = {
      {"BANNED-FN", 4}};
  EXPECT_EQ(actual, expected) << describe(actual);
}

TEST(ToolsLint, TrailingAllowDirectiveSuppressesItsOwnLine) {
  const std::string src =
      "#include <cstdlib>\n"
      "int a = atoi(\"1\");  // cpr-lint: allow(BANNED-FN)\n";
  EXPECT_TRUE(found("src/viz/example.cpp", src).empty());
}

TEST(ToolsLint, AllowDirectiveOnlySuppressesTheNamedRules) {
  const std::string src =
      "#include <cstdlib>\n"                 // 1
      "// cpr-lint: allow(HEADER-HYGIENE)\n" // 2
      "int a = atoi(\"1\");\n";              // 3: wrong rule named
  const auto actual = found("src/viz/example.cpp", src);
  // The mismatched directive suppresses nothing, so both the original
  // diagnostic and an ALLOW-UNUSED for the stale directive surface.
  const std::vector<std::pair<std::string, int>> expected = {
      {"ALLOW-UNUSED", 2}, {"BANNED-FN", 3}};
  EXPECT_EQ(actual, expected) << describe(actual);
}

// `//` and `/* */` directives must behave identically: a block-comment
// directive anchors at the line holding the marker — not the line the
// comment opened on — so a multi-line comment ending in a directive
// covers the code directly below it, like a `//` directive would.
TEST(ToolsLint, BlockCommentDirectiveAnchorsAtTheMarkerLine) {
  const std::string src =
      "#include <cstdlib>\n"                     // 1
      "/* rationale for the odd call,\n"         // 2
      "   spread over lines\n"                   // 3
      "   cpr-lint: allow(BANNED-FN) */\n"       // 4: marker line
      "int a = atoi(\"1\");\n";                  // 5: suppressed
  EXPECT_TRUE(found("src/viz/example.cpp", src).empty())
      << describe(found("src/viz/example.cpp", src));
}

TEST(ToolsLint, InlineBlockCommentDirectiveSuppressesItsOwnLine) {
  const std::string src =
      "#include <cstdlib>\n"
      "int a = atoi(\"1\");  /* cpr-lint: allow(BANNED-FN) */\n";
  EXPECT_TRUE(found("src/viz/example.cpp", src).empty());
}

// Regression: directive text inside a raw string literal is string content,
// not a comment — it must neither suppress the diagnostic on the next line
// nor surface as a stale ALLOW-UNUSED directive.
TEST(ToolsLint, AllowDirectiveInsideARawStringIsInert) {
  const std::string src =
      "#include <cstdlib>\n"                                  // 1
      "const char* s = R\"(cpr-lint: allow(BANNED-FN))\";\n"  // 2
      "int a = atoi(s);\n";                                   // 3
  const auto actual = found("src/viz/example.cpp", src);
  const std::vector<std::pair<std::string, int>> expected = {
      {"BANNED-FN", 3}};
  EXPECT_EQ(actual, expected) << describe(actual);
}

TEST(ToolsLint, CommentsStringsAndRawStringsNeverFire) {
  const std::string src =
      "// endl sprintf atoi in a line comment\n"
      "/* rand srand strtok in a block comment */\n"
      "const char* s = R\"(gets endl sprintf)\";\n"
      "const char* t = \"atoi\";\n";
  EXPECT_TRUE(found("src/viz/example.cpp", src).empty());
}

TEST(ToolsLint, LexerTracksLinesAcrossBlockCommentsAndRawStrings) {
  const std::string src =
      "/* a block comment\n"
      "   spanning three\n"
      "   lines */\n"
      "const char* s = R\"(raw\n"
      "string)\";\n"
      "int a = atoi(s);\n";  // line 6
  const auto actual = found("src/viz/example.cpp", src);
  const std::vector<std::pair<std::string, int>> expected = {
      {"BANNED-FN", 6}};
  EXPECT_EQ(actual, expected) << describe(actual);
}

// ---------------------------------------------------------------- IR ----

TEST(ToolsLintIr, BuildsIncludesNamespacesAndBodyExtents) {
  const std::string src =
      "#include \"core/ids.h\"\n"              // 1
      "#include <vector>\n"                    // 2
      "namespace cpr::core {\n"                // 3
      "class Kernel {\n"                       // 4
      " public:\n"                             // 5
      "  int size() const { return n_; }\n"    // 6
      " private:\n"                            // 7
      "  int n_ = 0;\n"                        // 8
      "};\n"                                   // 9
      "int twice(int x) {\n"                   // 10
      "  return\n"                             // 11
      "      2 * x;\n"                         // 12
      "}\n"                                    // 13
      "}  // namespace cpr::core\n";           // 14
  const cpr::lint::LexResult lx = cpr::lint::lex(src);
  const cpr::lint::FileIr ir = cpr::lint::buildIr(lx.tokens);

  ASSERT_EQ(ir.includes.size(), 2u);
  EXPECT_EQ(ir.includes[0].path, "core/ids.h");
  EXPECT_FALSE(ir.includes[0].angled);
  EXPECT_EQ(ir.includes[0].line, 1);
  EXPECT_EQ(ir.includes[1].path, "vector");
  EXPECT_TRUE(ir.includes[1].angled);
  EXPECT_EQ(ir.includes[1].line, 2);

  ASSERT_EQ(ir.namespaces.size(), 1u);
  EXPECT_EQ(ir.namespaces[0].name, "cpr::core");
  EXPECT_EQ(ir.namespaces[0].bodyBegin, 3);
  EXPECT_EQ(ir.namespaces[0].bodyEnd, 14);

  ASSERT_EQ(ir.decls.size(), 3u);
  EXPECT_EQ(ir.decls[0].kind, cpr::lint::DeclKind::Class);
  EXPECT_EQ(ir.decls[0].name, "Kernel");
  EXPECT_EQ(ir.decls[0].bodyBegin, 4);
  EXPECT_EQ(ir.decls[0].bodyEnd, 9);
  EXPECT_EQ(ir.decls[1].kind, cpr::lint::DeclKind::Function);
  EXPECT_EQ(ir.decls[1].name, "size");
  EXPECT_EQ(ir.decls[1].bodyBegin, 6);
  EXPECT_EQ(ir.decls[1].bodyEnd, 6);
  EXPECT_EQ(ir.decls[2].kind, cpr::lint::DeclKind::Function);
  EXPECT_EQ(ir.decls[2].name, "twice");
  EXPECT_EQ(ir.decls[2].line, 10);
  EXPECT_EQ(ir.decls[2].bodyBegin, 10);
  EXPECT_EQ(ir.decls[2].bodyEnd, 13);
  // Token extents really bracket the body.
  EXPECT_EQ(lx.tokens[ir.decls[2].tokBegin].text, "{");
  EXPECT_EQ(lx.tokens[ir.decls[2].tokEnd].text, "}");
}

TEST(ToolsLintIr, AngledIncludePathsAreRejoined) {
  const cpr::lint::LexResult lx =
      cpr::lint::lex("#include <core/panel_kernel.h>\n");
  const cpr::lint::FileIr ir = cpr::lint::buildIr(lx.tokens);
  ASSERT_EQ(ir.includes.size(), 1u);
  EXPECT_EQ(ir.includes[0].path, "core/panel_kernel.h");
  EXPECT_TRUE(ir.includes[0].angled);
}

TEST(ToolsLintIr, EnumBodiesAreRecordedButNotDescendedInto) {
  const std::string src =
      "enum class Status {\n"      // 1
      "  Ok,\n"                    // 2
      "  Failed,\n"                // 3
      "};\n"                       // 4
      "int after() { return 0; }\n";  // 5
  const cpr::lint::FileIr ir =
      cpr::lint::buildIr(cpr::lint::lex(src).tokens);
  ASSERT_EQ(ir.decls.size(), 2u);
  EXPECT_EQ(ir.decls[0].kind, cpr::lint::DeclKind::Enum);
  EXPECT_EQ(ir.decls[0].name, "Status");
  EXPECT_EQ(ir.decls[0].bodyEnd, 4);
  EXPECT_EQ(ir.decls[1].name, "after");
}

TEST(ToolsLintIr, VariableInitializersAreNotFunctions) {
  const std::string src =
      "int a = twice(2);\n"
      "std::vector<int> v(8);\n"
      "void real() { int inner = 1; (void)inner; }\n";
  const cpr::lint::FileIr ir =
      cpr::lint::buildIr(cpr::lint::lex(src).tokens);
  ASSERT_EQ(ir.decls.size(), 1u);
  EXPECT_EQ(ir.decls[0].name, "real");
}

// ------------------------------------------------------ layer manifest --

TEST(ToolsLintArch, RepoManifestParsesAndOrdersTheLayers) {
  const cpr::lint::LayerManifest& m = repoManifest();
  EXPECT_EQ(m.everywhere.size(), 2u);
  EXPECT_EQ(m.levelOf("support"), cpr::lint::LayerManifest::kEverywhere);
  EXPECT_EQ(m.levelOf("obs"), cpr::lint::LayerManifest::kEverywhere);
  EXPECT_LT(m.levelOf("geom"), m.levelOf("db"));
  EXPECT_LT(m.levelOf("db"), m.levelOf("lefdef"));
  EXPECT_EQ(m.levelOf("gen"), m.levelOf("ilp"));
  EXPECT_LT(m.levelOf("lefdef"), m.levelOf("core"));
  EXPECT_LT(m.levelOf("core"), m.levelOf("route"));
  EXPECT_EQ(m.levelOf("route"), m.levelOf("viz"));
  EXPECT_EQ(m.levelOf("nonesuch"), cpr::lint::LayerManifest::kUnknown);
}

TEST(ToolsLintArch, ManifestParserRejectsDuplicates) {
  cpr::lint::LayerManifest m;
  std::string error;
  EXPECT_FALSE(cpr::lint::parseLayerManifest("geom\ngeom db\n", m, error));
  EXPECT_NE(error.find("geom"), std::string::npos) << error;
  EXPECT_FALSE(cpr::lint::parseLayerManifest("# only comments\n", m, error));
}

TEST(ToolsLintArch, ManifestForbidLinesParseAndValidate) {
  cpr::lint::LayerManifest m;
  std::string error;
  ASSERT_TRUE(cpr::lint::parseLayerManifest(
      "geom\ncore\nforbid: core geom/secret.h\n", m, error))
      << error;
  ASSERT_EQ(m.forbids.size(), 1u);
  EXPECT_EQ(m.forbids[0].module, "core");
  EXPECT_EQ(m.forbids[0].include, "geom/secret.h");
  // Wrong arity and unknown modules are parse errors, not silent no-ops.
  EXPECT_FALSE(
      cpr::lint::parseLayerManifest("geom\nforbid: geom\n", m, error));
  EXPECT_FALSE(cpr::lint::parseLayerManifest(
      "geom\nforbid: nonesuch geom/a.h\n", m, error));
  EXPECT_NE(error.find("nonesuch"), std::string::npos) << error;
}

// The LP engine seam, pinned at the manifest level: src/core reaches the LP
// engine only through ilp/branch_and_bound.h and must never include the
// concrete engine header, even transitively.
TEST(ToolsLintArch, RepoManifestForbidsConcreteLpEngineHeaderInCore) {
  const cpr::lint::LayerManifest& m = repoManifest();
  bool revised = false;
  for (const cpr::lint::LayerManifest::Forbid& f : m.forbids) {
    if (f.module != "core") continue;
    revised = revised || f.include == "ilp/revised_simplex.h";
  }
  EXPECT_TRUE(revised)
      << "layers.txt lost 'forbid: core ilp/revised_simplex.h'";
}

// Architecture findings must ignore allow directives: a layering exception
// is a layers.txt change, never a per-line pragma. The stale directive
// itself is then reported.
TEST(ToolsLintArch, LayerViolationsAreNotSuppressible) {
  std::vector<cpr::lint::SourceFile> files;
  files.push_back(cpr::lint::SourceFile{
      "src/core/only.h", "#pragma once\nstruct Only {};\n"});
  files.push_back(cpr::lint::SourceFile{
      "src/geom/user.h",
      "#pragma once\n"
      "// cpr-lint: allow(LAYER-VIOLATION)\n"
      "#include \"core/only.h\"\n"
      "struct User { Only o; };\n"});
  files.push_back(cpr::lint::SourceFile{
      "src/geom/user.cpp", "#include \"geom/user.h\"\nint u() { return 1; }\n"});
  std::vector<std::pair<std::string, int>> got;
  for (const Diagnostic& d : cpr::lint::lintFiles(files, &repoManifest()))
    got.emplace_back(d.rule + "@" + d.file, d.line);
  std::sort(got.begin(), got.end());
  const std::vector<std::pair<std::string, int>> expected = {
      {"ALLOW-UNUSED@src/geom/user.h", 2},
      {"LAYER-VIOLATION@src/geom/user.h", 3},
  };
  EXPECT_EQ(got, expected);
}

// -------------------------------------------------------- lock regions --

struct RegionRun {
  cpr::lint::LexResult lx;
  cpr::lint::FileIr ir;
  std::vector<cpr::lint::LockRegion> regions;
};

/// Lexes `src`, builds the IR, and runs findLockRegions over the first
/// function body it finds.
RegionRun regionsOfFirstFunction(const std::string& src) {
  RegionRun run;
  run.lx = cpr::lint::lex(src);
  run.ir = cpr::lint::buildIr(run.lx.tokens);
  for (const cpr::lint::EntityDecl& d : run.ir.decls) {
    if (d.kind != cpr::lint::DeclKind::Function) continue;
    run.regions =
        cpr::lint::findLockRegions(run.lx.tokens, d.tokBegin, d.tokEnd);
    break;
  }
  return run;
}

/// True when any token of line `line` falls inside the region's span.
bool regionCoversLine(const RegionRun& run, const cpr::lint::LockRegion& r,
                      int line) {
  for (std::size_t i = r.tokBegin; i < r.tokEnd && i < run.lx.tokens.size();
       ++i) {
    if (run.lx.tokens[i].line == line) return true;
  }
  return false;
}

TEST(ToolsLintRegions, RaiiGuardRunsToEndOfItsEnclosingScope) {
  const RegionRun run = regionsOfFirstFunction(
      "#include <mutex>\n"                          // 1
      "std::mutex mu;\n"                            // 2
      "int n;\n"                                    // 3
      "void f() {\n"                                // 4
      "  n = 1;\n"                                  // 5
      "  {\n"                                       // 6
      "    std::lock_guard<std::mutex> lock(mu);\n" // 7
      "    n = 2;\n"                                // 8
      "  }\n"                                       // 9
      "  n = 3;\n"                                  // 10
      "}\n");
  ASSERT_EQ(run.regions.size(), 1u);
  const cpr::lint::LockRegion& r = run.regions[0];
  EXPECT_EQ(r.mutexExpr, "mu");
  EXPECT_EQ(r.line, 7);
  EXPECT_TRUE(r.raii);
  EXPECT_FALSE(regionCoversLine(run, r, 5));
  EXPECT_TRUE(regionCoversLine(run, r, 8));
  EXPECT_FALSE(regionCoversLine(run, r, 10));
}

TEST(ToolsLintRegions, DeferLockOpensNothingUntilLockAndSplitsOnUnlock) {
  const RegionRun run = regionsOfFirstFunction(
      "#include <mutex>\n"                                       // 1
      "std::mutex mu;\n"                                         // 2
      "int n;\n"                                                 // 3
      "void f() {\n"                                             // 4
      "  std::unique_lock<std::mutex> lk(mu, std::defer_lock);\n"// 5
      "  n = 1;\n"                                               // 6
      "  lk.lock();\n"                                           // 7
      "  n = 2;\n"                                               // 8
      "  lk.unlock();\n"                                         // 9
      "  n = 3;\n"                                               // 10
      "  lk.lock();\n"                                           // 11
      "  n = 4;\n"                                               // 12
      "}\n");
  ASSERT_EQ(run.regions.size(), 2u);
  EXPECT_EQ(run.regions[0].mutexExpr, "mu");
  EXPECT_EQ(run.regions[1].mutexExpr, "mu");
  EXPECT_FALSE(regionCoversLine(run, run.regions[0], 6));
  EXPECT_TRUE(regionCoversLine(run, run.regions[0], 8));
  EXPECT_FALSE(regionCoversLine(run, run.regions[0], 10));
  EXPECT_FALSE(regionCoversLine(run, run.regions[1], 10));
  EXPECT_TRUE(regionCoversLine(run, run.regions[1], 12));
}

TEST(ToolsLintRegions, ManualLockUnlockPairIsARegionAndNotRaii) {
  const RegionRun run = regionsOfFirstFunction(
      "#include <mutex>\n"   // 1
      "std::mutex mu;\n"     // 2
      "int n;\n"             // 3
      "void f() {\n"         // 4
      "  mu.lock();\n"       // 5
      "  n = 1;\n"           // 6
      "  mu.unlock();\n"     // 7
      "  n = 2;\n"           // 8
      "}\n");
  ASSERT_EQ(run.regions.size(), 1u);
  EXPECT_EQ(run.regions[0].mutexExpr, "mu");
  EXPECT_FALSE(run.regions[0].raii);
  EXPECT_TRUE(regionCoversLine(run, run.regions[0], 6));
  EXPECT_FALSE(regionCoversLine(run, run.regions[0], 8));
}

TEST(ToolsLintRegions, ScopedLockAcquisitionsShareOneGroup) {
  const RegionRun run = regionsOfFirstFunction(
      "#include <mutex>\n"
      "std::mutex a;\n"
      "std::mutex b;\n"
      "void f() {\n"
      "  std::scoped_lock both(a, b);\n"
      "}\n");
  ASSERT_EQ(run.regions.size(), 2u);
  EXPECT_EQ(run.regions[0].mutexExpr, "a");
  EXPECT_EQ(run.regions[1].mutexExpr, "b");
  EXPECT_EQ(run.regions[0].group, run.regions[1].group);
  // Sequential guards, by contrast, get distinct groups.
  const RegionRun seq = regionsOfFirstFunction(
      "#include <mutex>\n"
      "std::mutex a;\n"
      "std::mutex b;\n"
      "void f() {\n"
      "  std::lock_guard<std::mutex> la(a);\n"
      "  std::lock_guard<std::mutex> lb(b);\n"
      "}\n");
  ASSERT_EQ(seq.regions.size(), 2u);
  EXPECT_NE(seq.regions[0].group, seq.regions[1].group);
}

// ------------------------------------------------- concurrency rules --

// Deadlock-shaped findings must ignore allow directives, exactly like the
// architecture rules: the sanctioned escape hatch is an annotation at the
// mutex declaration (CPR_MAY_BLOCK), visible to every caller, never a
// per-line pragma at one call site.
TEST(ToolsLintConc, BlockingCallUnderLockIsNotSuppressible) {
  const std::string src =
      "#include <mutex>\n"                              // 1
      "class Admission {\n"                             // 2
      " public:\n"                                      // 3
      "  void admit() {\n"                              // 4
      "    std::lock_guard<std::mutex> lock(mu_);\n"    // 5
      "    // cpr-lint: allow(LOCK-BLOCKING-CALL)\n"    // 6
      "    send(1, nullptr, 0, 0);\n"                   // 7
      "  }\n"                                           // 8
      " private:\n"                                     // 9
      "  std::mutex mu_;\n"                             // 10
      "};\n";
  const auto actual = found("src/viz/example.cpp", src);
  const std::vector<std::pair<std::string, int>> expected = {
      {"ALLOW-UNUSED", 6}, {"LOCK-BLOCKING-CALL", 7}};
  EXPECT_EQ(actual, expected) << describe(actual);
}

TEST(ToolsLintConc, LockOrderCyclesAreNotSuppressible) {
  const std::string src =
      "#include <mutex>\n"                              // 1
      "class Inversion {\n"                             // 2
      " public:\n"                                      // 3
      "  void forward() {\n"                            // 4
      "    std::lock_guard<std::mutex> la(alpha_);\n"   // 5
      "    // cpr-lint: allow(LOCK-ORDER)\n"            // 6
      "    std::lock_guard<std::mutex> lb(beta_);\n"    // 7
      "  }\n"                                           // 8
      "  void reverse() {\n"                            // 9
      "    std::lock_guard<std::mutex> lb(beta_);\n"    // 10
      "    std::lock_guard<std::mutex> la(alpha_);\n"   // 11
      "  }\n"                                           // 12
      " private:\n"                                     // 13
      "  std::mutex alpha_;\n"                          // 14
      "  std::mutex beta_;\n"                           // 15
      "};\n";
  const auto actual = found("src/viz/example.cpp", src);
  const std::vector<std::pair<std::string, int>> expected = {
      {"ALLOW-UNUSED", 6}, {"LOCK-ORDER", 7}};
  EXPECT_EQ(actual, expected) << describe(actual);
}

// The per-file concurrency rules keep the ordinary suppression contract.
TEST(ToolsLintConc, GuardedByAndThreadLifecycleAcceptAllows) {
  const std::string guarded =
      "#include <mutex>\n"
      "class Counter {\n"
      " public:\n"
      "  void bare() { ++n_; }  // cpr-lint: allow(GUARDED-BY)\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  long n_ CPR_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_TRUE(found("src/viz/example.cpp", guarded).empty())
      << describe(found("src/viz/example.cpp", guarded));
  const std::string lifecycle =
      "#include <thread>\n"
      "void f() {\n"
      "  // cpr-lint: allow(THREAD-LIFECYCLE)\n"
      "  std::thread t([] {});\n"
      "}\n";
  EXPECT_TRUE(found("src/viz/example.cpp", lifecycle).empty())
      << describe(found("src/viz/example.cpp", lifecycle));
}

// Annotations travel across files: a header's CPR_REQUIRES covers the
// caller in another translation unit, and lock regions in one file combine
// with regions in another into a single whole-tree acquisition graph.
TEST(ToolsLintConc, LockOrderGraphSpansFiles) {
  std::vector<cpr::lint::SourceFile> files;
  files.push_back(cpr::lint::SourceFile{
      "src/viz/a.cpp",
      "#include <mutex>\n"
      "class Pair {\n"
      " public:\n"
      "  void forward();\n"
      "  void reverse();\n"
      " private:\n"
      "  std::mutex alpha_;\n"
      "  std::mutex beta_;\n"
      "};\n"
      "void Pair::forward() {\n"
      "  std::lock_guard<std::mutex> la(alpha_);\n"
      "  std::lock_guard<std::mutex> lb(beta_);\n"  // 12: anchor
      "}\n"});
  files.push_back(cpr::lint::SourceFile{
      "src/viz/b.cpp",
      "#include <mutex>\n"
      "#include \"viz/a.h\"\n"
      "void Pair::reverse() {\n"
      "  std::lock_guard<std::mutex> lb(beta_);\n"
      "  std::lock_guard<std::mutex> la(alpha_);\n"
      "}\n"});
  std::vector<std::pair<std::string, int>> got;
  for (const Diagnostic& d : cpr::lint::lintFiles(files, nullptr)) {
    if (d.rule == "LOCK-ORDER") got.emplace_back(d.file, d.line);
  }
  const std::vector<std::pair<std::string, int>> expected = {
      {"src/viz/a.cpp", 12}};
  EXPECT_EQ(got, expected);
}

TEST(ToolsLintConc, BlockingManifestCoversTheProjectSeams) {
  const std::set<std::string>& idents = cpr::lint::builtinBlockingManifest();
  for (const char* seam :
       {"send", "recv", "accept", "join", "drain", "parallelFor",
        "sendToConn", "sendLocked", "pop"}) {
    EXPECT_TRUE(idents.count(seam))
        << "the blocking manifest lost '" << seam << "'";
  }
  // Condition-variable waits release the lock while blocked.
  EXPECT_FALSE(idents.count("wait") || idents.count("wait_for"));
}

// ------------------------------------------------------ hot-path pass --

// Like LOCK-ORDER, the HOT-* rules ignore per-line allow directives: the
// sanctioned escape hatches are the annotations themselves (CPR_COLD_OK /
// CPR_NOALLOC), visible in the signature and in review.
TEST(ToolsLintHot, HotRulesAreNotSuppressible) {
  const std::string src =
      "#include <vector>\n"                          // 1
      "void hot(std::vector<int>& v) CPR_HOT {\n"    // 2
      "  // cpr-lint: allow(HOT-ALLOC)\n"            // 3
      "  v.push_back(1);\n"                          // 4
      "}\n";
  const auto actual = found("src/core/example.cpp", src);
  const std::vector<std::pair<std::string, int>> expected = {
      {"ALLOW-UNUSED", 3}, {"HOT-ALLOC", 4}};
  EXPECT_EQ(actual, expected) << describe(actual);
}

TEST(ToolsLintHot, HotAllocDiagnosticCarriesTheFullCallChain) {
  const std::string src =
      "#include <string>\n"                                  // 1
      "int leaf(int v) {\n"                                  // 2
      "  return static_cast<int>(std::to_string(v).size());\n"  // 3
      "}\n"                                                  // 4
      "int mid(int v) { return leaf(v); }\n"                 // 5
      "int hotRoot(int v) CPR_HOT { return mid(v); }\n";     // 6
  std::vector<std::string> messages;
  for (const Diagnostic& d :
       cpr::lint::lintSource("src/core/example.cpp", src)) {
    if (d.rule == "HOT-ALLOC") messages.push_back(d.message);
  }
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_NE(messages[0].find("call chain: hotRoot -> mid -> leaf"),
            std::string::npos)
      << messages[0];
}

// Annotations travel across files like CPR_REQUIRES does: a CPR_HOT on the
// header prototype covers the out-of-line definition in another translation
// unit, and the closure keeps descending through callees defined in a third.
TEST(ToolsLintHot, HeaderAnnotationCoversTheOutOfLineDefinition) {
  std::vector<cpr::lint::SourceFile> files;
  files.push_back(cpr::lint::SourceFile{
      "src/core/kern.h",
      "#pragma once\n"
      "int kern(int v) CPR_HOT;\n"});
  files.push_back(cpr::lint::SourceFile{
      "src/core/kern.cpp",
      "#include \"core/kern.h\"\n"
      "#include \"core/leaf.h\"\n"
      "int kern(int v) { return leaf(v); }\n"});
  files.push_back(cpr::lint::SourceFile{
      "src/core/leaf.cpp",
      "#include <string>\n"
      "#include \"core/leaf.h\"\n"
      "int leaf(int v) {\n"
      "  return static_cast<int>(std::to_string(v).size());\n"  // 4: fires
      "}\n"});
  std::vector<std::pair<std::string, int>> got;
  for (const Diagnostic& d : cpr::lint::lintFiles(files, nullptr)) {
    if (d.rule == "HOT-ALLOC") got.emplace_back(d.file, d.line);
  }
  const std::vector<std::pair<std::string, int>> expected = {
      {"src/core/leaf.cpp", 4}};
  EXPECT_EQ(got, expected);
}

// Free-function overloads share one call-graph node, so a call to the clean
// overload still reaches the allocating one's body — the pass checks the
// union, which over-approximates but never misses.
TEST(ToolsLintHot, OverloadsShareACallGraphNode) {
  const std::string src =
      "#include <string>\n"                                  // 1
      "int helper(int v) { return v; }\n"                    // 2
      "int helper(double v) {\n"                             // 3
      "  return static_cast<int>(std::to_string(v).size());\n"  // 4: fires
      "}\n"                                                  // 5
      "int hotRoot(int v) CPR_HOT { return helper(v); }\n";  // 6
  const auto actual = found("src/core/example.cpp", src);
  const std::vector<std::pair<std::string, int>> expected = {
      {"HOT-ALLOC", 4}};
  EXPECT_EQ(actual, expected) << describe(actual);
}

// A receiver-qualified call binds to the unique class defining the method;
// when two classes define the same name, the edge stays unresolved (the
// documented under-approximation — wrappers get annotated directly instead).
TEST(ToolsLintHot, ReceiverCallsBindOnlyWhenTheDefiningClassIsUnique) {
  const std::string unique =
      "#include <vector>\n"                            // 1
      "class Arena {\n"                                // 2
      " public:\n"                                     // 3
      "  void grow() { v_.push_back(1); }\n"           // 4: fires via chain
      " private:\n"                                    // 5
      "  std::vector<int> v_;\n"                       // 6
      "};\n"                                           // 7
      "void hotRoot(Arena& a) CPR_HOT { a.grow(); }\n";  // 8
  const auto one = found("src/core/example.cpp", unique);
  const std::vector<std::pair<std::string, int>> expectOne = {
      {"HOT-ALLOC", 4}};
  EXPECT_EQ(one, expectOne) << describe(one);

  const std::string ambiguous =
      "#include <vector>\n"
      "class A {\n"
      " public:\n"
      "  void grow() { v_.push_back(1); }\n"
      " private:\n"
      "  std::vector<int> v_;\n"
      "};\n"
      "class B {\n"
      " public:\n"
      "  void grow() {}\n"
      "};\n"
      "void hotRoot(A& a) CPR_HOT { a.grow(); }\n";
  EXPECT_TRUE(found("src/core/example.cpp", ambiguous).empty())
      << describe(found("src/core/example.cpp", ambiguous));
}

// A local lambda is not a resolvable callee: calls through its name stay
// off the graph, and its body is scanned as part of the enclosing function.
TEST(ToolsLintHot, LambdaBodiesAreScannedInlineButTheirNamesStayUnresolved) {
  const std::string src =
      "#include <vector>\n"                            // 1
      "void hotRoot(std::vector<int>& v) CPR_HOT {\n"  // 2
      "  const auto shove = [&v](int x) {\n"           // 3
      "    v.push_back(x);\n"                          // 4: inline scan fires
      "  };\n"                                         // 5
      "  shove(1);\n"                                  // 6
      "}\n";
  const auto actual = found("src/core/example.cpp", src);
  const std::vector<std::pair<std::string, int>> expected = {
      {"HOT-ALLOC", 4}};
  EXPECT_EQ(actual, expected) << describe(actual);
}

TEST(ToolsLintHot, AllocManifestCoversTheSeams) {
  const std::set<std::string>& always =
      cpr::lint::builtinAllocManifest().always;
  const std::set<std::string>& growth =
      cpr::lint::builtinAllocManifest().growth;
  for (const char* seam : {"malloc", "make_unique", "make_shared",
                           "to_string", "aligned_alloc"}) {
    EXPECT_TRUE(always.count(seam))
        << "the allocation manifest lost '" << seam << "'";
  }
  for (const char* seam : {"push_back", "emplace_back", "insert", "resize"}) {
    EXPECT_TRUE(growth.count(seam))
        << "the allocation manifest lost growth word '" << seam << "'";
  }
  for (const std::string& word : growth)
    EXPECT_FALSE(always.count(word)) << word << " is both kinds";
  // The sanctioned warm-reset idiom: assign and reserve are deliberately
  // not manifest words (DESIGN.md "Hot-path discipline").
  EXPECT_FALSE(always.count("assign") || growth.count("assign"));
  EXPECT_FALSE(always.count("reserve") || growth.count("reserve"));
}

// ------------------------------------------------- --fix-stale-allows --

TEST(ToolsLintFix, StripRemovesAWholeLineDirective) {
  const auto r = cpr::lint::stripAllowDirectives(
      "int a = 1;\n"
      "// cpr-lint: allow(BANNED-FN)\n"
      "int b = 2;\n",
      {2});
  EXPECT_EQ(r.source, "int a = 1;\nint b = 2;\n");
  EXPECT_EQ(r.removed, 1);
}

TEST(ToolsLintFix, StripKeepsCodeSharingTheDirectiveLine) {
  const auto r = cpr::lint::stripAllowDirectives(
      "int a = atoi(x);  // cpr-lint: allow(BANNED-FN)\n", {1});
  EXPECT_EQ(r.source, "int a = atoi(x);\n");
  EXPECT_EQ(r.removed, 1);
}

TEST(ToolsLintFix, StripRemovesOnlyTheBlockCommentHoldingTheDirective) {
  const auto r = cpr::lint::stripAllowDirectives(
      "int a = 1;  /* cpr-lint: allow(BANNED-FN) */ int b = 2;\n", {1});
  EXPECT_EQ(r.source, "int a = 1;   int b = 2;\n");
  EXPECT_EQ(r.removed, 1);
}

TEST(ToolsLintFix, StripLeavesUnlistedLinesAlone) {
  const std::string src =
      "// cpr-lint: allow(BANNED-FN)\n"
      "int a = atoi(x);\n"
      "// cpr-lint: allow(BANNED-FN)\n"
      "int b = atoi(y);\n";
  const auto r = cpr::lint::stripAllowDirectives(src, {3});
  EXPECT_EQ(r.source,
            "// cpr-lint: allow(BANNED-FN)\n"
            "int a = atoi(x);\n"
            "int b = atoi(y);\n");
  EXPECT_EQ(r.removed, 1);
}

}  // namespace
