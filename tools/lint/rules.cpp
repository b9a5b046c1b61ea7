#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/arch.h"
#include "lint/concurrency.h"
#include "lint/hotpath.h"
#include "lint/ir.h"
#include "lint/lexer.h"
#include "lint/lint.h"

namespace cpr::lint {

namespace {

namespace fs = std::filesystem;

bool isHeaderPath(std::string_view rel) {
  return endsWith(rel, ".h") || endsWith(rel, ".hpp");
}

/// The CSR panel kernel's own translation units: the CONTRACT-COVERAGE
/// scope, and part of the THROW-BOUNDARY one.
bool isPanelKernel(std::string_view rel) {
  return rel == "src/core/panel_kernel.h" || rel == "src/core/panel_kernel.cpp";
}

/// Files implementing the `Solver::trySolve` panel boundary and its
/// degradation-ladder rungs: the no-throw hot-path set of THROW-BOUNDARY.
bool isTrySolveBoundary(std::string_view rel) {
  if (isPanelKernel(rel)) return true;
  constexpr std::array<std::string_view, 6> kFiles = {
      "src/core/solver.cpp",    "src/core/solver.h",
      "src/core/optimizer.cpp", "src/core/optimizer.h",
      "src/core/lr_solver.cpp", "src/core/lr_solver.h",
  };
  return std::find(kFiles.begin(), kFiles.end(), rel) != kFiles.end();
}

/// Files swept onto the strong index types of src/core/ids.h
/// (PinIdx/CandIdx/ConflictIdx/TrackIdx): the INDEX-CAST scope. ids.h
/// itself is deliberately outside the scope — it is where the one sanctioned
/// raw conversion (`idx()`) lives.
bool isStrongIndexScope(std::string_view rel) {
  constexpr std::array<std::string_view, 6> kStems = {
      "src/core/panel_kernel", "src/core/lr_solver", "src/core/ilp_builder",
      "src/core/solver",       "src/core/optimizer", "src/core/interval_gen",
  };
  for (const std::string_view stem : kStems) {
    if (rel == std::string(stem) + ".h" || rel == std::string(stem) + ".cpp")
      return true;
  }
  return false;
}

/// Solver-loop directories where argless wall-clock polling is banned
/// (measurement code in obs/, route result timing, and benches keep their
/// steady-clock reads; solver code must poll a composable Deadline).
bool isSolverScope(std::string_view rel) {
  return startsWith(rel, "src/core/") || startsWith(rel, "src/ilp/");
}

/// Canonical metric-name shape with one of the reserved first segments:
/// `pao|route|drc|ilp|serve` followed by >= 1 dot-separated [a-z0-9_]
/// segments.
bool isReservedMetricName(std::string_view text) {
  const std::size_t dot = text.find('.');
  if (dot == std::string_view::npos) return false;
  const std::string_view head = text.substr(0, dot);
  if (head != "pao" && head != "route" && head != "drc" && head != "ilp" &&
      head != "serve")
    return false;
  std::string_view rest = text.substr(dot + 1);
  if (rest.empty()) return false;
  std::size_t segLen = 0;
  for (const char c : rest) {
    if (c == '.') {
      if (segLen == 0) return false;
      segLen = 0;
      continue;
    }
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
    ++segLen;
  }
  return segLen > 0;
}

struct FileLint {
  const std::string& rel;
  const std::vector<Token>& toks;
  std::vector<Diagnostic> raw;

  void report(std::string_view rule, int line, std::string message) {
    raw.push_back(Diagnostic{std::string(rule), rel, line, std::move(message)});
  }

  [[nodiscard]] bool tokIs(std::size_t i, std::string_view text) const {
    return i < toks.size() && toks[i].text == text;
  }

  void obsLiteral() {
    if (rel == "src/obs/names.h") return;  // the one legal home of literals
    for (const Token& t : toks) {
      if (t.kind != TokKind::String) continue;
      if (!isReservedMetricName(t.text)) continue;
      report("OBS-LITERAL", t.line,
             "inline metric-name literal \"" + t.text +
                 "\"; use the obs::names::k* constant (add it to "
                 "src/obs/names.h and its kAll registry)");
    }
  }

  void deadlineRaw() {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::Identifier) continue;
      if (t.text == "now" && isSolverScope(rel) && i >= 2 &&
          tokIs(i - 1, ":") && tokIs(i - 2, ":") && tokIs(i + 1, "(") &&
          tokIs(i + 2, ")")) {
        report("DEADLINE-RAW", t.line,
               "argless clock polling inside solver code; poll a composable "
               "support::Deadline (expired()/remaining()) instead");
      }
    }
  }

  void throwBoundary() {
    if (!isTrySolveBoundary(rel)) return;
    for (const Token& t : toks) {
      if (t.kind != TokKind::Identifier) continue;
      if (t.text == "throw" || t.text == "abort") {
        report("THROW-BOUNDARY", t.line,
               "'" + t.text +
                   "' inside the non-throwing trySolve panel boundary; fail "
                   "through support/contracts.h or return a support::Status");
      }
    }
  }

  void bannedFn() {
    constexpr std::array<std::string_view, 10> kBanned = {
        "rand",  "srand",    "strtok", "atoi", "atol",
        "atof",  "sprintf",  "vsprintf", "gets", "endl",
    };
    for (const Token& t : toks) {
      if (t.kind != TokKind::Identifier) continue;
      if (std::find(kBanned.begin(), kBanned.end(), t.text) == kBanned.end())
        continue;
      const std::string why =
          t.text == "endl"
              ? "flushes the stream every call; write '\\n'"
              : t.text == "rand" || t.text == "srand"
                    ? "non-deterministic across libcs; use <random> engines"
                    : "unbounded/locale-dependent C function; use the "
                      "checked C++ alternative";
      report("BANNED-FN", t.line, "banned function '" + t.text + "': " + why);
    }
  }

  void headerHygiene() {
    if (!isHeaderPath(rel)) return;
    bool pragmaOnce = false;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (tokIs(i, "#") && tokIs(i + 1, "pragma") && tokIs(i + 2, "once"))
        pragmaOnce = true;
      if (toks[i].kind == TokKind::Identifier && toks[i].text == "using" &&
          tokIs(i + 1, "namespace")) {
        report("HEADER-HYGIENE", toks[i].line,
               "'using namespace' in a header leaks into every includer; "
               "qualify names instead");
      }
    }
    if (!pragmaOnce)
      report("HEADER-HYGIENE", 1, "header is missing '#pragma once'");
  }

  /// INDEX-CAST: in the strong-index kernel/solver files, the spelled-out
  /// `static_cast<std::size_t>` (or `static_cast<size_t>`) is how index
  /// confusion crept in before src/core/ids.h existed — every subscript
  /// conversion must go through a typed `.idx()`. Functional
  /// `std::size_t(x)` casts stay legal for true size (non-index) math.
  void indexCast() {
    if (!isStrongIndexScope(rel)) return;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::Identifier ||
          toks[i].text != "static_cast" || !tokIs(i + 1, "<"))
        continue;
      std::size_t j = i + 2;
      if (tokIs(j, "std") && tokIs(j + 1, ":") && tokIs(j + 2, ":")) j += 3;
      if (tokIs(j, "size_t") && tokIs(j + 1, ">")) {
        report("INDEX-CAST", toks[i].line,
               "raw static_cast to size_t in strong-index code; subscript "
               "through PinIdx/CandIdx/ConflictIdx/TrackIdx::idx() "
               "(src/core/ids.h), or use a functional std::size_t(...) cast "
               "at a genuine size boundary");
      }
    }
  }

  /// DETERMINISM: iterating an unordered container visits elements in a
  /// hash-seed-dependent order, so a loop body that emits metrics or output
  /// makes runs non-reproducible — the repo's reports and route digests are
  /// compared bit-for-bit. Detection: range-for whose range expression
  /// names an unordered container (by declared variable name or inline
  /// type), with a body that reaches an obs call (`obs::`, `.add(`,
  /// `.note(`) or stream/print output (`<<`, printf/fprintf, cout/cerr).
  void determinism() {
    constexpr std::array<std::string_view, 4> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    auto isUnorderedType = [&](std::size_t i) {
      return toks[i].kind == TokKind::Identifier &&
             std::find(kUnordered.begin(), kUnordered.end(), toks[i].text) !=
                 kUnordered.end();
    };
    // Pass 1: names declared with an unordered type anywhere in the file.
    std::set<std::string> unorderedNames;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!isUnorderedType(i) || !tokIs(i + 1, "<")) continue;
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < toks.size(); ++j) {
        if (tokIs(j, "<")) ++depth;
        if (tokIs(j, ">") && --depth == 0) break;
      }
      for (++j; j < toks.size(); ++j) {
        if (tokIs(j, "&") || tokIs(j, "*")) continue;
        if (toks[j].kind == TokKind::Identifier)
          unorderedNames.insert(toks[j].text);
        break;
      }
    }
    // Pass 2: range-for loops over an unordered range, sink scan of the
    // brace-matched (or single-statement) body.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::Identifier || toks[i].text != "for" ||
          !tokIs(i + 1, "(") )
        continue;
      int depth = 0;
      std::size_t close = i + 1;
      std::size_t colon = 0;
      for (; close < toks.size(); ++close) {
        if (tokIs(close, "(")) ++depth;
        if (tokIs(close, ")") && --depth == 0) break;
        if (depth == 1 && tokIs(close, ":") && !tokIs(close - 1, ":") &&
            !tokIs(close + 1, ":") && colon == 0)
          colon = close;
      }
      if (colon == 0 || close >= toks.size()) continue;  // not a range-for
      bool unordered = false;
      for (std::size_t k = colon + 1; k < close; ++k) {
        if (isUnorderedType(k) ||
            (toks[k].kind == TokKind::Identifier &&
             unorderedNames.count(toks[k].text)))
          unordered = true;
      }
      if (!unordered) continue;
      std::size_t bodyBegin = close + 1;
      std::size_t bodyEnd;
      if (tokIs(bodyBegin, "{")) {
        bodyEnd = matchBrace(toks, bodyBegin);
        ++bodyBegin;
      } else {
        bodyEnd = bodyBegin;
        while (bodyEnd < toks.size() && !tokIs(bodyEnd, ";")) ++bodyEnd;
      }
      for (std::size_t k = bodyBegin; k < bodyEnd && k < toks.size(); ++k) {
        const Token& t = toks[k];
        const bool obsCall =
            t.kind == TokKind::Identifier &&
            (t.text == "obs" ||
             ((t.text == "add" || t.text == "note") && k > 0 &&
              (tokIs(k - 1, ".") || tokIs(k - 1, ">")) && tokIs(k + 1, "(")));
        const bool printCall =
            t.kind == TokKind::Identifier &&
            (t.text == "printf" || t.text == "fprintf" ||
             t.text == "cout" || t.text == "cerr");
        const bool streamOp = tokIs(k, "<") && tokIs(k + 1, "<");
        if (obsCall || printCall || streamOp) {
          report("DETERMINISM", toks[i].line,
                 "loop iterates an unordered container and emits "
                 "metrics/output; iteration order depends on the hash seed "
                 "— iterate a sorted copy or switch to an ordered "
                 "container");
          break;
        }
      }
    }
  }

  void contractCoverage() {
    if (!isPanelKernel(rel)) return;
    // Lines holding a contract macro; a raw access within the window below
    // one of these counts as guarded.
    std::vector<int> contractLines;
    for (const Token& t : toks) {
      if (t.kind == TokKind::Identifier &&
          (t.text == "CPR_CHECK" || t.text == "CPR_DCHECK" ||
           t.text == "CPR_UNREACHABLE"))
        contractLines.push_back(t.line);
    }
    constexpr int kWindow = 8;
    auto guarded = [&](int line) {
      return std::any_of(contractLines.begin(), contractLines.end(),
                         [&](int c) { return c <= line && line - c <= kWindow; });
    };
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      int hit = 0;
      if (t.kind == TokKind::Identifier && t.text == "reinterpret_cast")
        hit = t.line;
      if (t.kind == TokKind::Punct && t.text == "." && tokIs(i + 1, "data") &&
          tokIs(i + 2, "(") && tokIs(i + 3, ")") && tokIs(i + 4, "+"))
        hit = t.line;
      if (hit != 0 && !guarded(hit)) {
        report("CONTRACT-COVERAGE", hit,
               "raw CSR pointer access without a CPR_DCHECK/CPR_CHECK bounds "
               "contract in the preceding " +
                   std::to_string(kWindow) + " lines");
      }
    }
  }
};

}  // namespace

const std::vector<RuleInfo>& ruleTable() {
  static const std::vector<RuleInfo> kTable = {
      {"ALLOW-UNUSED",
       "a 'cpr-lint: allow(...)' directive that suppresses nothing"},
      {"BANNED-FN",
       "rand/srand/strtok/atoi/atol/atof/sprintf/vsprintf/gets/std::endl"},
      {"CONTRACT-COVERAGE",
       "raw CSR pointer access in src/core/panel_kernel.{h,cpp} must sit "
       "under a contract"},
      {"DEAD-HEADER",
       "src/ header that no scanned file includes (architecture pass)"},
      {"DEADLINE-RAW", "argless ::now() clock polling in src/core|src/ilp"},
      {"DETERMINISM",
       "range-for over an unordered container whose body emits "
       "metrics/output"},
      {"GUARDED-BY",
       "CPR_GUARDED_BY field touched outside a region holding its mutex"},
      {"HEADER-HYGIENE",
       "headers need #pragma once and must not 'using namespace'"},
      {"HOT-ALLOC",
       "heap allocation (new, an allocation-manifest call, or unreserved "
       "container growth) reachable from CPR_HOT code or inside a "
       "CPR_NOALLOC body; not allow-suppressible"},
      {"HOT-BLOCKING",
       "blocking-manifest call reachable from CPR_HOT code; not "
       "allow-suppressible"},
      {"HOT-THROW",
       "throw reachable from CPR_HOT code outside a same-body try/catch; "
       "not allow-suppressible"},
      {"INDEX-CAST",
       "static_cast<std::size_t> in strong-index kernel/solver files; use "
       "ids.h idx()"},
      {"LAYER-CYCLE",
       "cycle in the src/ include graph (architecture pass)"},
      {"LAYER-FORBIDDEN",
       "module reaches a header banned by a 'forbid:' line in "
       "tools/lint/layers.txt, directly or transitively"},
      {"LAYER-VIOLATION",
       "include edge pointing up the layer manifest tools/lint/layers.txt"},
      {"LOCK-BLOCKING-CALL",
       "blocking-manifest call while holding a lock not annotated "
       "CPR_MAY_BLOCK; not allow-suppressible"},
      {"LOCK-ORDER",
       "cycle in the whole-tree lock acquisition graph; not "
       "allow-suppressible"},
      {"OBS-LITERAL",
       "inline \"pao|route|drc|ilp|serve.*\" metric literals outside "
       "obs/names.h"},
      {"THREAD-LIFECYCLE",
       "std::thread neither joined/detached/moved; thread field without "
       "CPR_THREAD_REAPER"},
      {"THROW-BOUNDARY",
       "throw/abort in src/core/panel_kernel.{h,cpp} or trySolve-boundary "
       "files"},
  };
  return kTable;
}

std::vector<Diagnostic> lintSource(const std::string& relPath,
                                   std::string_view source) {
  return lintFiles({SourceFile{relPath, std::string(source)}});
}

std::vector<Diagnostic> lintFiles(const std::vector<SourceFile>& files,
                                  const LayerManifest* manifest,
                                  LintStats* stats) {
  // Lex and build the declaration IR once per file; every pass below
  // (file rules, concurrency, architecture) works off these.
  std::vector<LexResult> lexed;
  std::vector<FileIr> irs;
  lexed.reserve(files.size());
  irs.reserve(files.size());
  for (const SourceFile& f : files) {
    lexed.push_back(lex(f.source));
    irs.push_back(buildIr(lexed.back().tokens));
  }

  std::vector<Diagnostic> out;
  for (std::size_t i = 0; i < files.size(); ++i) {
    FileLint fl{files[i].relPath, lexed[i].tokens, {}};
    fl.obsLiteral();
    fl.deadlineRaw();
    fl.throwBoundary();
    fl.bannedFn();
    fl.headerHygiene();
    fl.contractCoverage();
    fl.indexCast();
    fl.determinism();
    out.insert(out.end(), std::make_move_iterator(fl.raw.begin()),
               std::make_move_iterator(fl.raw.end()));
  }

  // Concurrency and hot-path passes over the whole set: annotations are
  // global (a header's CPR_REQUIRES / CPR_HOT applies to the definition in
  // its .cpp), and the lock-order and call graphs only mean anything
  // tree-wide.
  {
    std::vector<ConcFile> conc;
    conc.reserve(files.size());
    for (std::size_t i = 0; i < files.size(); ++i)
      conc.push_back(ConcFile{files[i].relPath, &lexed[i].tokens, &irs[i]});
    std::vector<Diagnostic> cd = checkConcurrency(conc);
    out.insert(out.end(), std::make_move_iterator(cd.begin()),
               std::make_move_iterator(cd.end()));
    HotPathStats hotStats;
    std::vector<Diagnostic> hd = checkHotPaths(conc, &hotStats);
    out.insert(out.end(), std::make_move_iterator(hd.begin()),
               std::make_move_iterator(hd.end()));
    if (stats) stats->callGraphEdges = hotStats.callGraphEdges;
  }

  if (manifest) {
    std::vector<ArchFile> arch;
    arch.reserve(files.size());
    for (std::size_t i = 0; i < files.size(); ++i)
      arch.push_back(ArchFile{files[i].relPath, irs[i].includes});
    std::vector<Diagnostic> graph = checkArchitecture(arch, *manifest);
    out.insert(out.end(), std::make_move_iterator(graph.begin()),
               std::make_move_iterator(graph.end()));
  }

  // Per-line suppression: an allow directive covers its own line and the
  // line directly below it, for the named rules only. The architecture
  // rules and the deadlock-shaped concurrency rules bypass allows by
  // design (see lint.h): their escape hatches are manifest and annotation
  // changes, visible at the declaration, never a per-line pragma.
  auto allowBypassing = [](const std::string& rule) {
    return rule == "LAYER-VIOLATION" || rule == "LAYER-FORBIDDEN" ||
           rule == "LAYER-CYCLE" || rule == "DEAD-HEADER" ||
           rule == "LOCK-ORDER" || rule == "LOCK-BLOCKING-CALL" ||
           rule == "HOT-ALLOC" || rule == "HOT-THROW" ||
           rule == "HOT-BLOCKING";
  };
  std::map<std::string, std::size_t> order;
  for (std::size_t i = 0; i < files.size(); ++i)
    order.emplace(files[i].relPath, i);
  std::vector<Diagnostic> kept;
  kept.reserve(out.size());
  for (Diagnostic& d : out) {
    bool suppressed = false;
    const auto idx = order.find(d.file);
    if (!allowBypassing(d.rule) && idx != order.end()) {
      for (Allow& a : lexed[idx->second].allows) {
        if (a.line != d.line && a.line + 1 != d.line) continue;
        if (std::find(a.rules.begin(), a.rules.end(), d.rule) ==
            a.rules.end())
          continue;
        a.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) kept.push_back(std::move(d));
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const Allow& a : lexed[i].allows) {
      if (a.used) continue;
      kept.push_back(Diagnostic{
          "ALLOW-UNUSED", files[i].relPath, a.line,
          "suppression matches no diagnostic on this or the next line; "
          "remove it"});
    }
  }

  // Per-file grouping (input order) with line-then-rule order inside each
  // file; diagnostics on unknown files (none expected) sort last.
  std::stable_sort(kept.begin(), kept.end(),
                   [&](const Diagnostic& a, const Diagnostic& b) {
                     const auto ia = order.find(a.file);
                     const auto ib = order.find(b.file);
                     const std::size_t fa =
                         ia != order.end() ? ia->second : order.size();
                     const std::size_t fb =
                         ib != order.end() ? ib->second : order.size();
                     if (fa != fb) return fa < fb;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return kept;
}

std::vector<Diagnostic> lintTree(const fs::path& rootDir,
                                 const std::vector<std::string>& subdirs,
                                 std::vector<std::string>* scannedFiles,
                                 const LayerManifest* manifest,
                                 LintStats* stats) {
  auto skipDir = [](const std::string& name) {
    return startsWith(name, "build") || startsWith(name, ".") ||
           name == "corpus" || name == "lint_corpus" || name == "results";
  };
  auto lintable = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc" ||
           ext == ".cxx";
  };
  std::vector<fs::path> files;
  for (const std::string& sub : subdirs) {
    const fs::path base = rootDir / sub;
    std::error_code ec;
    if (fs::is_regular_file(base, ec)) {
      if (lintable(base)) files.push_back(base);
      continue;
    }
    if (!fs::is_directory(base, ec)) continue;
    fs::recursive_directory_iterator it(base, ec), end;
    while (!ec && it != end) {
      if (it->is_directory() && skipDir(it->path().filename().string())) {
        it.disable_recursion_pending();
      } else if (it->is_regular_file() && lintable(it->path())) {
        files.push_back(it->path());
      }
      it.increment(ec);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const fs::path& f : files) {
    std::error_code ec;
    const fs::path relp = fs::relative(f, rootDir, ec);
    const std::string rel = (ec ? f : relp).generic_string();
    if (scannedFiles) scannedFiles->push_back(rel);
    std::ifstream is(f, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    sources.push_back(SourceFile{rel, buf.str()});
  }
  return lintFiles(sources, manifest, stats);
}

StripAllowResult stripAllowDirectives(std::string_view source,
                                      const std::vector<int>& lines) {
  const std::set<int> targets(lines.begin(), lines.end());
  const bool finalNewline = !source.empty() && source.back() == '\n';
  std::vector<std::string> text;
  {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= source.size(); ++i) {
      if (i == source.size() || source[i] == '\n') {
        if (i == source.size() && start == i) break;
        text.emplace_back(source.substr(start, i - start));
        start = i + 1;
      }
    }
  }

  StripAllowResult result;
  std::vector<bool> drop(text.size(), false);
  for (const int lineNo : targets) {
    if (lineNo < 1 || lineNo > static_cast<int>(text.size())) continue;
    std::string& ln = text[lineNo - 1];
    const std::size_t marker = ln.find("cpr-lint:");
    if (marker == std::string::npos) continue;
    // The directive lives inside a comment; remove exactly that comment.
    const std::size_t lineCmt = ln.rfind("//", marker);
    const std::size_t blockCmt = ln.rfind("/*", marker);
    if (lineCmt != std::string::npos &&
        (blockCmt == std::string::npos || blockCmt < lineCmt)) {
      ln.erase(lineCmt);
    } else if (blockCmt != std::string::npos) {
      const std::size_t close = ln.find("*/", marker);
      if (close == std::string::npos) continue;  // malformed; leave it
      ln.erase(blockCmt, close + 2 - blockCmt);
    } else {
      continue;
    }
    while (!ln.empty() && (ln.back() == ' ' || ln.back() == '\t'))
      ln.pop_back();
    if (ln.find_first_not_of(" \t") == std::string::npos)
      drop[lineNo - 1] = true;
    ++result.removed;
  }

  for (std::size_t i = 0; i < text.size(); ++i) {
    if (drop[i]) continue;
    result.source += text[i];
    if (i + 1 < text.size() || finalNewline) result.source += '\n';
  }
  return result;
}

}  // namespace cpr::lint
