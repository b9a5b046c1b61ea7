/// \file main.cpp
/// cpr_lint CLI: lints the project trees and exits non-zero on any
/// diagnostic. Run as a ctest target (repo_lint) and as the CI lint job.
///
///   cpr_lint [--root DIR] [--sarif FILE] [--report FILE]
///            [--fix-stale-allows] [--list-rules] [PATH...]
///
/// PATHs are files or directories relative to --root (default: the current
/// directory); with no PATH the project trees src tools tests bench
/// examples fuzz are scanned. The architecture-graph pass runs whenever
/// <root>/tools/lint/layers.txt exists; a manifest that exists but does not
/// parse is a hard error (exit 2), so a typo cannot silently switch the
/// pass off. The blocking-call and allocation manifests are compiled into
/// the rule engine. `--sarif` writes the diagnostics as a SARIF 2.1.0 log
/// for code-scanning upload; `--report` writes the run's own counters
/// (lint.files / lint.diagnostics / lint.callgraph.edges and the lint.run
/// span) as a `cpr.report.v1` JSON.
/// `--fix-stale-allows` rewrites the scanned files in place, deleting
/// every allow directive flagged ALLOW-UNUSED, and drops those findings
/// from the output. Exit codes: 0 clean, 1 diagnostics found, 2 usage or
/// bad manifest.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint/arch.h"
#include "lint/lint.h"
#include "obs/collector.h"
#include "obs/names.h"
#include "obs/report.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--root DIR] [--sarif FILE] [--report FILE]\n"
      "       [--fix-stale-allows] [--list-rules] [PATH...]\n"
      "  --root DIR        repo root the PATHs are relative to; its\n"
      "                    tools/lint/layers.txt, when present, drives the\n"
      "                    architecture pass\n"
      "  --sarif FILE      write diagnostics as SARIF 2.1.0\n"
      "  --report FILE     write run counters as cpr.report.v1 JSON\n"
      "  --fix-stale-allows  delete ALLOW-UNUSED directives in place\n"
      "  --list-rules      print the rule table and exit\n"
      "  PATH...           files or directories under --root (default: src\n"
      "                    tools tests bench examples fuzz)\n",
      argv0);
  return 2;
}

/// Minimal SARIF 2.1.0 log: one run, the rule table as the driver's rules,
/// one result per diagnostic. Paths are emitted repo-relative with a
/// SRCROOT base so code-scanning UIs anchor them to the checkout.
void writeSarif(std::ostream& os,
                const std::vector<cpr::lint::Diagnostic>& diags) {
  const auto esc = [](std::string_view s) { return cpr::obs::jsonEscape(s); };
  os << "{\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"runs\": [{\n"
     << "    \"tool\": {\"driver\": {\n"
     << "      \"name\": \"cpr_lint\",\n"
     << "      \"rules\": [";
  bool first = true;
  for (const cpr::lint::RuleInfo& r : cpr::lint::ruleTable()) {
    os << (first ? "\n" : ",\n") << "        {\"id\": \"" << esc(r.id)
       << "\", \"shortDescription\": {\"text\": \"" << esc(r.summary)
       << "\"}}";
    first = false;
  }
  os << "\n      ]\n    }},\n"
     << "    \"originalUriBaseIds\": {\"SRCROOT\": {\"uri\": "
        "\"file:///\"}},\n"
     << "    \"results\": [";
  first = true;
  for (const cpr::lint::Diagnostic& d : diags) {
    os << (first ? "\n" : ",\n") << "      {\"ruleId\": \"" << esc(d.rule)
       << "\", \"level\": \"error\", \"message\": {\"text\": \""
       << esc(d.message) << "\"}, \"locations\": [{\"physicalLocation\": "
       << "{\"artifactLocation\": {\"uri\": \"" << esc(d.file)
       << "\", \"uriBaseId\": \"SRCROOT\"}, \"region\": {\"startLine\": "
       << d.line << "}}}]}";
    first = false;
  }
  os << "\n    ]\n  }]\n}\n";
}

bool saveSarif(const std::string& path,
               const std::vector<cpr::lint::Diagnostic>& diags) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  writeSarif(os, diags);
  return static_cast<bool>(os);
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string sarifPath;
  std::string reportPath;
  bool fixStaleAllows = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flagValue = [&](std::string& dest) {
      if (i + 1 >= argc) return false;
      dest = argv[++i];
      return true;
    };
    if (arg == "--root") {
      if (!flagValue(root)) return usage(argv[0]);
    } else if (arg == "--fix-stale-allows") {
      fixStaleAllows = true;
    } else if (arg == "--sarif") {
      if (!flagValue(sarifPath)) return usage(argv[0]);
    } else if (arg == "--report") {
      if (!flagValue(reportPath)) return usage(argv[0]);
    } else if (arg == "--list-rules") {
      for (const cpr::lint::RuleInfo& r : cpr::lint::ruleTable())
        std::printf("%-18s %s\n", std::string(r.id).c_str(),
                    std::string(r.summary).c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty())
    paths = {"src", "tools", "tests", "bench", "examples", "fuzz"};

  // The architecture pass runs when the in-repo layer manifest exists. One
  // that exists but does not parse is an error, never a skipped pass.
  cpr::lint::LayerManifest manifest;
  const cpr::lint::LayerManifest* manifestPtr = nullptr;
  const std::filesystem::path layersPath =
      std::filesystem::path(root) / "tools/lint/layers.txt";
  if (std::filesystem::exists(layersPath)) {
    std::string error;
    if (!cpr::lint::loadLayerManifest(layersPath.generic_string(), manifest,
                                      error)) {
      std::fprintf(stderr, "cpr_lint: %s\n", error.c_str());
      return 2;
    }
    manifestPtr = &manifest;
  }

  cpr::obs::Collector collector;
  std::vector<std::string> scanned;
  std::vector<cpr::lint::Diagnostic> diags;
  cpr::lint::LintStats stats;
  {
    const cpr::obs::ScopedTimer timer(&collector,
                                      cpr::obs::names::kLintRunSpan);
    diags = cpr::lint::lintTree(root, paths, &scanned, manifestPtr, &stats);
  }

  if (fixStaleAllows) {
    // Rewrite each offending file once, then drop the fixed findings so
    // the run reports (and exits on) only what remains.
    std::map<std::string, std::vector<int>> stale;
    for (const cpr::lint::Diagnostic& d : diags)
      if (d.rule == "ALLOW-UNUSED") stale[d.file].push_back(d.line);
    int removed = 0;
    for (const auto& [rel, lines] : stale) {
      const std::filesystem::path p = std::filesystem::path(root) / rel;
      std::ifstream is(p, std::ios::binary);
      if (!is) {
        std::fprintf(stderr, "cpr_lint: cannot reread %s\n", rel.c_str());
        return 2;
      }
      std::ostringstream buf;
      buf << is.rdbuf();
      is.close();
      const cpr::lint::StripAllowResult fixed =
          cpr::lint::stripAllowDirectives(buf.str(), lines);
      std::ofstream os(p, std::ios::binary | std::ios::trunc);
      if (!os || !(os << fixed.source)) {
        std::fprintf(stderr, "cpr_lint: cannot rewrite %s\n", rel.c_str());
        return 2;
      }
      removed += fixed.removed;
    }
    if (!stale.empty()) {
      std::fprintf(stderr,
                   "cpr_lint: removed %d stale allow directive(s) in %zu "
                   "file(s)\n",
                   removed, stale.size());
      diags.erase(std::remove_if(diags.begin(), diags.end(),
                                 [](const cpr::lint::Diagnostic& d) {
                                   return d.rule == "ALLOW-UNUSED";
                                 }),
                  diags.end());
    }
  }
  collector.add(cpr::obs::names::kLintFiles,
                static_cast<long>(scanned.size()));
  collector.add(cpr::obs::names::kLintDiagnostics,
                static_cast<long>(diags.size()));
  collector.add(cpr::obs::names::kLintCallgraphEdges, stats.callGraphEdges);

  for (const cpr::lint::Diagnostic& d : diags)
    std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line, d.rule.c_str(),
                d.message.c_str());
  std::fprintf(stderr,
               "cpr_lint: %zu file(s) scanned, %zu diagnostic(s)%s\n",
               scanned.size(), diags.size(),
               manifestPtr ? "" : " (no layer manifest; arch pass skipped)");

  if (!sarifPath.empty() && !saveSarif(sarifPath, diags)) {
    std::fprintf(stderr, "cpr_lint: cannot write SARIF to %s\n",
                 sarifPath.c_str());
    return 2;
  }
  if (!reportPath.empty()) {
    try {
      cpr::obs::saveReportJson(collector, reportPath);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "cpr_lint: %s\n", e.what());
      return 2;
    }
  }
  return diags.empty() ? 0 : 1;
}
