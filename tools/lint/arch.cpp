#include "lint/arch.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

namespace cpr::lint {

namespace {

/// Module of a src file: the path segment after "src/" ("" when the file is
/// not under src/ or sits directly in it).
std::string moduleOf(std::string_view relPath) {
  if (!startsWith(relPath, "src/")) return {};
  const std::string_view rest = relPath.substr(4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string(rest.substr(0, slash));
}

/// The include graph restricted to files under src/, with the edge lines
/// needed for diagnostics. Node ids index `files`.
struct Graph {
  struct Edge {
    std::size_t to;
    int line;
    std::string spelling;  ///< the include path as written
  };
  std::vector<std::vector<Edge>> adj;
  std::map<std::string, std::size_t> byPath;  ///< "src/..." -> node
};

Graph buildGraph(const std::vector<ArchFile>& files) {
  Graph g;
  g.adj.resize(files.size());
  for (std::size_t i = 0; i < files.size(); ++i)
    if (startsWith(files[i].relPath, "src/")) g.byPath[files[i].relPath] = i;
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const IncludeDecl& inc : files[i].includes) {
      const auto it = g.byPath.find("src/" + inc.path);
      if (it == g.byPath.end()) continue;  // system / non-src include
      g.adj[i].push_back(Graph::Edge{it->second, inc.line, inc.path});
    }
  }
  return g;
}

std::string levelName(int level) {
  if (level == LayerManifest::kEverywhere) return "everywhere";
  return "level " + std::to_string(level);
}

/// LAYER-CYCLE: each distinct include cycle once, anchored at its
/// lexicographically-smallest file's edge into the cycle.
void findIncludeCycles(const std::vector<ArchFile>& files, const Graph& g,
                       std::vector<Diagnostic>& out) {
  std::vector<std::vector<std::size_t>> adj(files.size());
  std::vector<std::string> names(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const Graph::Edge& e : g.adj[i]) adj[i].push_back(e.to);
    names[i] = files[i].relPath;
  }
  for (const Cycle& c : findCycles(adj, names)) {
    int line = 1;
    const std::size_t next = c.nodes[1 % c.nodes.size()];
    for (const Graph::Edge& e : g.adj[c.nodes.front()])
      if (e.to == next) line = e.line;
    out.push_back(Diagnostic{
        "LAYER-CYCLE", names[c.nodes.front()], line,
        "include cycle: " + c.chain +
            "; break the cycle with a forward declaration or by moving the "
            "shared type down a layer"});
  }
}

}  // namespace

int LayerManifest::levelOf(std::string_view module) const {
  for (const std::string& m : everywhere)
    if (m == module) return kEverywhere;
  for (std::size_t l = 0; l < levels.size(); ++l)
    for (const std::string& m : levels[l])
      if (m == module) return static_cast<int>(l);
  return kUnknown;
}

bool parseLayerManifest(std::string_view text, LayerManifest& out,
                        std::string& error) {
  out = LayerManifest{};
  std::set<std::string> seen;
  std::istringstream is{std::string(text)};
  std::string line;
  int lineNo = 0;
  while (std::getline(is, line)) {
    ++lineNo;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream words(line);
    std::string word;
    std::vector<std::string>* dest = nullptr;
    while (words >> word) {
      if (!dest) {
        if (word == "forbid:") {
          LayerManifest::Forbid f;
          std::string extra;
          if (!(words >> f.module >> f.include) || (words >> extra)) {
            error = "layers.txt:" + std::to_string(lineNo) +
                    ": 'forbid:' wants exactly '<module> <include-path>'";
            return false;
          }
          out.forbids.push_back(std::move(f));
          break;
        }
        if (word == "everywhere:") {
          if (!out.everywhere.empty()) {
            error = "layers.txt:" + std::to_string(lineNo) +
                    ": duplicate 'everywhere:' line";
            return false;
          }
          dest = &out.everywhere;
          continue;
        }
        out.levels.emplace_back();
        dest = &out.levels.back();
      }
      if (!seen.insert(word).second) {
        error = "layers.txt:" + std::to_string(lineNo) +
                ": module '" + word + "' named twice";
        return false;
      }
      dest->push_back(word);
    }
  }
  if (out.levels.empty()) {
    error = "layers.txt names no layers";
    return false;
  }
  for (const LayerManifest::Forbid& f : out.forbids) {
    if (out.levelOf(f.module) == LayerManifest::kUnknown) {
      error = "layers.txt: 'forbid: " + f.module + " " + f.include +
              "' names a module no layer line declares";
      return false;
    }
  }
  return true;
}

bool loadLayerManifest(const std::string& path, LayerManifest& out,
                       std::string& error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    error = "cannot read layer manifest: " + path;
    return false;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return parseLayerManifest(buf.str(), out, error);
}

std::vector<Diagnostic> checkArchitecture(const std::vector<ArchFile>& files,
                                          const LayerManifest& manifest) {
  std::vector<Diagnostic> out;
  const Graph g = buildGraph(files);

  // LAYER-VIOLATION: per-module placement, then per-edge direction.
  std::set<std::string> flaggedUnknown;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string& rel = files[i].relPath;
    const std::string mod = moduleOf(rel);
    if (mod.empty() && startsWith(rel, "src/")) continue;  // src/ top level
    if (!startsWith(rel, "src/")) continue;
    const int level = manifest.levelOf(mod);
    if (level == LayerManifest::kUnknown) {
      if (flaggedUnknown.insert(mod).second) {
        out.push_back(Diagnostic{
            "LAYER-VIOLATION", rel, 1,
            "module 'src/" + mod +
                "' is not named in the architecture manifest "
                "(tools/lint/layers.txt); add it to a layer line"});
      }
      continue;
    }
    for (const Graph::Edge& e : g.adj[i]) {
      const std::string toMod = moduleOf(files[e.to].relPath);
      if (toMod == mod) continue;  // intra-module
      const int toLevel = manifest.levelOf(toMod);
      if (toLevel == LayerManifest::kEverywhere) continue;
      const std::string chain =
          "; chain: " + rel + " -> " + files[e.to].relPath;
      if (level == LayerManifest::kEverywhere) {
        out.push_back(Diagnostic{
            "LAYER-VIOLATION", rel, e.line,
            "module 'src/" + mod +
                "' is importable everywhere and must itself depend only on "
                "everywhere modules, but includes \"" +
                e.spelling + "\" from layered module 'src/" + toMod + "'" +
                chain});
        continue;
      }
      if (toLevel == LayerManifest::kUnknown) continue;  // flagged above
      if (toLevel > level) {
        out.push_back(Diagnostic{
            "LAYER-VIOLATION", rel, e.line,
            "include of \"" + e.spelling + "\" pulls 'src/" + toMod + "' (" +
                levelName(toLevel) + ") into 'src/" + mod + "' (" +
                levelName(level) +
                "); layers may only include sideways or down" + chain});
      }
    }
  }

  // LAYER-FORBIDDEN: `forbid:` manifest lines. Direct includes are reported
  // at the offending line; otherwise a breadth-first walk of the src include
  // graph catches the header arriving through any chain of intermediaries
  // (the failure mode that re-opens an interface seam unnoticed).
  for (const LayerManifest::Forbid& f : manifest.forbids) {
    const std::string targetRel = "src/" + f.include;
    const auto targetIt = g.byPath.find(targetRel);
    for (std::size_t i = 0; i < files.size(); ++i) {
      const std::string& rel = files[i].relPath;
      if (moduleOf(rel) != f.module || rel == targetRel) continue;
      bool direct = false;
      for (const IncludeDecl& inc : files[i].includes) {
        if (inc.path != f.include) continue;
        direct = true;
        out.push_back(Diagnostic{
            "LAYER-FORBIDDEN", rel, inc.line,
            "include of \"" + f.include + "\" is forbidden for module 'src/" +
                f.module +
                "' by tools/lint/layers.txt; depend on the interface seam "
                "instead of the concrete header"});
      }
      if (direct || targetIt == g.byPath.end()) continue;
      const std::size_t target = targetIt->second;
      constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
      std::vector<std::size_t> parent(files.size(), kUnvisited);
      std::vector<std::size_t> queue{i};
      parent[i] = i;
      bool reached = false;
      for (std::size_t qi = 0; qi < queue.size() && !reached; ++qi) {
        for (const Graph::Edge& e : g.adj[queue[qi]]) {
          if (parent[e.to] != kUnvisited) continue;
          parent[e.to] = queue[qi];
          if (e.to == target) {
            reached = true;
            break;
          }
          queue.push_back(e.to);
        }
      }
      if (!reached) continue;
      std::vector<std::size_t> path;
      for (std::size_t n = target; n != i; n = parent[n]) path.push_back(n);
      path.push_back(i);
      std::reverse(path.begin(), path.end());
      int line = 1;
      for (const Graph::Edge& e : g.adj[i])
        if (e.to == path[1]) line = e.line;
      std::string chain;
      for (const std::size_t n : path) {
        if (!chain.empty()) chain += " -> ";
        chain += files[n].relPath;
      }
      out.push_back(Diagnostic{
          "LAYER-FORBIDDEN", rel, line,
          "transitively pulls \"" + f.include + "\", forbidden for module "
              "'src/" + f.module +
              "' by tools/lint/layers.txt; chain: " + chain});
    }
  }

  findIncludeCycles(files, g, out);

  // DEAD-HEADER: src headers nothing includes. Every scanned file counts as
  // a potential includer, so tools/tests/bench keep src headers alive.
  std::set<std::size_t> included;
  for (const std::vector<Graph::Edge>& edges : g.adj)
    for (const Graph::Edge& e : edges) included.insert(e.to);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string& rel = files[i].relPath;
    if (!startsWith(rel, "src/")) continue;
    if (!endsWith(rel, ".h") && !endsWith(rel, ".hpp")) continue;
    if (included.count(i)) continue;
    out.push_back(Diagnostic{
        "DEAD-HEADER", rel, 1,
        "header is included by no scanned file; delete it or include it "
        "from the code that is meant to use it"});
  }

  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
  return out;
}

}  // namespace cpr::lint
