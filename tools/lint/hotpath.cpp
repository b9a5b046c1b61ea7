#include "lint/hotpath.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <utility>

namespace cpr::lint {

namespace {

/// Graph node identity: (class name or "" for free functions, name).
/// Overloads deliberately share a node — the pass checks the union of
/// their bodies, which can only over-approximate, never miss.
using FnKey = std::pair<std::string, std::string>;

std::string displayName(const FnKey& k) {
  return k.first.empty() ? k.second : k.first + "::" + k.second;
}

/// One function definition (a body in some file).
struct FnDef {
  const ConcFile* file = nullptr;
  const EntityDecl* decl = nullptr;
  std::string cls;
};

enum class HotAnn { Hot, NoAlloc, ColdOk };

struct Registry {
  std::map<FnKey, std::vector<FnDef>> defs;
  /// name -> classes (excluding "") with a definition of that name.
  std::map<std::string, std::set<std::string>> ownersOf;
  std::set<FnKey> hot, noalloc, coldok;
  /// Resolved call edges and their first recorded site (for stats and the
  /// closure walk; sites make the chain diagnostics concrete).
  std::map<FnKey, std::set<FnKey>> adj;
};

/// Keywords that look like calls at the token level.
bool isCallKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",     "while",    "switch",        "catch",
      "return",   "sizeof",  "alignof",  "alignas",       "decltype",
      "noexcept", "new",     "delete",   "throw",         "static_assert",
      "assert",   "defined", "operator", "co_await",      "co_return",
      "typeid",   "requires"};
  return kKeywords.count(s) > 0 || startsWith(s, "CPR_");
}

/// Normalized receiver spelling of the call whose name token is at `i`:
/// walks back over its postfix chain (`a.b[k]->c()` style receivers and
/// `Ns::Cls::` qualifiers, never below token `lo`) and joins the
/// identifiers by their separators, with subscript groups dropped
/// (`xs[i].push_back` normalizes to "xs") and a leading `this->` stripped.
/// Returns "" when the receiver contains a call or other non-addressable
/// element (then no reserve can match it) or the chain is unbalanced.
std::string receiverSpelling(const std::vector<Token>& toks, std::size_t lo,
                             std::size_t i) {
  std::vector<std::string> parts;  // receiver elements, innermost first
  bool opaque = false;
  std::size_t j = i;  // first token of the element walked so far
  while (j > lo) {
    const Token& p = toks[j - 1];
    std::string sep;
    std::size_t e = 0;  // one past the previous element's last token
    if (isPunct(p, ".")) {
      sep = ".";
      e = j - 1;
    } else if (isPunct(p, ">") && j >= 2 && isPunct(toks[j - 2], "-")) {
      sep = "->";
      e = j - 2;
    } else if (isPunct(p, ":") && j >= 2 && isPunct(toks[j - 2], ":")) {
      sep = "::";
      e = j - 2;
    } else {
      break;
    }
    if (e == lo) break;
    // The previous element ends at e-1: an identifier, a subscript group
    // (dropped from the spelling), or a parenthesized group (opaque).
    std::size_t k = e - 1;
    while (k > lo && (isPunct(toks[k], "]") || isPunct(toks[k], ")"))) {
      const bool bracket = isPunct(toks[k], "]");
      const char* openCh = bracket ? "[" : "(";
      const char* closeCh = bracket ? "]" : ")";
      int depth = 0;
      for (;; --k) {
        if (isPunct(toks[k], closeCh)) ++depth;
        if (isPunct(toks[k], openCh) && --depth == 0) break;
        if (k == lo) return {};  // unbalanced
      }
      if (!bracket) opaque = true;  // call/paren result: not reservable
      if (k == lo) return {};
      --k;
    }
    if (toks[k].kind != TokKind::Identifier) break;
    parts.push_back(toks[k].text + sep);
    j = k;
  }
  if (opaque) return {};
  if (!parts.empty() && parts.back() == "this->") parts.pop_back();
  std::string spelling;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) spelling += *it;
  // Drop the trailing separator that joined the receiver to the call.
  const std::size_t cut = spelling.find_last_not_of(":->.");
  spelling.resize(cut == std::string::npos ? 0 : cut + 1);
  return spelling;
}

/// Resolves a call site to a defined function's key. `recvQualified` is a
/// `.`/`->` call on a non-this receiver; `scopeCls` is the qualifier of a
/// `Q::name(` spelling (may really be a namespace). Returns false when the
/// call does not resolve to exactly one intra-project definition.
bool resolveCall(const Registry& reg, const std::string& callerCls,
                 const std::string& name, bool recvQualified,
                 const std::string& scopeCls, FnKey* out) {
  if (!scopeCls.empty()) {
    if (reg.defs.count(FnKey{scopeCls, name})) {
      *out = FnKey{scopeCls, name};
      return true;
    }
    // `Q::` may be a namespace qualifier on a free function (obs::add).
    if (reg.defs.count(FnKey{"", name})) {
      *out = FnKey{"", name};
      return true;
    }
    return false;
  }
  if (recvQualified) {
    const auto it = reg.ownersOf.find(name);
    if (it == reg.ownersOf.end() || it->second.size() != 1) return false;
    *out = FnKey{*it->second.begin(), name};
    return true;
  }
  if (!callerCls.empty() && reg.defs.count(FnKey{callerCls, name})) {
    *out = FnKey{callerCls, name};
    return true;
  }
  if (reg.defs.count(FnKey{"", name})) {
    *out = FnKey{"", name};
    return true;
  }
  return false;
}

/// Phase 1 (per file): function definitions and hot annotations.
void collectFile(const ConcFile& f, Registry& reg) {
  const std::vector<Token>& toks = *f.toks;
  const FileIr& ir = *f.ir;

  for (const EntityDecl& fn : ir.decls) {
    if (fn.kind != DeclKind::Function) continue;
    if (fn.tokEnd >= toks.size()) continue;  // unbalanced body
    const std::string cls = memberClassOf(ir, toks, fn.nameTok);
    reg.defs[FnKey{cls, fn.name}].push_back(FnDef{&f, &fn, cls});
    if (!cls.empty()) reg.ownersOf[fn.name].insert(cls);
  }

  // Hot annotations anywhere in the file — in-class declarations, header
  // prototypes, or out-of-line definitions; all spellings attach to the
  // same (class, name) node.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    HotAnn ann;
    if (t.text == "CPR_HOT")
      ann = HotAnn::Hot;
    else if (t.text == "CPR_NOALLOC")
      ann = HotAnn::NoAlloc;
    else if (t.text == "CPR_COLD_OK")
      ann = HotAnn::ColdOk;
    else
      continue;
    const std::size_t nameTok = annotatedFunctionName(toks, i);
    if (nameTok >= toks.size()) continue;
    const FnKey key{memberClassOf(ir, toks, nameTok), toks[nameTok].text};
    switch (ann) {
      case HotAnn::Hot:
        reg.hot.insert(key);
        break;
      case HotAnn::NoAlloc:
        reg.noalloc.insert(key);
        break;
      case HotAnn::ColdOk:
        reg.coldok.insert(key);
        break;
    }
  }
}

/// Phase 2 (per file): resolve call edges out of every function body.
void collectEdges(const ConcFile& f, Registry& reg) {
  const std::vector<Token>& toks = *f.toks;
  const FileIr& ir = *f.ir;
  for (const EntityDecl& fn : ir.decls) {
    if (fn.kind != DeclKind::Function) continue;
    if (fn.tokEnd >= toks.size()) continue;
    const std::string cls = memberClassOf(ir, toks, fn.nameTok);
    const FnKey caller{cls, fn.name};
    for (std::size_t i = fn.tokBegin + 1; i < fn.tokEnd; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::Identifier || isCallKeyword(t.text)) continue;
      if (i + 1 >= fn.tokEnd || !isPunct(toks[i + 1], "(")) continue;
      const AccessShape access = accessShapeAt(toks, i);
      FnKey callee;
      if (!resolveCall(reg, cls, t.text, access.onOtherObject(), access.scope,
                       &callee))
        continue;
      if (callee == caller) continue;  // recursion adds nothing to check
      reg.adj[caller].insert(callee);
    }
  }
}

/// One body-level finding before chain decoration.
struct BodyFinding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string what;
};

/// Scans one function body for direct HOT-ALLOC / HOT-THROW / HOT-BLOCKING
/// evidence. `allocOnly` restricts to HOT-ALLOC (CPR_NOALLOC standalone
/// checks).
void scanBody(const FnDef& def, const AllocManifest& allocating,
              const std::set<std::string>& blocking, bool allocOnly,
              std::vector<BodyFinding>& out) {
  const std::vector<Token>& toks = *def.file->toks;
  const EntityDecl& fn = *def.decl;

  // try-block extents for throw containment.
  std::vector<std::pair<std::size_t, std::size_t>> tries;
  if (!allocOnly) {
    for (std::size_t i = fn.tokBegin + 1; i < fn.tokEnd; ++i) {
      if (toks[i].kind != TokKind::Identifier || toks[i].text != "try")
        continue;
      if (i + 1 < fn.tokEnd && isPunct(toks[i + 1], "{")) {
        const std::size_t close = matchBrace(toks, i + 1);
        if (close < toks.size()) tries.emplace_back(i + 1, close);
      }
    }
  }

  // Receivers reserved in this body: normalized spelling -> first token
  // index of the reserve call (growth after that index is exempt).
  std::map<std::string, std::size_t> reservedAt;
  for (std::size_t i = fn.tokBegin + 1; i < fn.tokEnd; ++i) {
    if (toks[i].kind != TokKind::Identifier || toks[i].text != "reserve")
      continue;
    if (i + 1 >= fn.tokEnd || !isPunct(toks[i + 1], "(")) continue;
    const std::string recv = receiverSpelling(toks, fn.tokBegin, i);
    if (!recv.empty() && !reservedAt.count(recv)) reservedAt[recv] = i;
  }

  for (std::size_t i = fn.tokBegin + 1; i < fn.tokEnd; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;

    if (t.text == "new") {
      out.push_back(BodyFinding{"HOT-ALLOC", def.file->relPath, t.line,
                                "'new' heap-allocates"});
      continue;
    }
    if (!allocOnly && t.text == "throw") {
      bool contained = false;
      for (const auto& [open, close] : tries)
        if (open < i && i < close) contained = true;
      if (!contained)
        out.push_back(BodyFinding{
            "HOT-THROW", def.file->relPath, t.line,
            "'throw' escapes (no containing try/catch in this body)"});
      continue;
    }
    const bool calls = i + 1 < fn.tokEnd && isPunct(toks[i + 1], "(");
    if (!calls) continue;
    if (allocating.always.count(t.text)) {
      out.push_back(BodyFinding{"HOT-ALLOC", def.file->relPath, t.line,
                                "allocating call '" + t.text + "'"});
      continue;
    }
    if (allocating.growth.count(t.text)) {
      const std::string recv = receiverSpelling(toks, fn.tokBegin, i);
      const auto it = recv.empty() ? reservedAt.end() : reservedAt.find(recv);
      if (it == reservedAt.end() || it->second > i) {
        out.push_back(BodyFinding{
            "HOT-ALLOC", def.file->relPath, t.line,
            "container growth '" + t.text + "' on '" +
                (recv.empty() ? std::string("<expr>") : recv) +
                "' with no prior " +
                (recv.empty() ? std::string("reserve()") : recv + ".reserve()") +
                " in this body"});
      }
      continue;
    }
    if (!allocOnly && blocking.count(t.text)) {
      out.push_back(BodyFinding{"HOT-BLOCKING", def.file->relPath, t.line,
                                "blocking call '" + t.text + "'"});
    }
  }
}

}  // namespace

const AllocManifest& builtinAllocManifest() {
  // Deliberately absent: `assign` — the sanctioned scratch-arena warm reset
  // (capacity is retained across calls) — and `reserve` itself: the whole
  // point of the discipline is that reservations happen in bind/setup code,
  // which stays reachable from hot roots. `new` is a keyword, not a call;
  // scanBody handles it directly.
  static const AllocManifest kBuiltin = {
      // Always-allocating calls.
      {
          // libc / raw heap.
          "malloc", "calloc", "realloc", "strdup", "strndup", "aligned_alloc",
          "posix_memalign",
          // C++ smart-pointer factories and string builders.
          "make_unique", "make_shared", "make_shared_for_overwrite",
          "to_string",
      },
      // Container growth: exempt when `<receiver>.reserve(` precedes the
      // call in the same body.
      {"push_back", "emplace_back", "push_front", "emplace_front", "insert",
       "emplace", "emplace_hint", "resize"},
  };
  return kBuiltin;
}

std::vector<Diagnostic> checkHotPaths(const std::vector<ConcFile>& files,
                                      HotPathStats* stats) {
  Registry reg;
  for (const ConcFile& f : files) collectFile(f, reg);
  for (const ConcFile& f : files) collectEdges(f, reg);
  if (stats) {
    long edges = 0;
    for (const auto& [from, tos] : reg.adj)
      edges += static_cast<long>(tos.size());
    stats->callGraphEdges = edges;
  }

  const AllocManifest& allocating = builtinAllocManifest();
  const std::set<std::string>& blocking = builtinBlockingManifest();

  // Hot closure: BFS from every CPR_HOT root (sorted, so the chain a
  // shared callee is reported under is deterministic). CPR_COLD_OK nodes
  // are excluded entirely; CPR_NOALLOC nodes stop the descent — they are
  // checked standalone below.
  std::map<FnKey, FnKey> parent;
  std::set<FnKey> closure;
  for (const FnKey& root : reg.hot) {
    if (reg.coldok.count(root) || closure.count(root)) continue;
    closure.insert(root);
    parent[root] = root;
    std::deque<FnKey> q{root};
    while (!q.empty()) {
      const FnKey u = q.front();
      q.pop_front();
      const auto it = reg.adj.find(u);
      if (it == reg.adj.end()) continue;
      for (const FnKey& v : it->second) {
        if (closure.count(v) || reg.coldok.count(v) || reg.noalloc.count(v))
          continue;
        closure.insert(v);
        parent[v] = u;
        q.push_back(v);
      }
    }
  }

  std::vector<Diagnostic> out;
  auto chainFor = [&](const FnKey& node) {
    std::vector<std::string> names{displayName(node)};
    FnKey cur = node;
    while (parent.at(cur) != cur) {
      cur = parent.at(cur);
      names.push_back(displayName(cur));
    }
    std::string chain;
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
      if (!chain.empty()) chain += " -> ";
      chain += *it;
    }
    return chain;
  };

  for (const FnKey& node : closure) {
    const auto defsIt = reg.defs.find(node);
    if (defsIt == reg.defs.end()) continue;  // annotated but header-only decl
    std::vector<BodyFinding> findings;
    for (const FnDef& def : defsIt->second)
      scanBody(def, allocating, blocking, /*allocOnly=*/false, findings);
    const std::string chain = chainFor(node);
    for (const BodyFinding& bf : findings) {
      std::string hint;
      if (bf.rule == "HOT-ALLOC")
        hint = "; hoist the buffer into a scratch arena (reserve in bind, "
               "assign to reset) or annotate a sanctioned cold path "
               "CPR_COLD_OK";
      else if (bf.rule == "HOT-THROW")
        hint = "; contain it behind a trySolve-style try/catch boundary or "
               "annotate CPR_COLD_OK";
      else
        hint = "; pool drains, socket I/O, and sleeps belong in the driver "
               "around the kernel, not inside it";
      out.push_back(Diagnostic{bf.rule, bf.file, bf.line,
                               bf.what + " in hot code (call chain: " + chain +
                                   ")" + hint});
    }
  }

  // CPR_NOALLOC standalone: the body's own allocation contract, checked
  // even when no hot root reaches it.
  for (const FnKey& node : reg.noalloc) {
    if (reg.coldok.count(node)) continue;
    const auto defsIt = reg.defs.find(node);
    if (defsIt == reg.defs.end()) continue;
    std::vector<BodyFinding> findings;
    for (const FnDef& def : defsIt->second)
      scanBody(def, allocating, blocking, /*allocOnly=*/true, findings);
    for (const BodyFinding& bf : findings)
      out.push_back(Diagnostic{
          bf.rule, bf.file, bf.line,
          bf.what + " in CPR_NOALLOC function '" + displayName(node) +
              "'; reserve the receiver in this body, hoist into a scratch "
              "arena, or drop the annotation"});
  }

  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
  return out;
}

}  // namespace cpr::lint
