#include "lint/ir.h"

#include <array>
#include <algorithm>
#include <map>
#include <set>

namespace cpr::lint {

bool isPunct(const Token& t, std::string_view text) {
  return t.kind == TokKind::Punct && t.text == text;
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view lastSegment(std::string_view name) {
  const std::size_t pos = name.rfind("::");
  return pos == std::string_view::npos ? name : name.substr(pos + 2);
}

namespace {

bool isIdent(const Token& t, std::string_view text) {
  return t.kind == TokKind::Identifier && t.text == text;
}

/// Matching-delimiter scan for any open/close punct pair.
std::size_t matchPair(const std::vector<Token>& toks, std::size_t open,
                      std::string_view o, std::string_view c) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (isPunct(toks[i], o)) ++depth;
    if (isPunct(toks[i], c) && --depth == 0) return i;
  }
  return toks.size();
}

/// Recursive-descent builder. Descends into namespace and class bodies
/// (declaration scope continues there) and steps over function and enum
/// bodies (only their extent matters to the IR).
class IrBuilder {
 public:
  explicit IrBuilder(const std::vector<Token>& toks) : toks_(toks) {}

  FileIr run() {
    scan(0, toks_.size());
    return std::move(ir_);
  }

 private:
  [[nodiscard]] bool at(std::size_t i, std::string_view text) const {
    return i < toks_.size() && toks_[i].text == text;
  }

  /// Consumes `#include <...>` / `#include "..."` starting at the `#`.
  /// Returns the index just past the directive.
  std::size_t include(std::size_t i) {
    const int line = toks_[i].line;
    std::size_t j = i + 2;  // past '#' 'include'
    if (j >= toks_.size()) return j;
    if (toks_[j].kind == TokKind::String) {
      ir_.includes.push_back(IncludeDecl{toks_[j].text, false, line});
      return j + 1;
    }
    if (isPunct(toks_[j], "<")) {
      // Re-join the header-name tokens: `<core/ids.h>` lexes as several
      // identifier/punct tokens. The directive cannot span lines.
      std::string path;
      ++j;
      while (j < toks_.size() && toks_[j].line == line &&
             !isPunct(toks_[j], ">")) {
        path += toks_[j].text;
        ++j;
      }
      if (j < toks_.size() && isPunct(toks_[j], ">")) ++j;
      ir_.includes.push_back(IncludeDecl{std::move(path), true, line});
    }
    return j;
  }

  /// `namespace [a::b] {` — records the decl; the body stays in declaration
  /// scope, so the caller keeps scanning right after the `{`.
  std::size_t namespaceDecl(std::size_t i) {
    const int line = toks_[i].line;
    std::string name;
    std::size_t j = i + 1;
    while (j < toks_.size() &&
           (toks_[j].kind == TokKind::Identifier || isPunct(toks_[j], ":"))) {
      name += toks_[j].text;
      ++j;
    }
    if (j >= toks_.size() || !isPunct(toks_[j], "{")) return i + 1;
    const std::size_t close = matchBrace(toks_, j);
    ir_.namespaces.push_back(NamespaceDecl{
        std::move(name), line, toks_[j].line,
        close < toks_.size() ? toks_[close].line : 0});
    return j + 1;  // descend: namespace bodies hold declarations
  }

  /// `class|struct [attrs] Name [: bases] { ... }` — records the decl and
  /// descends into the body (members are declarations). Forward
  /// declarations (`class X;`) and elaborated uses produce no decl.
  std::size_t classDecl(std::size_t i) {
    std::size_t j = i + 1;
    // Skip attributes / alignas / export-macro identifiers up to the name:
    // the name is the last identifier before `{`, `;`, or `:` (base clause).
    std::string name;
    int nameLine = toks_[i].line;
    while (j < toks_.size()) {
      const Token& t = toks_[j];
      if (isPunct(t, "[") || isPunct(t, "(")) {
        j = matchPair(toks_, j, t.text, t.text == "[" ? "]" : ")") + 1;
        continue;
      }
      if (t.kind == TokKind::Identifier) {
        if (t.text != "final") {
          // A `::` continues a qualified name (`struct Server::Connection`);
          // otherwise each identifier replaces the candidate, so attribute
          // macros before the real name do not stick.
          if (name.size() >= 2 && name.compare(name.size() - 2, 2, "::") == 0)
            name += t.text;
          else
            name = t.text;
          nameLine = t.line;
        }
        ++j;
        continue;
      }
      if (isPunct(t, ":") && j + 1 < toks_.size() &&
          isPunct(toks_[j + 1], ":") && !name.empty()) {
        name += "::";
        j += 2;
        continue;
      }
      break;
    }
    // Base clause: skip to the `{` (template args inside base lists have no
    // top-level braces before the class body).
    if (j < toks_.size() && isPunct(toks_[j], ":")) {
      while (j < toks_.size() && !isPunct(toks_[j], "{") &&
             !isPunct(toks_[j], ";"))
        ++j;
    }
    if (j >= toks_.size() || !isPunct(toks_[j], "{") || name.empty())
      return i + 1;  // forward decl, elaborated type, or anonymous
    const std::size_t close = matchBrace(toks_, j);
    ir_.decls.push_back(EntityDecl{
        DeclKind::Class, std::move(name), nameLine, toks_[j].line,
        close < toks_.size() ? toks_[close].line : 0, j, close});
    return j + 1;  // descend: members are declarations
  }

  /// `enum [class|struct] Name ... { ... }` — records the decl and steps
  /// over the body (enumerators are not declarations the IR tracks).
  std::size_t enumDecl(std::size_t i) {
    std::size_t j = i + 1;
    if (j < toks_.size() &&
        (isIdent(toks_[j], "class") || isIdent(toks_[j], "struct")))
      ++j;
    std::string name;
    int nameLine = toks_[i].line;
    if (j < toks_.size() && toks_[j].kind == TokKind::Identifier) {
      name = toks_[j].text;
      nameLine = toks_[j].line;
      ++j;
    }
    while (j < toks_.size() && !isPunct(toks_[j], "{") &&
           !isPunct(toks_[j], ";"))
      ++j;
    if (j >= toks_.size() || !isPunct(toks_[j], "{")) return i + 1;
    const std::size_t close = matchBrace(toks_, j);
    if (!name.empty()) {
      ir_.decls.push_back(EntityDecl{
          DeclKind::Enum, std::move(name), nameLine, toks_[j].line,
          close < toks_.size() ? toks_[close].line : 0, j, close});
    }
    return close + 1;  // step over: no declarations inside
  }

  /// Tries to read a function *definition* whose name is the identifier at
  /// `i` (immediately followed by `(`): matches the parameter parens, then
  /// skips trailer tokens (cv/ref qualifiers, noexcept(...), trailing return
  /// types, constructor init lists) up to the body `{`. Anything ending in
  /// `;` or `=` is a plain declaration / variable and produces no decl.
  /// Returns the index to resume at, or `i` when this is not a definition.
  std::size_t functionDecl(std::size_t i) {
    static constexpr std::array<std::string_view, 10> kNotAName = {
        "if",     "for",    "while",    "switch",        "catch",
        "return", "sizeof", "decltype", "static_assert", "noexcept",
    };
    if (std::find(kNotAName.begin(), kNotAName.end(), toks_[i].text) !=
        kNotAName.end())
      return i;
    const std::size_t close = matchPair(toks_, i + 1, "(", ")");
    if (close >= toks_.size()) return i;
    std::size_t j = close + 1;
    while (j < toks_.size()) {
      const Token& t = toks_[j];
      if (isPunct(t, "{")) {
        const std::size_t end = matchBrace(toks_, j);
        ir_.decls.push_back(EntityDecl{
            DeclKind::Function, toks_[i].text, toks_[i].line, t.line,
            end < toks_.size() ? toks_[end].line : 0, j, end, i});
        return end + 1;  // step over the body
      }
      if (isPunct(t, ";") || isPunct(t, "=") || isPunct(t, "}")) return i;
      if (isPunct(t, "(")) {  // noexcept(...), init-list member parens
        j = matchPair(toks_, j, "(", ")") + 1;
        continue;
      }
      ++j;
    }
    return i;
  }

  void scan(std::size_t begin, std::size_t end) {
    std::size_t i = begin;
    while (i < end && i < toks_.size()) {
      const Token& t = toks_[i];
      if (isPunct(t, "#") && at(i + 1, "include")) {
        i = include(i);
        continue;
      }
      if (isIdent(t, "namespace")) {
        i = namespaceDecl(i);
        continue;
      }
      if (isIdent(t, "class") || isIdent(t, "struct")) {
        i = classDecl(i);
        continue;
      }
      if (isIdent(t, "enum")) {
        i = enumDecl(i);
        continue;
      }
      if (t.kind == TokKind::Identifier && at(i + 1, "(")) {
        const std::size_t next = functionDecl(i);
        if (next != i) {
          i = next;
          continue;
        }
      }
      ++i;
    }
  }

  const std::vector<Token>& toks_;
  FileIr ir_;
};

}  // namespace

std::size_t matchBrace(const std::vector<Token>& toks, std::size_t open) {
  return matchPair(toks, open, "{", "}");
}

FileIr buildIr(const std::vector<Token>& toks) { return IrBuilder(toks).run(); }

namespace {

/// Innermost class declaration whose body contains token index `i`.
const EntityDecl* enclosingClass(const FileIr& ir, std::size_t i) {
  const EntityDecl* best = nullptr;
  for (const EntityDecl& d : ir.decls) {
    if (d.kind != DeclKind::Class) continue;
    if (d.tokBegin < i && i < d.tokEnd &&
        (!best || d.tokBegin > best->tokBegin))
      best = &d;
  }
  return best;
}

/// `Q` of a `Q::name` spelling whose name token sits at `i`; "" when the
/// name is not qualified by an identifier.
std::string scopeQualifier(const std::vector<Token>& toks, std::size_t i) {
  if (i >= 3 && isPunct(toks[i - 1], ":") && isPunct(toks[i - 2], ":") &&
      toks[i - 3].kind == TokKind::Identifier)
    return toks[i - 3].text;
  return {};
}

}  // namespace

std::size_t annotatedFunctionName(const std::vector<Token>& toks,
                                  std::size_t m) {
  std::size_t j = m;
  while (j > 0) {
    const Token& t = toks[j - 1];
    if (t.kind == TokKind::Identifier) {
      if (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
          t.text == "final" || startsWith(t.text, "CPR_")) {
        --j;
        continue;
      }
      return toks.size();  // e.g. macro after a field, not a function
    }
    if (isPunct(t, ")")) {
      int depth = 0;
      std::size_t k = j - 1;
      for (;; --k) {
        if (isPunct(toks[k], ")")) ++depth;
        if (isPunct(toks[k], "(") && --depth == 0) break;
        if (k == 0) return toks.size();
      }
      if (k == 0) return toks.size();
      const Token& before = toks[k - 1];
      if (before.kind != TokKind::Identifier) return toks.size();
      if (before.text == "noexcept" || startsWith(before.text, "CPR_")) {
        j = k - 1;
        continue;
      }
      return k - 1;
    }
    return toks.size();
  }
  return toks.size();
}

std::string memberClassOf(const FileIr& ir, const std::vector<Token>& toks,
                          std::size_t nameTok) {
  if (const EntityDecl* cls = enclosingClass(ir, nameTok))
    return std::string(lastSegment(cls->name));
  if (nameTok >= 1 && isPunct(toks[nameTok - 1], "~")) --nameTok;
  return scopeQualifier(toks, nameTok);
}

AccessShape accessShapeAt(const std::vector<Token>& toks, std::size_t i) {
  const bool arrow =
      i >= 2 && isPunct(toks[i - 1], ">") && isPunct(toks[i - 2], "-");
  AccessShape s;
  s.member = arrow || (i >= 1 && isPunct(toks[i - 1], "."));
  s.viaThis = arrow && i >= 3 && toks[i - 3].kind == TokKind::Identifier &&
              toks[i - 3].text == "this";
  s.qualified = i >= 1 && isPunct(toks[i - 1], ":");
  s.scope = scopeQualifier(toks, i);
  return s;
}

namespace {

/// The RAII guard class names the region tracker understands. shared_lock
/// is tracked like an exclusive hold: for the lint's purposes (blocking
/// calls, lock order) a reader hold participates exactly like a writer one.
bool isGuardClass(std::string_view text) {
  return text == "lock_guard" || text == "unique_lock" ||
         text == "scoped_lock" || text == "shared_lock";
}

/// Joins the tokens of one mutex argument ("conn -> writeMu" ->
/// "conn->writeMu"). Returns an empty string for tag arguments
/// (std::defer_lock and friends) so callers can skip them; `deferred` is
/// set when the tag was specifically std::defer_lock.
std::string joinMutexArg(const std::vector<Token>& toks, std::size_t begin,
                         std::size_t end, bool* deferred) {
  std::string expr;
  std::string last;
  for (std::size_t i = begin; i < end; ++i) {
    expr += toks[i].text;
    if (toks[i].kind == TokKind::Identifier) last = toks[i].text;
  }
  if (last == "defer_lock") {
    *deferred = true;
    return {};
  }
  if (last == "adopt_lock" || last == "try_to_lock") return {};
  return expr;
}

}  // namespace

std::vector<LockRegion> findLockRegions(const std::vector<Token>& toks,
                                        std::size_t bodyBegin,
                                        std::size_t bodyEnd) {
  std::vector<LockRegion> out;
  if (bodyBegin >= toks.size() || bodyEnd > toks.size() ||
      bodyBegin >= bodyEnd)
    return out;

  // One declared RAII guard variable. `scopeEnd` is the token index of the
  // `}` closing the scope it was declared in; reopened regions (unlock then
  // lock) end there too.
  struct GuardVar {
    std::vector<std::string> mutexes;
    std::size_t scopeEnd = 0;
    std::vector<std::size_t> open;  ///< indices into `out` of open regions
  };
  std::map<std::string, GuardVar> guards;
  std::vector<std::size_t> manualOpen;  ///< indices into `out`, raii=false
  std::vector<std::size_t> braceStack{bodyBegin};
  int nextGroup = 0;

  auto is = [&](std::size_t i, std::string_view text) {
    return i < bodyEnd && toks[i].text == text;
  };
  /// Receiver expression of a `.`/`->` method call whose name token is at
  /// `name`: walks back over identifier / `::` / `.` / `->` / `this`
  /// tokens. Returns empty when the name is not member-accessed.
  auto receiverOf = [&](std::size_t name) {
    std::size_t i = name;
    if (i >= 2 && toks[i - 1].text == "." &&
        toks[i - 1].kind == TokKind::Punct) {
      i -= 1;
    } else if (i >= 3 && toks[i - 1].text == ">" && toks[i - 2].text == "-") {
      i -= 2;
    } else {
      return std::string();
    }
    const std::size_t accessor = i;
    while (i > bodyBegin) {
      const Token& p = toks[i - 1];
      if (p.kind == TokKind::Identifier) {
        --i;
        continue;
      }
      if (p.text == "." || p.text == ":") {
        --i;
        continue;
      }
      if (p.text == ">" && i >= 2 && toks[i - 2].text == "-") {
        i -= 2;
        continue;
      }
      break;
    }
    // The expression must start with an identifier (or `this`), and must
    // not be a chained call result like `f().lock()` — those start after
    // a `)` which the walk above stopped at.
    if (i >= accessor || toks[i].kind != TokKind::Identifier)
      return std::string();
    std::string expr;
    for (std::size_t k = i; k < accessor; ++k) expr += toks[k].text;
    return expr;
  };

  for (std::size_t i = bodyBegin + 1; i < bodyEnd; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::Punct) {
      if (t.text == "{") braceStack.push_back(i);
      if (t.text == "}" && braceStack.size() > 1) braceStack.pop_back();
      continue;
    }
    if (t.kind != TokKind::Identifier) continue;

    // RAII guard declaration: std::lock_guard<...> name(mu[, mu2...]);
    if (isGuardClass(t.text) && i > bodyBegin && is(i - 1, ":")) {
      std::size_t j = i + 1;
      if (is(j, "<")) {  // skip template arguments
        int depth = 0;
        for (; j < bodyEnd; ++j) {
          if (is(j, "<")) ++depth;
          if (is(j, ">") && --depth == 0) break;
        }
        ++j;
      }
      if (j >= bodyEnd || toks[j].kind != TokKind::Identifier) continue;
      const std::string var = toks[j].text;
      const std::string open = is(j + 1, "(") ? "(" : is(j + 1, "{") ? "{" : "";
      if (open.empty()) continue;  // e.g. `std::unique_lock<std::mutex> v;`
      const std::string close = open == "(" ? ")" : "}";
      std::size_t k = j + 1;
      int depth = 0;
      bool deferred = false;
      std::vector<std::string> mutexes;
      std::size_t argBegin = j + 2;
      for (; k < bodyEnd; ++k) {
        if (is(k, open)) ++depth;
        if (is(k, close) && --depth == 0) break;
        if (depth == 1 && is(k, ",")) {
          std::string expr = joinMutexArg(toks, argBegin, k, &deferred);
          if (!expr.empty()) mutexes.push_back(std::move(expr));
          argBegin = k + 1;
        }
      }
      if (k >= bodyEnd) continue;
      std::string expr = joinMutexArg(toks, argBegin, k, &deferred);
      if (!expr.empty()) mutexes.push_back(std::move(expr));
      GuardVar gv;
      gv.mutexes = mutexes;
      gv.scopeEnd = matchBrace(toks, braceStack.back());
      if (gv.scopeEnd > bodyEnd) gv.scopeEnd = bodyEnd;
      if (!deferred) {
        const int group = nextGroup++;
        for (const std::string& mu : mutexes) {
          gv.open.push_back(out.size());
          out.push_back(LockRegion{mu, toks[j].line, k + 1, gv.scopeEnd,
                                   group, true});
        }
      }
      guards[var] = std::move(gv);
      i = k;
      continue;
    }

    // `.lock()` / `.unlock()` — on a guard variable (close/reopen its
    // regions) or on a mutex expression directly (manual pairing).
    if ((t.text == "lock" || t.text == "unlock") && is(i + 1, "(")) {
      const std::string recv = receiverOf(i);
      if (recv.empty()) continue;
      const auto git = guards.find(recv);
      if (git != guards.end()) {
        GuardVar& gv = git->second;
        if (t.text == "unlock") {
          for (const std::size_t r : gv.open) out[r].tokEnd = i;
          gv.open.clear();
        } else if (gv.open.empty()) {
          const int group = nextGroup++;
          for (const std::string& mu : gv.mutexes) {
            gv.open.push_back(out.size());
            out.push_back(
                LockRegion{mu, t.line, i + 3, gv.scopeEnd, group, true});
          }
        }
        continue;
      }
      if (t.text == "lock") {
        manualOpen.push_back(out.size());
        out.push_back(
            LockRegion{recv, t.line, i + 3, bodyEnd, nextGroup++, false});
      } else {
        for (std::size_t r = manualOpen.size(); r-- > 0;) {
          if (out[manualOpen[r]].mutexExpr != recv) continue;
          out[manualOpen[r]].tokEnd = i;
          manualOpen.erase(manualOpen.begin() +
                           static_cast<std::ptrdiff_t>(r));
          break;
        }
      }
    }
  }

  std::sort(out.begin(), out.end(),
            [](const LockRegion& a, const LockRegion& b) {
              return a.tokBegin != b.tokBegin ? a.tokBegin < b.tokBegin
                                              : a.tokEnd < b.tokEnd;
            });
  return out;
}

std::vector<Cycle> findCycles(const std::vector<std::vector<std::size_t>>& adj,
                              const std::vector<std::string>& names) {
  enum class Color { White, Gray, Black };
  std::vector<Color> color(adj.size(), Color::White);
  std::vector<std::size_t> stack;
  std::set<std::string> seen;
  std::vector<Cycle> out;
  struct Frame {
    std::size_t node;
    std::size_t nextEdge = 0;
  };
  for (std::size_t root = 0; root < adj.size(); ++root) {
    if (color[root] != Color::White) continue;
    std::vector<Frame> frames{{root, 0}};
    color[root] = Color::Gray;
    stack.push_back(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.nextEdge == adj[f.node].size()) {
        color[f.node] = Color::Black;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::size_t to = adj[f.node][f.nextEdge++];
      if (color[to] == Color::White) {
        color[to] = Color::Gray;
        stack.push_back(to);
        frames.push_back(Frame{to, 0});
      } else if (color[to] == Color::Gray) {
        // Back edge: the cycle is the stack suffix from `to` onward.
        Cycle c;
        c.nodes.assign(std::find(stack.begin(), stack.end(), to), stack.end());
        std::rotate(c.nodes.begin(),
                    std::min_element(c.nodes.begin(), c.nodes.end(),
                                     [&](std::size_t a, std::size_t b) {
                                       return names[a] < names[b];
                                     }),
                    c.nodes.end());
        for (const std::size_t n : c.nodes) c.chain += names[n] + " -> ";
        c.chain += names[c.nodes.front()];
        if (seen.insert(c.chain).second) out.push_back(std::move(c));
      }
    }
  }
  return out;
}

}  // namespace cpr::lint
