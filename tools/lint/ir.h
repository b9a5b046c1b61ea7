/// \file ir.h
/// Declaration-level IR for cpr_lint (tools/lint), built by recursive
/// descent over the token stream of lexer.h.
///
/// The IR deliberately stops at the declaration level: rules that need more
/// than tokens (architecture-graph analysis over `#include` edges, loop-body
/// reachability for DETERMINISM) need to know *where declarations are* —
/// which file a header edge points at, which token range is a function body
/// — but never need expression semantics. Parsing that little keeps the
/// linter dependency-free and immune to the template/macro constructs that
/// break full parsers, while still being structurally honest: body extents
/// come from real brace matching, not regex heuristics.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.h"

namespace cpr::lint {

/// One `#include` directive. `path` is the spelling between the delimiters
/// (tokens are re-joined for angled includes, so `<core/ids.h>` yields
/// "core/ids.h").
struct IncludeDecl {
  std::string path;
  bool angled = false;  ///< `<...>` form (false: quoted `"..."` form)
  int line = 0;
};

/// One `namespace N { ... }` (possibly qualified `a::b`; empty name for an
/// anonymous namespace). `bodyBegin/bodyEnd` are the lines of the braces.
struct NamespaceDecl {
  std::string name;
  int line = 0;
  int bodyBegin = 0;
  int bodyEnd = 0;
};

enum class DeclKind {
  Function,  ///< free or member function *definition* (has a body)
  Class,     ///< class/struct with a body
  Enum,      ///< enum / enum class with a body
};

/// A named declaration with a brace-matched body extent. `tokBegin/tokEnd`
/// index the `{` / matching `}` in the token stream handed to buildIr, so
/// rules can scan exactly the body's tokens. A class defined with a
/// qualified name (`struct Server::Connection { ... }`) keeps the
/// qualification in `name`.
struct EntityDecl {
  DeclKind kind = DeclKind::Function;
  std::string name;
  int line = 0;       ///< line of the name token
  int bodyBegin = 0;  ///< line of the opening brace
  int bodyEnd = 0;    ///< line of the matching closing brace
  std::size_t tokBegin = 0;
  std::size_t tokEnd = 0;
  /// Token index of the name (functions only; 0 otherwise) — lets passes
  /// inspect the qualifier tokens before an out-of-line definition's name.
  std::size_t nameTok = 0;
};

struct FileIr {
  std::vector<IncludeDecl> includes;
  std::vector<NamespaceDecl> namespaces;
  std::vector<EntityDecl> decls;
};

/// Index of the `}` matching the `{` at `open` (which must be a `{` Punct),
/// or `toks.size()` when the stream ends unbalanced.
[[nodiscard]] std::size_t matchBrace(const std::vector<Token>& toks,
                                     std::size_t open);

/// Builds the declaration-level IR for one translation unit's tokens.
[[nodiscard]] FileIr buildIr(const std::vector<Token>& toks);

// ---- Helpers shared by the rule passes (rules.cpp, arch.cpp,
// concurrency.cpp, hotpath.cpp). ----

[[nodiscard]] bool isPunct(const Token& t, std::string_view text);
[[nodiscard]] bool startsWith(std::string_view s, std::string_view prefix);
[[nodiscard]] bool endsWith(std::string_view s, std::string_view suffix);

/// Last `::`-separated segment of a (possibly qualified) name.
[[nodiscard]] std::string_view lastSegment(std::string_view name);

/// Finds the function name a declarator-trailer annotation at token `m`
/// belongs to: walks back over cv/noexcept/override trailers, other CPR_*
/// macros (with their argument parens), and the parameter list, to the
/// identifier before the `(`. Returns toks.size() when no name is found.
[[nodiscard]] std::size_t annotatedFunctionName(const std::vector<Token>& toks,
                                                std::size_t m);

/// Class of the function whose name token sits at `nameTok`: the innermost
/// class containing it, else the `Cls::` qualifier before the name
/// (out-of-line definitions; a destructor's `~` is skipped). Returns "" for
/// free functions.
[[nodiscard]] std::string memberClassOf(const FileIr& ir,
                                        const std::vector<Token>& toks,
                                        std::size_t nameTok);

/// How the identifier at token `i` is reached: through `.` / `->`
/// (`member`), specifically `this->` (`viaThis`), or after a `:`
/// (`qualified`, with `scope` holding `Q` when the spelling is `Q::name`).
struct AccessShape {
  bool member = false;
  bool viaThis = false;
  bool qualified = false;
  std::string scope;

  /// `.`/`->` through an object other than `this`: the receiver's class is
  /// unknown at the token level.
  [[nodiscard]] bool onOtherObject() const { return member && !viaThis; }
};
[[nodiscard]] AccessShape accessShapeAt(const std::vector<Token>& toks,
                                        std::size_t i);

/// One span of a function body during which a mutex is held. Produced by
/// `findLockRegions` for the concurrency rules (tools/lint/concurrency.h).
///
/// `mutexExpr` is the mutex argument as spelled at the acquisition site
/// ("mu_", "conn->writeMu", "this->mu_" — resolution to a declaring class
/// is the concurrency pass's job, not the IR's). `tokBegin/tokEnd` bound
/// the covered tokens half-open: a token at index i is inside the region
/// when tokBegin <= i < tokEnd.
struct LockRegion {
  std::string mutexExpr;
  int line = 0;           ///< line of the acquisition
  std::size_t tokBegin = 0;
  std::size_t tokEnd = 0;
  /// Acquisition group: regions sharing a group were acquired atomically
  /// by one `std::scoped_lock`, so no lock-order edge exists between them.
  int group = 0;
  bool raii = true;  ///< false for manual `mu.lock()` / `mu.unlock()` pairs
};

/// Statement-level lock-region tracking over one function body, whose
/// braces sit at token indices `bodyBegin` / `bodyEnd` (an EntityDecl's
/// tokBegin/tokEnd). Understands:
///
///   - RAII guards: `std::lock_guard` / `std::unique_lock` /
///     `std::scoped_lock` / `std::shared_lock` declarations — the region
///     runs from the declaration to the end of its enclosing scope;
///   - `std::defer_lock` (no region until a later `.lock()`), plus
///     `.unlock()` / `.lock()` on the guard variable closing and reopening
///     the region mid-scope;
///   - manual `expr.lock()` / `expr.unlock()` pairs on anything that is
///     not a known guard variable; an unmatched manual lock runs to the
///     end of the body.
///
/// Condition-variable waits are deliberately ignored: the tokens inside a
/// `cv.wait(lock, pred)` call execute holding the lock, which is exactly
/// what the returned spans say.
[[nodiscard]] std::vector<LockRegion> findLockRegions(
    const std::vector<Token>& toks, std::size_t bodyBegin,
    std::size_t bodyEnd);

/// One cycle of a directed graph, rotated so its smallest name leads.
struct Cycle {
  std::vector<std::size_t> nodes;
  std::string chain;  ///< "a -> b -> a"
};

/// Every distinct cycle of the graph `adj` whose node ids index `names`
/// (unique), in discovery order: an iterative DFS (deep graphs cannot
/// overflow the call stack) cuts each back edge's cycle off its stack. A
/// self-loop is a one-node cycle. Used by LAYER-CYCLE and LOCK-ORDER.
[[nodiscard]] std::vector<Cycle> findCycles(
    const std::vector<std::vector<std::size_t>>& adj,
    const std::vector<std::string>& names);

}  // namespace cpr::lint
