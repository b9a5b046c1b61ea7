#include "lint/concurrency.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace cpr::lint {

namespace {

bool isMutexType(std::string_view text) {
  return text == "mutex" || text == "shared_mutex" ||
         text == "recursive_mutex" || text == "timed_mutex" ||
         text == "recursive_timed_mutex" || text == "shared_timed_mutex";
}

/// Function-level annotation macros the pass associates with a function
/// name (CPR_NO_THREAD_SAFETY_ANALYSIS is clang-only and carries no lint
/// meaning; it is skipped while walking declarator trailers).
enum class FnAnnKind { Requires, Acquire, Release, Excludes };

struct FnAnnotation {
  std::string className;  ///< "" for free functions
  std::string name;
  FnAnnKind kind;
  std::vector<std::string> mutexes;  ///< resolved "Class::field" names
};

struct GuardedField {
  std::string guard;  ///< resolved "Class::field" mutex name
};

/// Everything the pass knows about one class (identity: the unqualified
/// class name — `struct Server::Connection` registers as "Connection").
struct ClassInfo {
  std::set<std::string> mutexFields;
  /// Annotated fields of this class: field name -> guard mutex (resolved).
  std::map<std::string, GuardedField> guarded;
};

struct LockEdge {
  std::string file;
  int line = 0;
};

/// Global analysis state shared by both phases.
struct Registry {
  std::map<std::string, ClassInfo> classes;
  /// mutex field name -> classes declaring a mutex field of that name.
  std::map<std::string, std::set<std::string>> mutexFieldOwners;
  /// Qualified mutexes annotated CPR_MAY_BLOCK.
  std::set<std::string> mayBlock;
  std::vector<FnAnnotation> fnAnnotations;
  /// Acquisition-order graph: (from, to) -> first site that created it.
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
};

/// Resolves a mutex expression as spelled at an acquisition/annotation
/// site into a tree-wide identity. `className` is the enclosing class of
/// the site ("" outside member context).
std::string resolveMutex(const Registry& reg, std::string_view expr,
                         const std::string& className) {
  std::string_view e = expr;
  if (startsWith(e, "this->")) e = e.substr(6);
  const std::size_t dot = e.find_last_of(".>");
  if (dot != std::string_view::npos) {
    const std::string_view field = e.substr(dot + 1);
    const auto it = reg.mutexFieldOwners.find(std::string(field));
    if (it != reg.mutexFieldOwners.end() && it->second.size() == 1)
      return *it->second.begin() + "::" + std::string(field);
    return std::string(field);
  }
  const std::string bare(e);
  if (!className.empty()) {
    const auto cls = reg.classes.find(className);
    if (cls != reg.classes.end() && cls->second.mutexFields.count(bare))
      return className + "::" + bare;
  }
  const auto it = reg.mutexFieldOwners.find(bare);
  if (it != reg.mutexFieldOwners.end() && it->second.size() == 1)
    return *it->second.begin() + "::" + bare;
  return bare;
}

/// Token ranges of declarations nested inside a class body, used to scan
/// only the class's *direct* tokens (fields, annotations) — a local
/// `std::mutex` in an inline member function is not a field.
std::vector<std::pair<std::size_t, std::size_t>> nestedRanges(
    const FileIr& ir, const EntityDecl& cls) {
  std::vector<std::pair<std::size_t, std::size_t>> holes;
  for (const EntityDecl& d : ir.decls) {
    if (&d == &cls) continue;
    if (d.tokBegin > cls.tokBegin && d.tokEnd < cls.tokEnd)
      holes.emplace_back(d.tokBegin, d.tokEnd);
  }
  std::sort(holes.begin(), holes.end());
  return holes;
}

/// Joins the argument tokens of an annotation macro whose `(` sits at
/// `open`; returns one expression per comma-separated argument and the
/// index of the closing `)` (toks.size() when unbalanced).
std::vector<std::string> macroArgs(const std::vector<Token>& toks,
                                   std::size_t open, std::size_t* closeOut) {
  std::vector<std::string> args;
  std::string cur;
  int depth = 0;
  std::size_t i = open;
  for (; i < toks.size(); ++i) {
    if (isPunct(toks[i], "(")) {
      if (++depth == 1) continue;
    }
    if (isPunct(toks[i], ")") && --depth == 0) break;
    if (depth == 1 && isPunct(toks[i], ",")) {
      if (!cur.empty()) args.push_back(std::move(cur));
      cur.clear();
      continue;
    }
    if (depth >= 1) cur += toks[i].text;
  }
  if (!cur.empty()) args.push_back(std::move(cur));
  *closeOut = i;
  return args;
}

struct FnKey {
  std::string className;
  std::string name;
};

/// Annotations applying to a function, matched by (class, name); an
/// annotation recorded on the in-class declaration applies to the
/// out-of-line definition.
std::vector<const FnAnnotation*> annotationsFor(const Registry& reg,
                                                const FnKey& key) {
  std::vector<const FnAnnotation*> out;
  for (const FnAnnotation& a : reg.fnAnnotations)
    if (a.name == key.name && a.className == key.className) out.push_back(&a);
  return out;
}

/// Annotations matching a *call site*: `recvQualified` is true when the
/// call was spelled through `.`/`->` (receiver object unknown, so any
/// single class declaring the method matches); a bare call matches the
/// caller's own class first, then a unique free function.
std::vector<const FnAnnotation*> annotationsForCall(
    const Registry& reg, const std::string& callerClass,
    const std::string& name, bool recvQualified) {
  std::vector<const FnAnnotation*> matches;
  for (const FnAnnotation& a : reg.fnAnnotations)
    if (a.name == name) matches.push_back(&a);
  if (matches.empty()) return {};
  if (recvQualified) {
    std::set<std::string> owners;
    for (const FnAnnotation* a : matches) owners.insert(a->className);
    return owners.size() == 1 ? matches
                              : std::vector<const FnAnnotation*>{};
  }
  std::vector<const FnAnnotation*> own;
  for (const FnAnnotation* a : matches)
    if (a->className == callerClass) own.push_back(a);
  if (!own.empty()) return own;
  std::vector<const FnAnnotation*> free;
  for (const FnAnnotation* a : matches)
    if (a->className.empty()) free.push_back(a);
  return free;
}

/// Phase 1 (per file): class field registry, may-block marks, annotation
/// records, and the THREAD-LIFECYCLE field diagnostics.
void collectFile(const ConcFile& f, Registry& reg,
                 std::vector<Diagnostic>& out) {
  const std::vector<Token>& toks = *f.toks;
  const FileIr& ir = *f.ir;

  for (const EntityDecl& cls : ir.decls) {
    if (cls.kind != DeclKind::Class) continue;
    const std::string name(lastSegment(cls.name));
    ClassInfo& info = reg.classes[name];
    const auto holes = nestedRanges(ir, cls);
    std::size_t hole = 0;
    int parenDepth = 0;
    for (std::size_t i = cls.tokBegin + 1; i < cls.tokEnd; ++i) {
      while (hole < holes.size() && holes[hole].second < i) ++hole;
      if (hole < holes.size() && i >= holes[hole].first) {
        i = holes[hole].second;  // skip the nested body; loop ++ passes `}`
        ++hole;
        continue;
      }
      const Token& t = toks[i];
      if (isPunct(t, "(")) ++parenDepth;
      if (isPunct(t, ")")) --parenDepth;
      if (t.kind != TokKind::Identifier || parenDepth > 0) continue;

      // Mutex fields: `[mutable] std::mutex a[, b];` with optional
      // CPR_MAY_BLOCK marker anywhere in the declaration.
      if (isMutexType(t.text) && i > 0 && isPunct(toks[i - 1], ":")) {
        std::vector<std::string> fields;
        bool mayBlock = false;
        std::size_t j = i + 1;
        for (; j < cls.tokEnd && !isPunct(toks[j], ";"); ++j) {
          if (toks[j].kind != TokKind::Identifier) continue;
          if (toks[j].text == "CPR_MAY_BLOCK") {
            mayBlock = true;
            continue;
          }
          if (!startsWith(toks[j].text, "CPR_"))
            fields.push_back(toks[j].text);
        }
        for (const std::string& fieldName : fields) {
          info.mutexFields.insert(fieldName);
          reg.mutexFieldOwners[fieldName].insert(name);
          if (mayBlock) reg.mayBlock.insert(name + "::" + fieldName);
        }
        i = j;
        continue;
      }

      // Thread-owning fields: any declaration mentioning std::thread at
      // paren depth 0 must carry CPR_THREAD_REAPER.
      if (t.text == "thread" && i > 0 && isPunct(toks[i - 1], ":")) {
        std::size_t j = i + 1;
        bool reaper = false;
        std::string fieldName;
        for (; j < cls.tokEnd && !isPunct(toks[j], ";"); ++j) {
          if (toks[j].kind != TokKind::Identifier) continue;
          if (toks[j].text == "CPR_THREAD_REAPER")
            reaper = true;
          else if (!startsWith(toks[j].text, "CPR_") &&
                   toks[j].text != "thread")
            fieldName = toks[j].text;
        }
        if (!reaper) {
          out.push_back(Diagnostic{
              "THREAD-LIFECYCLE", f.relPath, t.line,
              "thread-owning field '" + name + "::" +
                  (fieldName.empty() ? std::string("<unnamed>") : fieldName) +
                  "' has no CPR_THREAD_REAPER annotation; annotate the "
                  "field and document who joins the threads parked on it"});
        }
        i = j;
        continue;
      }

      // Guarded fields: `Type field CPR_GUARDED_BY(mu) [= init];`.
      if (t.text == "CPR_GUARDED_BY" && i + 1 < cls.tokEnd &&
          isPunct(toks[i + 1], "(")) {
        std::size_t close = 0;
        const std::vector<std::string> args = macroArgs(toks, i + 1, &close);
        std::size_t nameTok = i - 1;
        if (isPunct(toks[nameTok], "]")) {  // array field: name before [..]
          int depth = 0;
          for (;; --nameTok) {
            if (isPunct(toks[nameTok], "]")) ++depth;
            if (isPunct(toks[nameTok], "[") && --depth == 0) break;
            if (nameTok == 0) break;
          }
          if (nameTok > 0) --nameTok;
        }
        if (!args.empty() && toks[nameTok].kind == TokKind::Identifier) {
          info.guarded[toks[nameTok].text] =
              GuardedField{std::string(args[0])};  // resolved in phase 2
        }
        i = close;
        continue;
      }
    }
  }

  // Function annotations (REQUIRES/ACQUIRE/RELEASE/EXCLUDES) anywhere in
  // the file: on in-class declarations, out-of-line definitions, or free
  // functions. Raw argument expressions are resolved in phase 2.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    FnAnnKind kind;
    if (t.text == "CPR_REQUIRES")
      kind = FnAnnKind::Requires;
    else if (t.text == "CPR_ACQUIRE")
      kind = FnAnnKind::Acquire;
    else if (t.text == "CPR_RELEASE")
      kind = FnAnnKind::Release;
    else if (t.text == "CPR_EXCLUDES")
      kind = FnAnnKind::Excludes;
    else
      continue;
    if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "(")) continue;
    std::size_t close = 0;
    std::vector<std::string> args = macroArgs(toks, i + 1, &close);
    const std::size_t nameTok = annotatedFunctionName(toks, i);
    if (nameTok >= toks.size() || args.empty()) {
      i = close;
      continue;
    }
    FnAnnotation ann;
    ann.className = memberClassOf(ir, toks, nameTok);
    ann.name = toks[nameTok].text;
    ann.kind = kind;
    ann.mutexes = std::move(args);  // raw; resolved in phase 2
    reg.fnAnnotations.push_back(std::move(ann));
    i = close;
  }
}

/// Phase 2: resolve every recorded raw mutex expression against the
/// complete class registry.
void resolveRegistry(Registry& reg) {
  for (auto& [className, info] : reg.classes)
    for (auto& [field, guarded] : info.guarded)
      guarded.guard = resolveMutex(reg, guarded.guard, className);
  for (FnAnnotation& ann : reg.fnAnnotations)
    for (std::string& mu : ann.mutexes)
      mu = resolveMutex(reg, mu, ann.className);
}

/// One held span with its tree-wide mutex identity.
struct HeldRegion {
  std::string mutex;
  int line = 0;
  std::size_t tokBegin = 0;
  std::size_t tokEnd = 0;
  int group = 0;
};

/// Phase 3: per-function-body checks for one file.
void checkFile(const ConcFile& f, Registry& reg,
               std::vector<Diagnostic>& out) {
  const std::set<std::string>& blocking = builtinBlockingManifest();
  const std::vector<Token>& toks = *f.toks;
  const FileIr& ir = *f.ir;

  for (const EntityDecl& fn : ir.decls) {
    if (fn.kind != DeclKind::Function) continue;
    if (fn.tokEnd >= toks.size()) continue;  // unbalanced body
    const std::string cls = memberClassOf(ir, toks, fn.nameTok);
    const bool ctorOrDtor = !cls.empty() && fn.name == cls;

    std::vector<HeldRegion> held;
    int pseudoGroup = -1;
    for (const LockRegion& r : findLockRegions(toks, fn.tokBegin, fn.tokEnd))
      held.push_back(HeldRegion{resolveMutex(reg, r.mutexExpr, cls), r.line,
                                r.tokBegin, r.tokEnd, r.group});
    // REQUIRES/ACQUIRE/RELEASE give the whole body a held span: the caller
    // supplied the lock (or the function holds it for part of the body —
    // the conservative whole-body span never *adds* diagnostics).
    for (const FnAnnotation* a :
         annotationsFor(reg, FnKey{cls, fn.name})) {
      if (a->kind == FnAnnKind::Excludes) continue;
      for (const std::string& mu : a->mutexes)
        held.push_back(HeldRegion{mu, fn.bodyBegin, fn.tokBegin + 1,
                                  fn.tokEnd, pseudoGroup--});
    }

    auto heldAt = [&](std::size_t i) {
      std::vector<const HeldRegion*> open;
      for (const HeldRegion& r : held)
        if (r.tokBegin <= i && i < r.tokEnd) open.push_back(&r);
      return open;
    };

    // LOCK-ORDER: nested acquisitions within this body.
    for (const HeldRegion& b : held) {
      if (b.group < 0) continue;  // pseudo-regions never *acquire* here
      for (const HeldRegion& a : held) {
        if (a.group == b.group || a.mutex == b.mutex) continue;
        if (a.tokBegin < b.tokBegin && b.tokBegin < a.tokEnd)
          reg.edges.emplace(std::make_pair(a.mutex, b.mutex),
                            LockEdge{f.relPath, b.line});
      }
    }

    // Token walk: guarded-field accesses, blocking calls, annotated-call
    // lock-order edges, and local thread lifecycles.
    std::vector<std::string> localThreads;
    for (std::size_t i = fn.tokBegin + 1; i < fn.tokEnd; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::Identifier) continue;
      const AccessShape access = accessShapeAt(toks, i);
      const bool calls = i + 1 < fn.tokEnd && isPunct(toks[i + 1], "(");

      // GUARDED-BY.
      if (!ctorOrDtor) {
        const ClassInfo* owner = nullptr;
        std::string ownerName;
        if (!access.onOtherObject() && !access.qualified && !cls.empty()) {
          const auto it = reg.classes.find(cls);
          if (it != reg.classes.end() && it->second.guarded.count(t.text)) {
            owner = &it->second;
            ownerName = cls;
          }
        } else if (access.onOtherObject()) {
          // Object-qualified: unique declaring class wins.
          const ClassInfo* only = nullptr;
          std::string onlyName;
          int n = 0;
          for (const auto& [cname, info] : reg.classes) {
            if (!info.guarded.count(t.text)) continue;
            ++n;
            only = &info;
            onlyName = cname;
          }
          if (n == 1) {
            owner = only;
            ownerName = onlyName;
          }
        }
        if (owner) {
          const std::string& guard = owner->guarded.at(t.text).guard;
          bool ok = false;
          for (const HeldRegion* r : heldAt(i))
            if (r->mutex == guard) ok = true;
          if (!ok) {
            out.push_back(Diagnostic{
                "GUARDED-BY", f.relPath, t.line,
                "field '" + ownerName + "::" + t.text + "' is guarded by '" +
                    guard +
                    "' but is touched without holding it; take the lock or "
                    "annotate the function CPR_REQUIRES(" +
                    std::string(lastSegment(guard)) + ")"});
          }
        }
      }

      if (!calls) {
        // Local thread lifecycle bookkeeping: uses of a tracked name.
        continue;
      }

      // LOCK-BLOCKING-CALL.
      if (blocking.count(t.text)) {
        const HeldRegion* offender = nullptr;
        for (const HeldRegion* r : heldAt(i)) {
          if (reg.mayBlock.count(r->mutex)) continue;
          if (!offender || r->tokBegin < offender->tokBegin) offender = r;
        }
        if (offender) {
          out.push_back(Diagnostic{
              "LOCK-BLOCKING-CALL", f.relPath, t.line,
              "blocking call '" + t.text + "' while holding '" +
                  offender->mutex + "' (locked at line " +
                  std::to_string(offender->line) +
                  "); move the call outside the critical section — a "
                  "stalled peer here stalls every thread behind this lock"});
        }
      }

      // Lock-order edges from calls into annotated functions.
      if (!access.qualified) {
        const auto open = heldAt(i);
        if (!open.empty()) {
          for (const FnAnnotation* a :
               annotationsForCall(reg, cls, t.text, access.member)) {
            if (a->kind == FnAnnKind::Requires ||
                a->kind == FnAnnKind::Release)
              continue;
            for (const std::string& mu : a->mutexes)
              for (const HeldRegion* r : open)
                reg.edges.emplace(std::make_pair(r->mutex, mu),
                                  LockEdge{f.relPath, t.line});
          }
        }
      }
    }

    // THREAD-LIFECYCLE: local std::thread declarations and temporaries.
    for (std::size_t i = fn.tokBegin + 1; i < fn.tokEnd; ++i) {
      if (toks[i].kind != TokKind::Identifier || toks[i].text != "thread" ||
          i == 0 || !isPunct(toks[i - 1], ":"))
        continue;
      const std::size_t after = i + 1;
      if (after >= fn.tokEnd) break;
      if (toks[after].kind == TokKind::Identifier) {
        const std::string& var = toks[after].text;
        if (startsWith(var, "CPR_")) continue;
        bool handled = false;
        for (std::size_t j = after + 1; j + 1 < fn.tokEnd && !handled; ++j) {
          if (toks[j].kind != TokKind::Identifier) continue;
          if (toks[j].text == var) {
            // var.join() / var.detach() / var.swap(...)
            if (isPunct(toks[j + 1], ".") && j + 2 < fn.tokEnd &&
                (toks[j + 2].text == "join" || toks[j + 2].text == "detach" ||
                 toks[j + 2].text == "swap"))
              handled = true;
            continue;
          }
          // std::move(var) / std::swap(a, var)
          if ((toks[j].text == "move" || toks[j].text == "swap") &&
              isPunct(toks[j + 1], "(")) {
            for (std::size_t k = j + 2;
                 k < fn.tokEnd && !isPunct(toks[k], ")"); ++k)
              if (toks[k].kind == TokKind::Identifier && toks[k].text == var)
                handled = true;
          }
        }
        if (!handled) {
          out.push_back(Diagnostic{
              "THREAD-LIFECYCLE", f.relPath, toks[after].line,
              "local std::thread '" + var +
                  "' can reach end of scope without join()/detach(); join "
                  "it, or move it onto a CPR_THREAD_REAPER field whose "
                  "owner joins it"});
        }
      } else if (isPunct(toks[after], "(") &&
                 (i < 4 || isPunct(toks[i - 4], ";") ||
                  isPunct(toks[i - 4], "{") || isPunct(toks[i - 4], "}"))) {
        // i-4 is the token before the `std` of `std::thread`: only a
        // statement-start position means the temporary is discarded.
        // `std::thread(...)` as a bare statement: joinable temporary dies
        // at the semicolon (std::terminate), or worse, was meant to be
        // kept. Arguments / member-init uses have `,`/`(`/`=` before.
        std::size_t close = after;
        int depth = 0;
        for (; close < fn.tokEnd; ++close) {
          if (isPunct(toks[close], "(")) ++depth;
          if (isPunct(toks[close], ")") && --depth == 0) break;
        }
        if (close + 1 < fn.tokEnd && isPunct(toks[close + 1], ";")) {
          out.push_back(Diagnostic{
              "THREAD-LIFECYCLE", f.relPath, toks[i].line,
              "temporary std::thread is destroyed at the end of the "
              "statement while joinable (std::terminate); name it and "
              "join it"});
        }
      }
    }
  }
}

/// Phase 4: cycles of the acquisition-order graph, each reported once
/// anchored at its lexicographically-smallest mutex (as LAYER-CYCLE).
void findLockCycles(const Registry& reg, std::vector<Diagnostic>& out) {
  std::vector<std::string> nodes;
  std::map<std::string, std::size_t> byName;
  auto nodeId = [&](const std::string& n) {
    const auto it = byName.find(n);
    if (it != byName.end()) return it->second;
    byName.emplace(n, nodes.size());
    nodes.push_back(n);
    return nodes.size() - 1;
  };
  std::vector<std::vector<std::size_t>> adj;
  for (const auto& [edge, site] : reg.edges) {
    const std::size_t from = nodeId(edge.first);
    const std::size_t to = nodeId(edge.second);
    if (adj.size() < nodes.size()) adj.resize(nodes.size());
    adj[from].push_back(to);
  }
  adj.resize(nodes.size());

  for (const Cycle& c : findCycles(adj, nodes)) {
    const std::string& lead = nodes[c.nodes.front()];
    const std::string& next = nodes[c.nodes[1 % c.nodes.size()]];
    const auto site = reg.edges.find(std::make_pair(lead, next));
    const std::string file = site != reg.edges.end() ? site->second.file : "";
    const int line = site != reg.edges.end() ? site->second.line : 1;
    out.push_back(Diagnostic{
        "LOCK-ORDER", file, line,
        c.nodes.size() == 1
            ? "'" + lead +
                  "' is re-acquired (via an annotated call) while already "
                  "held — a non-recursive mutex self-deadlocks here"
            : "lock-order cycle: " + c.chain +
                  "; two threads taking these locks in opposite orders "
                  "deadlock — pick one global order and restructure the "
                  "inner acquisition"});
  }
}

}  // namespace

const std::set<std::string>& builtinBlockingManifest() {
  // Deliberately absent: condition-variable wait/wait_for (they release
  // the lock while blocked), close/shutdown (non-blocking on local
  // sockets), and read/write (too many false positives on stream APIs; the
  // socket wrappers below cover the serve path).
  static const std::set<std::string> kBuiltin = {
      // Socket and fd multiplexing syscalls.
      "send", "sendto", "sendmsg", "recv", "recvfrom", "recvmsg", "accept",
      "connect", "poll", "select", "epoll_wait",
      // Sleeps.
      "sleep", "usleep", "nanosleep", "sleep_for", "sleep_until",
      // Joins and this project's own blocking seams.
      "join",         // std::thread::join
      "drain",        // ThreadPool::drain blocks until every queued task ran
      "parallelFor",  // ThreadPool::parallelFor blocks for the whole sweep
      "sendToConn",   // serve: full-frame socket write
      "sendLocked",   // serve: socket write, caller already holds writeMu
      "pop",          // BoundedJobQueue::pop blocks on the not-empty cv
  };
  return kBuiltin;
}

std::vector<Diagnostic> checkConcurrency(const std::vector<ConcFile>& files) {
  Registry reg;
  std::vector<Diagnostic> out;
  for (const ConcFile& f : files) collectFile(f, reg, out);
  resolveRegistry(reg);
  for (const ConcFile& f : files) checkFile(f, reg, out);
  findLockCycles(reg, out);
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
  return out;
}

}  // namespace cpr::lint
