#include "serve/protocol.h"

#include <cstdio>
#include <cstdlib>

#include "core/solver.h"
#include "obs/names.h"
#include "obs/report.h"

namespace cpr::serve {

namespace {

/// One parsed flat JSON object: scalar members by key, nested objects and
/// arrays captured as raw balanced text. Flat storage (no tree, no
/// recursion) keeps the fuzz surface small: a frame of any nesting depth
/// costs one pass and at most one string per member.
struct FlatObject {
  std::map<std::string, std::string, std::less<>> strings;
  std::map<std::string, double, std::less<>> numbers;
  std::map<std::string, std::string, std::less<>> raw;  ///< objects/arrays

  [[nodiscard]] const std::string* str(std::string_view key) const {
    const auto it = strings.find(key);
    return it == strings.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::string strOr(std::string_view key,
                                  std::string_view fallback) const {
    const std::string* s = str(key);
    return s ? *s : std::string(fallback);
  }
  [[nodiscard]] double numOr(std::string_view key, double fallback) const {
    const auto it = numbers.find(key);
    return it == numbers.end() ? fallback : it->second;
  }
};

struct Cursor {
  const char* p;
  const char* end;

  [[nodiscard]] bool done() const { return p >= end; }
  [[nodiscard]] char peek() const { return *p; }
  void skipWs() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n'))
      ++p;
  }
  bool eat(char c) {
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
};

[[nodiscard]] int hexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Parses a JSON string literal (cursor on the opening quote). Unicode
/// escapes decode as UTF-8; lone surrogates become U+FFFD-style '?' rather
/// than an error — the codec's job is framing, not text validation.
bool parseString(Cursor& c, std::string& out) {
  if (!c.eat('"')) return false;
  out.clear();
  while (!c.done()) {
    const char ch = *c.p++;
    if (ch == '"') return true;
    if (ch != '\\') {
      out.push_back(ch);
      continue;
    }
    if (c.done()) return false;
    const char esc = *c.p++;
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (c.end - c.p < 4) return false;
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
          const int d = hexDigit(*c.p++);
          if (d < 0) return false;
          cp = cp * 16 + static_cast<unsigned>(d);
        }
        if (cp < 0x80) {
          out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
          out.push_back(static_cast<char>(0xC0U | (cp >> 6)));
          out.push_back(static_cast<char>(0x80U | (cp & 0x3FU)));
        } else {
          out.push_back(static_cast<char>(0xE0U | (cp >> 12)));
          out.push_back(static_cast<char>(0x80U | ((cp >> 6) & 0x3FU)));
          out.push_back(static_cast<char>(0x80U | (cp & 0x3FU)));
        }
        break;
      }
      default: return false;
    }
  }
  return false;  // ran off the end inside the literal
}

/// Captures a balanced object/array as raw text (cursor on '{' or '[').
/// Iterative bracket counting — depth is a counter, not a call stack, so a
/// ten-thousand-bracket fuzz input costs a loop, not a stack overflow.
bool captureBalanced(Cursor& c, std::string& out) {
  const char* start = c.p;
  int depth = 0;
  bool inString = false;
  while (!c.done()) {
    const char ch = *c.p++;
    if (inString) {
      if (ch == '\\') {
        if (!c.done()) ++c.p;
      } else if (ch == '"') {
        inString = false;
      }
      continue;
    }
    switch (ch) {
      case '"': inString = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        if (--depth == 0) {
          out.assign(start, static_cast<std::size_t>(c.p - start));
          return true;
        }
        if (depth < 0) return false;
        break;
      default: break;
    }
  }
  return false;
}

bool parseNumber(Cursor& c, double& out) {
  // strtod needs a NUL-terminated buffer; numbers are short, so copy the
  // longest plausible token instead of scanning to end-of-line.
  char buf[64];
  std::size_t n = 0;
  const char* p = c.p;
  while (p < c.end && n + 1 < sizeof buf &&
         (*p == '-' || *p == '+' || *p == '.' || *p == 'e' || *p == 'E' ||
          (*p >= '0' && *p <= '9'))) {
    buf[n++] = *p++;
  }
  buf[n] = '\0';
  char* parsedEnd = nullptr;
  out = std::strtod(buf, &parsedEnd);
  if (parsedEnd == buf) return false;
  c.p += parsedEnd - buf;
  return true;
}

/// Parses one flat JSON object from `line`. Unknown keys are kept (the
/// request decoder ignores them — forward compatibility); duplicate keys
/// keep the last value. Returns false with `error` set on malformed input.
bool parseFlatObject(std::string_view line, FlatObject& out,
                     std::string& error) {
  Cursor c{line.data(), line.data() + line.size()};
  c.skipWs();
  if (!c.eat('{')) {
    error = "frame is not a JSON object";
    return false;
  }
  c.skipWs();
  if (c.eat('}')) {
    c.skipWs();
    if (!c.done()) {
      error = "trailing bytes after object";
      return false;
    }
    return true;
  }
  std::string key;
  std::string sval;
  // The three typed maps are one logical namespace: storing a key evicts
  // it from the other two, so a duplicate key keeps the LAST value even
  // when the occurrences differ in type ({"id":"a","id":1} -> number).
  const auto putString = [&out](const std::string& k, const std::string& v) {
    out.numbers.erase(k);
    out.raw.erase(k);
    out.strings[k] = v;
  };
  const auto putNumber = [&out](const std::string& k, double v) {
    out.strings.erase(k);
    out.raw.erase(k);
    out.numbers[k] = v;
  };
  const auto putRaw = [&out](const std::string& k, const std::string& v) {
    out.strings.erase(k);
    out.numbers.erase(k);
    out.raw[k] = v;
  };
  while (true) {
    c.skipWs();
    if (!parseString(c, key)) {
      error = "expected a string key";
      return false;
    }
    c.skipWs();
    if (!c.eat(':')) {
      error = "expected ':' after key \"" + key + "\"";
      return false;
    }
    c.skipWs();
    if (c.done()) {
      error = "missing value for key \"" + key + "\"";
      return false;
    }
    const char first = c.peek();
    if (first == '"') {
      if (!parseString(c, sval)) {
        error = "bad string value for key \"" + key + "\"";
        return false;
      }
      putString(key, sval);
    } else if (first == '{' || first == '[') {
      if (!captureBalanced(c, sval)) {
        error = "unbalanced value for key \"" + key + "\"";
        return false;
      }
      putRaw(key, sval);
    } else if (line.compare(static_cast<std::size_t>(c.p - line.data()), 4,
                            "true") == 0) {
      c.p += 4;
      putNumber(key, 1.0);
    } else if (line.compare(static_cast<std::size_t>(c.p - line.data()), 5,
                            "false") == 0) {
      c.p += 5;
      putNumber(key, 0.0);
    } else if (line.compare(static_cast<std::size_t>(c.p - line.data()), 4,
                            "null") == 0) {
      c.p += 4;
      putString(key, "");
    } else {
      double num = 0.0;
      if (!parseNumber(c, num)) {
        error = "bad value for key \"" + key + "\"";
        return false;
      }
      putNumber(key, num);
    }
    c.skipWs();
    if (c.eat(',')) continue;
    if (c.eat('}')) break;
    error = "expected ',' or '}' after value of \"" + key + "\"";
    return false;
  }
  c.skipWs();
  if (!c.done()) {
    error = "trailing bytes after object";
    return false;
  }
  return true;
}

[[nodiscard]] std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  out += obs::jsonEscape(s);
  out.push_back('"');
  return out;
}

void appendField(std::string& out, std::string_view key,
                 std::string_view value) {
  out += ",";
  out += quoted(key);
  out += ":";
  out += quoted(value);
}

void appendNumber(std::string& out, std::string_view key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += ",";
  out += quoted(key);
  out += ":";
  out += buf;
}

void appendInteger(std::string& out, std::string_view key, long long value) {
  out += ",";
  out += quoted(key);
  out += ":";
  out += std::to_string(value);
}

[[nodiscard]] std::string frameHead() {
  return "{\"v\":" + quoted(kProtocolVersion);
}

}  // namespace

std::string_view priorityName(Priority p) {
  return p == Priority::Interactive ? "interactive" : "batch";
}

bool isTerminalEvent(std::string_view event) {
  return event == obs::names::kServeEvCompleted ||
         event == obs::names::kServeEvFailed ||
         event == obs::names::kServeEvRejected;
}

Request decodeRequest(std::string_view line) {
  Request req;
  FlatObject obj;
  if (std::string error; !parseFlatObject(line, obj, error)) {
    req.error = error;
    return req;
  }
  if (obj.strOr("v", "") != kProtocolVersion) {
    req.error = "missing or unsupported protocol version (want \"" +
                std::string(kProtocolVersion) + "\")";
    return req;
  }
  const std::string op = obj.strOr("op", "");
  if (op == "ping") {
    req.kind = Request::Kind::Ping;
    return req;
  }
  if (op == "stats") {
    req.kind = Request::Kind::Stats;
    return req;
  }
  if (op == "shutdown") {
    req.kind = Request::Kind::Shutdown;
    return req;
  }
  if (op != "route") {
    req.error = op.empty() ? "missing \"op\"" : "unknown op \"" + op + "\"";
    return req;
  }

  RouteRequest& r = req.route;
  r.id = obj.strOr("id", "");
  if (r.id.empty()) {
    req.error = "route request needs a non-empty \"id\"";
    return req;
  }
  r.design = obj.strOr("design", "");
  r.defText = obj.strOr("def", "");
  if (r.design.empty() == r.defText.empty()) {
    req.error = "route request needs exactly one of \"design\" or \"def\"";
    return req;
  }
  const std::string scheme = obj.strOr("scheme", "cpr");
  const std::string method = obj.strOr("pin_access", "lr");
  const auto typedScheme = route::schemeFromName(scheme);
  const auto typedMethod = core::methodFromName(method);
  if (!typedScheme || !typedMethod) {
    req.error = typedScheme ? "unknown pin_access \"" + method + "\""
                            : "unknown scheme \"" + scheme + "\"";
    return req;
  }
  r.scheme = *typedScheme;
  r.pinAccess = *typedMethod;
  const std::string prio = obj.strOr("priority", "batch");
  if (prio == "interactive") {
    r.priority = Priority::Interactive;
  } else if (prio == "batch") {
    r.priority = Priority::Batch;
  } else {
    req.error = "unknown priority \"" + prio + "\"";
    return req;
  }
  r.budgetSeconds = obj.numOr("budget_seconds", 0.0);
  if (!(r.budgetSeconds >= 0.0) || r.budgetSeconds > 1e9) {  // rejects NaN
    req.error = "budget_seconds out of range";
    return req;
  }
  const double seed = obj.numOr("seed", 7.0);
  if (!(seed >= 0.0) || seed > 1e18) {
    req.error = "seed out of range";
    return req;
  }
  r.seed = static_cast<std::uint64_t>(seed);
  req.kind = Request::Kind::Route;
  return req;
}

Reply decodeReply(std::string_view line) {
  Reply rep;
  FlatObject obj;
  if (std::string error; !parseFlatObject(line, obj, error)) {
    rep.detail = error;
    return rep;
  }
  if (obj.strOr("v", "") != kProtocolVersion) {
    rep.detail = "missing or unsupported protocol version";
    return rep;
  }
  rep.id = obj.strOr("id", "");
  rep.event = obj.strOr("event", "");
  rep.detail = obj.strOr("detail", "");
  rep.attempt = static_cast<int>(obj.numOr("attempt", 0.0));
  rep.queueDepth = obj.numOr("queue_depth", 0.0);
  if (rep.event == "pong") {
    rep.kind = Reply::Kind::Pong;
  } else if (rep.event == "stats") {
    rep.kind = Reply::Kind::Stats;
    const auto it = obj.raw.find("counters");
    if (it != obj.raw.end()) rep.countersRaw = it->second;
  } else if (rep.event == "error") {
    rep.kind = Reply::Kind::Error;
  } else if (isTerminalEvent(rep.event)) {
    rep.kind = Reply::Kind::Result;
    rep.result.id = rep.id;
    rep.result.event = rep.event;
    rep.result.status = obj.strOr("status", "");
    rep.result.detail = rep.detail;
    rep.result.routability = obj.numOr("routability", 0.0);
    rep.result.vias = static_cast<long>(obj.numOr("vias", 0.0));
    rep.result.wirelength = static_cast<long>(obj.numOr("wirelength", 0.0));
    rep.result.seconds = obj.numOr("seconds", 0.0);
    rep.result.attempts = static_cast<int>(obj.numOr("attempts", 1.0));
    rep.result.digest = obj.strOr("digest", "");
  } else if (!rep.event.empty() && !rep.id.empty()) {
    rep.kind = Reply::Kind::Event;
  } else {
    rep.detail = "frame has neither a job event nor a control event";
  }
  return rep;
}

std::string encodeRouteRequest(const RouteRequest& r) {
  std::string out = frameHead();
  appendField(out, "op", "route");
  appendField(out, "id", r.id);
  if (!r.design.empty()) appendField(out, "design", r.design);
  if (!r.defText.empty()) appendField(out, "def", r.defText);
  appendField(out, "scheme", route::schemeName(r.scheme));
  appendField(out, "pin_access", core::methodName(r.pinAccess));
  appendField(out, "priority", priorityName(r.priority));
  if (r.budgetSeconds > 0.0)
    appendNumber(out, "budget_seconds", r.budgetSeconds);
  appendInteger(out, "seed", static_cast<long long>(r.seed));
  out += "}";
  return out;
}

std::string encodeStatsRequest() {
  std::string out = frameHead();
  appendField(out, "op", "stats");
  out += "}";
  return out;
}

std::string encodePing() {
  std::string out = frameHead();
  appendField(out, "op", "ping");
  out += "}";
  return out;
}

std::string encodeShutdownRequest() {
  std::string out = frameHead();
  appendField(out, "op", "shutdown");
  out += "}";
  return out;
}

std::string encodeEvent(std::string_view id, std::string_view event,
                        int attempt, double queueDepth,
                        std::string_view detail) {
  std::string out = frameHead();
  appendField(out, "id", id);
  appendField(out, "event", event);
  if (attempt > 0) appendInteger(out, "attempt", attempt);
  if (queueDepth > 0.0) appendNumber(out, "queue_depth", queueDepth);
  if (!detail.empty()) appendField(out, "detail", detail);
  out += "}";
  return out;
}

std::string encodeResult(const JobResult& r) {
  std::string out = frameHead();
  appendField(out, "id", r.id);
  appendField(out, "event", r.event);
  appendField(out, "status", r.status);
  if (!r.detail.empty()) appendField(out, "detail", r.detail);
  appendNumber(out, "routability", r.routability);
  appendInteger(out, "vias", r.vias);
  appendInteger(out, "wirelength", r.wirelength);
  appendNumber(out, "seconds", r.seconds);
  appendInteger(out, "attempts", r.attempts);
  if (!r.digest.empty()) appendField(out, "digest", r.digest);
  out += "}";
  return out;
}

std::string encodePong() {
  std::string out = frameHead();
  out += ",\"event\":\"pong\"}";
  return out;
}

std::string encodeError(std::string_view detail) {
  std::string out = frameHead();
  out += ",\"event\":\"error\"";
  appendField(out, "detail", detail);
  out += "}";
  return out;
}

std::string encodeStatsReply(
    const std::map<std::string, long, std::less<>>& counters) {
  std::string out = frameHead();
  out += ",\"event\":\"stats\",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ",";
    first = false;
    out += quoted(name);
    out += ":";
    out += std::to_string(value);
  }
  out += "}}";
  return out;
}

}  // namespace cpr::serve
