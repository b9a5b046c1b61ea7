/// \file collector.h
/// Observability collector: named counters, gauges, per-iteration solver
/// series, scoped phase timers, and free-form run notes.
///
/// The collector is the single sink every layer reports into — interval
/// generation, conflict detection, the LR and ILP solvers, the routing
/// engine, and DRC. It is deliberately NOT thread-safe: concurrent code gives
/// each worker its own collector (tagged with a deterministic `src` id, e.g.
/// the panel index) and merges them in a fixed order afterwards, so counters
/// and series are bit-identical for any thread count. Only the wall-clock
/// fields of timer spans vary between runs.
///
/// Canonical counter naming: dot-separated `<layer>.<subject>.<aspect>`,
/// lower_snake_case segments — e.g. `lr.iterations`, `ilp.nodes`,
/// `route.astar.pops`, `drc.violations.via_spacing`. The full convention is
/// documented in DESIGN.md ("Observability").
#pragma once

#include <chrono>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/hot_annotations.h"

namespace cpr::obs {

using Clock = std::chrono::steady_clock;

/// One timed phase, emitted by ScopedTimer. `depth` is the nesting level
/// inside its collector; `src` is the owning collector's source id, which
/// becomes the Chrome-trace thread lane.
struct Span {
  std::string name;
  int src = 0;
  int depth = 0;
  Clock::time_point start{};
  Clock::duration dur{};
};

/// A named table of per-iteration samples. The first column is always "src"
/// (filled from the appending collector), so merged series stay attributable
/// to the panel / worker that produced each row.
struct Series {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;
};

class Collector {
 public:
  Collector() = default;
  explicit Collector(int src) : src_(src) {}

  [[nodiscard]] int src() const { return src_; }

  // The write-side entry points are CPR_COLD_OK: instrumentation is the
  // sanctioned cold island inside hot code — map/string upkeep allocates by
  // design, call sites are either behind a null check or flushed after the
  // parallel region, and the runtime gate pauses its hot region around them.

  // ---- counters (merged by summation) ----
  void add(std::string_view name, long delta = 1) CPR_COLD_OK;
  /// 0 when the counter was never touched.
  [[nodiscard]] long counter(std::string_view name) const;

  // ---- gauges (last write wins, also across merges) ----
  void gauge(std::string_view name, double value) CPR_COLD_OK;
  [[nodiscard]] double gaugeOr(std::string_view name, double fallback) const;

  // ---- run metadata (string key/value, last write wins) ----
  void note(std::string_view key, std::string_view value) CPR_COLD_OK;

  // ---- series ----
  /// Appends one row to `name`, creating the series (with "src" prepended to
  /// `columns`) on first use. Callers must pass the same columns every time.
  void row(std::string_view name,
           std::initializer_list<std::string_view> columns,
           std::initializer_list<double> values) CPR_COLD_OK;

  /// Folds `other` into this collector: counters sum, gauges and notes
  /// overwrite, series rows and spans append in order. Merging the same
  /// collectors in the same order therefore always yields the same counters,
  /// gauges, notes, and series.
  void merge(const Collector& other);

  // ---- read-side access for report writers and tests ----
  [[nodiscard]] const std::map<std::string, long, std::less<>>& counters()
      const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double, std::less<>>& gauges()
      const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, std::string, std::less<>>& notes()
      const {
    return notes_;
  }
  [[nodiscard]] const std::map<std::string, Series, std::less<>>& series()
      const {
    return series_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class ScopedTimer;

  int src_ = 0;
  int depth_ = 0;  ///< live timer nesting level
  std::map<std::string, long, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, std::string, std::less<>> notes_;
  std::map<std::string, Series, std::less<>> series_;
  std::vector<Span> spans_;
};

/// RAII phase timer. Records a Span on destruction; null collector makes it
/// a no-op, so call sites never need to branch on whether observability is
/// enabled. Nesting is tracked per collector and recorded in Span::depth.
class ScopedTimer {
 public:
  ScopedTimer(Collector* c, std::string_view name);
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer();

 private:
  Collector* c_ = nullptr;
  std::size_t slot_ = 0;  ///< index into spans_ (stable under reallocation)
};

// Null-safe forwarding helpers so instrumented code stays one line per event.
inline void add(Collector* c, std::string_view name, long delta = 1) {
  if (c) c->add(name, delta);
}
inline void gauge(Collector* c, std::string_view name, double value) {
  if (c) c->gauge(name, value);
}
inline void note(Collector* c, std::string_view key, std::string_view value) {
  if (c) c->note(key, value);
}
inline void row(Collector* c, std::string_view name,
                std::initializer_list<std::string_view> columns,
                std::initializer_list<double> values) {
  if (c) c->row(name, columns, values);
}

}  // namespace cpr::obs
