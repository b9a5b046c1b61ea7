/// \file def_io.h
/// DEF-subset reader/writer for pin access designs.
///
/// The repository's design model (placed I/O pin shapes, nets, routing
/// blockages on a uniform track grid) maps onto a compact subset of the
/// DEF 5.8 syntax. The subset is:
///
///   VERSION 5.8 ;
///   DESIGN <name> ;
///   UNITS DISTANCE MICRONS <dbu> ;
///   DIEAREA ( 0 0 ) ( <width> <gridHeight> ) ;
///   ROWS <numRows> <tracksPerRow> ;                  # extension record
///   BLOCKAGES <n> ;
///     - LAYER <M2|M3> RECT ( x0 y0 ) ( x1 y1 ) ;
///   END BLOCKAGES
///   NETS <n> ;
///     - <netName>
///       ( PIN <pinName> LAYER M1 RECT ( x0 t0 ) ( x1 t1 ) )
///       ... ;
///   END NETS
///   END DESIGN
///
/// Coordinates are grid units (column, global track). `ROWS` is a
/// non-standard record carrying the panel structure, flagged as such. The
/// reader is strict: malformed input raises `DefParseError` with a line
/// number.
#pragma once

#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "db/design.h"

namespace cpr::lefdef {

class DefParseError : public std::runtime_error {
 public:
  DefParseError(int line, const std::string& what)
      : std::runtime_error("DEF parse error at line " + std::to_string(line) +
                           ": " + what),
        line_(line) {}
  [[nodiscard]] int line() const { return line_; }

 private:
  int line_;
};

/// Appends statements to one net's entry, after its pins and before the
/// entry's closing `;` (route::writeRoutedDef adds `+ ROUTED` wiring).
using NetTail = std::function<void(db::Index net, std::ostream& os)>;

/// Serializes `design` in the subset syntax above, calling a non-empty
/// `netTail` once per net.
void writeDef(const db::Design& design, std::ostream& os,
              const NetTail& netTail = {});

/// Parses a design; throws DefParseError on malformed input. The returned
/// design passes `Design::validate()` whenever the input describes a
/// well-formed design.
[[nodiscard]] db::Design readDef(std::istream& is);

/// Convenience file-path wrappers (throw std::runtime_error on I/O failure).
void saveDef(const db::Design& design, const std::string& path);
[[nodiscard]] db::Design loadDef(const std::string& path);

// The routed-DEF writer (`+ ROUTED` wiring statements) lives in
// route/def_export.h: it consumes router geometry, and the lefdef layer
// sits below route in the architecture manifest (tools/lint/layers.txt).

}  // namespace cpr::lefdef
