#include "lefdef/def_io.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

namespace cpr::lefdef {

namespace {

using geom::Coord;

/// Whitespace tokenizer that tracks line numbers and treats the DEF
/// punctuation characters '(' ')' ';' '-' as standalone tokens.
class Tokenizer {
 public:
  explicit Tokenizer(std::istream& is) : is_(is) {}

  [[nodiscard]] int line() const { return line_; }

  /// Next token, or nullopt at EOF.
  std::optional<std::string> next() {
    if (pending_) {
      auto t = std::move(*pending_);
      pending_.reset();
      return t;
    }
    std::string tok;
    char c = 0;
    while (is_.get(c)) {
      if (c == '\n') ++line_;
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!tok.empty()) return tok;
        continue;
      }
      if (c == '(' || c == ')' || c == ';') {
        if (!tok.empty()) {
          pending_ = std::string(1, c);
          return tok;
        }
        return std::string(1, c);
      }
      tok.push_back(c);
    }
    if (!tok.empty()) return tok;
    return std::nullopt;
  }

  std::string expectAny() {
    auto t = next();
    if (!t) throw DefParseError(line_, "unexpected end of file");
    return *t;
  }

  void expect(const std::string& want) {
    const std::string got = expectAny();
    if (got != want)
      throw DefParseError(line_, "expected '" + want + "', got '" + got + "'");
  }

  Coord expectInt() {
    const std::string t = expectAny();
    long long v = 0;
    try {
      std::size_t used = 0;
      v = std::stoll(t, &used);
      if (used != t.size()) throw std::invalid_argument(t);
    } catch (const std::out_of_range&) {
      throw DefParseError(line_, "integer out of range: '" + t + "'");
    } catch (const std::exception&) {
      throw DefParseError(line_, "expected integer, got '" + t + "'");
    }
    // Coord is 32-bit: a syntactically valid token that does not fit must be
    // rejected here, not silently truncated into a bogus coordinate.
    if (v < std::numeric_limits<Coord>::min() ||
        v > std::numeric_limits<Coord>::max())
      throw DefParseError(line_, "integer out of range: '" + t + "'");
    return static_cast<Coord>(v);
  }

  /// Reads "( x y )".
  geom::Point expectPoint() {
    expect("(");
    const Coord x = expectInt();
    const Coord y = expectInt();
    expect(")");
    return {x, y};
  }

 private:
  std::istream& is_;
  int line_ = 1;
  std::optional<std::string> pending_;
};

db::Layer layerFromName(const std::string& name, int line) {
  if (name == "M1") return db::Layer::M1;
  if (name == "M2") return db::Layer::M2;
  if (name == "M3") return db::Layer::M3;
  throw DefParseError(line, "unknown layer '" + name + "'");
}

}  // namespace

void writeDef(const db::Design& design, std::ostream& os,
              const NetTail& netTail) {
  os << "VERSION 5.8 ;\n";
  os << "DESIGN " << design.name() << " ;\n";
  os << "UNITS DISTANCE MICRONS 1000 ;\n";
  os << "DIEAREA ( 0 0 ) ( " << design.width() << ' ' << design.gridHeight()
     << " ) ;\n";
  os << "ROWS " << design.numRows() << ' ' << design.tracksPerRow() << " ;\n";

  os << "BLOCKAGES " << design.blockages().size() << " ;\n";
  for (const db::Blockage& b : design.blockages()) {
    os << "  - LAYER " << db::name(b.layer) << " RECT ( " << b.shape.x.lo
       << ' ' << b.shape.y.lo << " ) ( " << b.shape.x.hi << ' ' << b.shape.y.hi
       << " ) ;\n";
  }
  os << "END BLOCKAGES\n";

  os << "NETS " << design.nets().size() << " ;\n";
  for (std::size_t n = 0; n < design.nets().size(); ++n) {
    const db::Net& net = design.nets()[n];
    os << "  - " << net.name << "\n";
    for (db::Index p : net.pins) {
      const db::Pin& pin = design.pin(p);
      os << "    ( PIN " << pin.name << " LAYER M1 RECT ( " << pin.shape.x.lo
         << ' ' << pin.shape.y.lo << " ) ( " << pin.shape.x.hi << ' '
         << pin.shape.y.hi << " ) )\n";
    }
    if (netTail) netTail(static_cast<db::Index>(n), os);
    os << "  ;\n";
  }
  os << "END NETS\n";
  os << "END DESIGN\n";
}

db::Design readDef(std::istream& is) {
  Tokenizer tok(is);
  tok.expect("VERSION");
  tok.expectAny();  // version literal
  tok.expect(";");
  tok.expect("DESIGN");
  const std::string name = tok.expectAny();
  tok.expect(";");
  tok.expect("UNITS");
  tok.expect("DISTANCE");
  tok.expect("MICRONS");
  tok.expectInt();
  tok.expect(";");
  tok.expect("DIEAREA");
  const geom::Point origin = tok.expectPoint();
  const geom::Point extent = tok.expectPoint();
  if (origin.x != 0 || origin.y != 0)
    throw DefParseError(tok.line(), "DIEAREA must start at the origin");
  tok.expect(";");
  tok.expect("ROWS");
  const Coord numRows = tok.expectInt();
  const Coord tracksPerRow = tok.expectInt();
  tok.expect(";");
  if (numRows <= 0 || tracksPerRow <= 0)
    throw DefParseError(tok.line(), "non-positive row geometry");
  if (extent.x <= 0)
    throw DefParseError(tok.line(), "non-positive die width");
  // The product can overflow Coord (int32); compare in 64 bits.
  if (static_cast<long long>(numRows) * tracksPerRow !=
      static_cast<long long>(extent.y))
    throw DefParseError(tok.line(), "DIEAREA height disagrees with ROWS");

  db::Design design(name, extent.x, numRows, tracksPerRow);

  tok.expect("BLOCKAGES");
  const Coord nBlockages = tok.expectInt();
  if (nBlockages < 0)
    throw DefParseError(tok.line(), "negative BLOCKAGES count");
  tok.expect(";");
  for (Coord k = 0; k < nBlockages; ++k) {
    tok.expect("-");
    tok.expect("LAYER");
    const db::Layer layer = layerFromName(tok.expectAny(), tok.line());
    tok.expect("RECT");
    const geom::Point lo = tok.expectPoint();
    const geom::Point hi = tok.expectPoint();
    tok.expect(";");
    design.addBlockage(layer, geom::Rect{lo.x, lo.y, hi.x, hi.y});
  }
  tok.expect("END");
  tok.expect("BLOCKAGES");

  tok.expect("NETS");
  const Coord nNets = tok.expectInt();
  if (nNets < 0) throw DefParseError(tok.line(), "negative NETS count");
  tok.expect(";");
  for (Coord k = 0; k < nNets; ++k) {
    tok.expect("-");
    const std::string netName = tok.expectAny();
    const db::Index net = design.addNet(netName);
    for (std::string t = tok.expectAny(); t != ";"; t = tok.expectAny()) {
      if (t != "(")
        throw DefParseError(tok.line(), "expected '(' or ';' in net " + netName);
      tok.expect("PIN");
      const std::string pinName = tok.expectAny();
      tok.expect("LAYER");
      const db::Layer layer = layerFromName(tok.expectAny(), tok.line());
      if (layer != db::Layer::M1)
        throw DefParseError(tok.line(), "pins must be on M1");
      tok.expect("RECT");
      const geom::Point lo = tok.expectPoint();
      const geom::Point hi = tok.expectPoint();
      tok.expect(")");
      design.addPin(pinName, net, geom::Rect{lo.x, lo.y, hi.x, hi.y});
    }
  }
  tok.expect("END");
  tok.expect("NETS");
  tok.expect("END");
  tok.expect("DESIGN");
  return design;
}

namespace {

/// "<verb>: <path>: <strerror>", with errno captured before it can be
/// clobbered by further stream calls.
std::string ioError(const std::string& verb, const std::string& path) {
  const int err = errno;
  std::string msg = verb + ": " + path;
  if (err != 0) msg += std::string(": ") + std::strerror(err);
  return msg;
}

}  // namespace

void saveDef(const db::Design& design, const std::string& path) {
  errno = 0;
  std::ofstream os(path);
  if (!os) throw std::runtime_error(ioError("cannot open for writing", path));
  writeDef(design, os);
  os.flush();
  if (!os) throw std::runtime_error(ioError("write failed", path));
}

db::Design loadDef(const std::string& path) {
  errno = 0;
  std::ifstream is(path);
  if (!is) throw std::runtime_error(ioError("cannot open for reading", path));
  return readDef(is);
}

}  // namespace cpr::lefdef
