#include "viz/svg.h"

#include <array>
#include <fstream>
#include <ostream>

namespace cpr::viz {

namespace {

using geom::Coord;

constexpr double kCellPx = 8.0;  ///< pixels per grid unit
/// Largest design, in pins, whose pins are drawn with their names.
constexpr std::size_t kMaxLabelledPins = 400;

/// Deterministic per-net color from a small qualitative palette.
std::string netColor(db::Index net) {
  static constexpr std::array<const char*, 10> kPalette{
      "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
      "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"};
  return kPalette[static_cast<std::size_t>(net) % kPalette.size()];
}

class Canvas {
 public:
  Canvas(std::ostream& os, const geom::Rect& die) : os_(os), die_(die) {}

  /// Grid coordinates -> pixel coordinates; y flips so track 0 is at the
  /// bottom, like a layout viewer.
  [[nodiscard]] double px(Coord x) const {
    return (x - die_.x.lo) * kCellPx;
  }
  [[nodiscard]] double py(Coord y) const {
    return (die_.y.hi - y) * kCellPx;
  }

  void rect(const geom::Rect& r, const std::string& fill, double opacity,
            const std::string& stroke = "none") {
    const geom::Rect c = geom::intersect(r, die_);
    if (c.empty()) return;
    os_ << "<rect x=\"" << px(c.x.lo) << "\" y=\"" << py(c.y.hi) << "\" width=\""
        << c.width() * kCellPx << "\" height=\""
        << c.height() * kCellPx << "\" fill=\"" << fill
        << "\" fill-opacity=\"" << opacity << "\" stroke=\"" << stroke
        << "\"/>\n";
  }

  void text(Coord x, Coord y, const std::string& s) {
    if (!die_.contains(geom::Point{x, y})) return;
    os_ << "<text x=\"" << px(x) << "\" y=\"" << py(y) - 2 << "\" font-size=\""
        << kCellPx * 0.9 << "\" font-family=\"monospace\">" << s
        << "</text>\n";
  }

  void circle(Coord x, Coord y, double r, const std::string& fill) {
    if (!die_.contains(geom::Point{x, y})) return;
    os_ << "<circle cx=\"" << px(x) + kCellPx / 2 << "\" cy=\""
        << py(y) + kCellPx / 2 << "\" r=\"" << r << "\" fill=\"" << fill
        << "\"/>\n";
  }

 private:
  std::ostream& os_;
  geom::Rect die_;
};

}  // namespace

void renderSvg(const db::Design& design, const core::PinAccessPlan* plan,
               const std::vector<route::NetGeometry>* geometry,
               std::ostream& os) {
  const geom::Rect die{0, 0, design.width() - 1, design.gridHeight() - 1};
  const double w = die.width() * kCellPx;
  const double h = die.height() * kCellPx;

  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w
     << "\" height=\"" << h << "\" viewBox=\"0 0 " << w << ' ' << h
     << "\">\n";
  os << "<!-- design " << design.name() << ": " << design.nets().size()
     << " nets, " << design.pins().size() << " pins -->\n";
  Canvas canvas(os, die);

  // Die background and row shading.
  canvas.rect(die, "#fafafa", 1.0, "#404040");
  for (Coord r = 0; r < design.numRows(); r += 2) {
    canvas.rect(geom::Rect{geom::Interval{0, design.width() - 1},
                           design.rowTracks(r)},
                "#eef2f7", 1.0);
  }

  // Blockages: M2 dark grey, M3 hatched-ish light grey.
  for (const db::Blockage& b : design.blockages()) {
    canvas.rect(b.shape, b.layer == db::Layer::M2 ? "#666666" : "#bbbbbb",
                b.layer == db::Layer::M2 ? 0.8 : 0.35);
  }

  // Routed geometry under the pins/intervals so hookups stay visible.
  if (geometry) {
    for (std::size_t n = 0; n < geometry->size(); ++n) {
      const std::string color = netColor(static_cast<db::Index>(n));
      for (const route::RouteSegment& s : (*geometry)[n].segments) {
        const geom::Rect r =
            s.m3 ? geom::Rect{geom::Interval::point(s.lane), s.span}
                 : geom::Rect{s.span, geom::Interval::point(s.lane)};
        canvas.rect(r, color, s.m3 ? 0.45 : 0.8);
      }
      for (const route::ViaSite& v : (*geometry)[n].vias) {
        canvas.circle(v.x, v.y, kCellPx * (v.level == 1 ? 0.22 : 0.3),
                      v.level == 1 ? "#000000" : color);
      }
    }
  }

  // Assigned pin access intervals (outlined strips).
  if (plan) {
    for (std::size_t p = 0; p < plan->routes.size(); ++p) {
      const core::PinRoute& r = plan->routes[p];
      if (!r.valid()) continue;
      const db::Index net = design.pins()[p].net;
      canvas.rect(geom::Rect{r.span, geom::Interval::point(r.track)},
                  netColor(net), 0.35, netColor(net));
    }
  }

  // M1 pins.
  const bool labelPins = design.pins().size() <= kMaxLabelledPins;
  for (const db::Pin& pin : design.pins()) {
    canvas.rect(pin.shape, netColor(pin.net), 0.95, "#000000");
    if (labelPins) canvas.text(pin.shape.x.lo, pin.shape.y.hi, pin.name);
  }

  os << "</svg>\n";
}

void saveSvg(const db::Design& design, const core::PinAccessPlan* plan,
             const std::vector<route::NetGeometry>* geometry,
             const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  renderSvg(design, plan, geometry, os);
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace cpr::viz
