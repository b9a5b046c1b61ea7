#include "route/result.h"

namespace cpr::route {

std::uint64_t resultDigest(const RoutingResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t n = 0; n < r.geometry.size(); ++n) {
    const NetGeometry& g = r.geometry[n];
    mix(static_cast<std::uint64_t>(g.routed()) |
        (static_cast<std::uint64_t>(r.clean(n)) << 1));
    mix(static_cast<std::uint64_t>(g.wirelength()));
    mix(static_cast<std::uint64_t>(g.vias.size()));
  }
  return h;
}

}  // namespace cpr::route
