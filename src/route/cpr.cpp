#include "route/cpr.h"

#include <array>
#include <chrono>

#include "route/sequential_router.h"

namespace cpr::route {

/// Indexed by `Scheme`.
constexpr std::array<std::string_view, 3> kSchemeNames{"cpr", "nopao", "seq"};

std::optional<Scheme> schemeFromName(std::string_view name) {
  for (std::size_t i = 0; i < kSchemeNames.size(); ++i)
    if (kSchemeNames[i] == name) return static_cast<Scheme>(i);
  return std::nullopt;
}

std::string_view schemeName(Scheme scheme) {
  return kSchemeNames[std::size_t(scheme)];
}

CprResult routeCpr(const db::Design& design, const CprOptions& opts) {
  using Clock = std::chrono::steady_clock;
  CprResult out;
  const auto t0 = Clock::now();
  out.plan = core::optimizePinAccess(design, opts.pinAccess);
  out.pinAccessSeconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.routing = routeNegotiated(design, &out.plan, opts.routing);
  return out;
}

CprResult routeScheme(const db::Design& design, Scheme scheme,
                      const CprOptions& opts) {
  if (scheme == Scheme::Cpr) return routeCpr(design, opts);
  CprResult out;
  out.routing =
      scheme == Scheme::NoPao
          ? routeNegotiated(design, nullptr, opts.routing)
          : routeSequential(design, opts.routing.deadline);
  return out;
}

}  // namespace cpr::route
