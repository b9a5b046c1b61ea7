#include "route/grid.h"

#include "db/layer.h"
#include "support/contracts.h"

namespace cpr::route {

RoutingGrid::RoutingGrid(const db::Design& design,
                         const core::PinAccessPlan* plan)
    : w_(design.width()), h_(design.gridHeight()) {
  CPR_CHECK(w_ >= 1);
  rowMagic_ = rowMagic(w_);
  const std::size_t plane = static_cast<std::size_t>(planeSize());
  const auto at = [this](Coord x, Coord y) {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(w_) +
           static_cast<std::size_t>(x);
  };
  owner_.assign(plane, geom::kInvalidIndex);
  m3Blocked_.assign(plane, 0);
  occ_.assign(2 * plane, 0);
  hist_.assign(2 * plane, 0);
  viaNet_.assign(plane, geom::kInvalidIndex);
  viaCount_.assign(plane, 0);

  // The owner is folded in place, with no plane-sized staging copy: pins
  // first in pin order (the last pin wins), then intervals in reverse pin
  // order so the first visit of a node is its last interval, then
  // blockages over everything.
  for (const db::Pin& p : design.pins()) {
    for (Coord y = p.shape.y.lo; y <= p.shape.y.hi; ++y) {
      for (Coord x = p.shape.x.lo; x <= p.shape.x.hi; ++x)
        owner_[at(x, y)] = p.net;
    }
  }

  if (plan) {
    std::vector<bool> seen(plane);
    for (std::size_t pid = plan->routes.size(); pid-- > 0;) {
      const core::PinRoute& r = plan->routes[pid];
      if (!r.valid()) continue;
      const Index net = design.pins()[pid].net;
      for (Coord x = r.span.lo; x <= r.span.hi; ++x) {
        const std::size_t i = at(x, r.track);
        if (seen[i]) continue;
        seen[i] = true;
        Index& owner = owner_[i];  // still the last pin's net here
        if (owner == geom::kInvalidIndex)
          owner = net;
        else if (owner != net)
          owner = kContestedOwner;
      }
    }
  }

  for (const db::Blockage& b : design.blockages()) {
    if (b.layer == db::Layer::M1) continue;
    for (Coord y = b.shape.y.lo; y <= b.shape.y.hi; ++y) {
      for (Coord x = b.shape.x.lo; x <= b.shape.x.hi; ++x) {
        if (b.layer == db::Layer::M2)
          owner_[at(x, y)] = kBlockedOwner;
        else
          m3Blocked_[at(x, y)] = 1;
      }
    }
  }
}

void RoutingGrid::noteOverused(int id, std::uint16_t& occ) {
  ++overused_;
  if (occ & kListed) return;  // still listed since it was last overused
  occ |= kListed;
  overusedList_.push_back(id);
  if (overusedList_.size() >= 2 * static_cast<std::size_t>(overused_) + 64)
    compact();
}

void RoutingGrid::compact() {
  // A node dropped here is unlisted, so if it is overused again it is
  // appended after the mark: the mark's promise survives compaction.
  std::size_t kept = 0;
  std::size_t keptBeforeMark = 0;
  for (std::size_t k = 0; k < overusedList_.size(); ++k) {
    const int id = overusedList_[k];
    std::uint16_t& o = occ_[static_cast<std::size_t>(id)];
    if ((o & kOccMask) > 1) {
      overusedList_[kept++] = id;
      if (k < mark_) ++keptBeforeMark;
    } else {
      o &= kOccMask;  // unlisted: the next 1 → 2 step lists it again
    }
  }
  overusedList_.resize(kept);
  mark_ = keptBeforeMark;
  CPR_DCHECK(overusedList_.size() == static_cast<std::size_t>(overused_));
}

void RoutingGrid::markShared() {
  compact();
  mark_ = overusedList_.size();
}

void RoutingGrid::accrueHistory() {
  compact();
  for (const int id : overusedList_) {
    std::uint8_t& h = hist_[static_cast<std::size_t>(id)];
    CPR_DCHECK(h < 255);
    ++h;
  }
}

void RoutingGrid::addVia(Coord x, Coord y, Index net) {
  const std::size_t at = static_cast<std::size_t>(y) *
                             static_cast<std::size_t>(w_) +
                         static_cast<std::size_t>(x);
  ++viaCount_[at];
  viaNet_[at] = net;
}

void RoutingGrid::removeVia(Coord x, Coord y, Index net) {
  const std::size_t at = static_cast<std::size_t>(y) *
                             static_cast<std::size_t>(w_) +
                         static_cast<std::size_t>(x);
  if (viaCount_[at] > 0) --viaCount_[at];
  if (viaCount_[at] == 0) {
    viaNet_[at] = geom::kInvalidIndex;
  } else {
    viaNet_[at] = net;  // best effort; exact owner tracking not needed
  }
}

std::size_t RoutingGrid::footprintBytes() const {
  return owner_.size() * sizeof(Index) + m3Blocked_.size() +
         occ_.size() * sizeof(std::uint16_t) + hist_.size() +
         viaNet_.size() * sizeof(Index) + viaCount_.size();
}

bool RoutingGrid::viaForbidden(Coord x, Coord y, Index net) const {
  // Same-track check: the DRC's via-spacing rule, from the same constant.
  for (Coord dx = -db::kViaSpacing; dx <= db::kViaSpacing; ++dx) {
    const Coord nx = x + dx;
    if (!inside(nx, y)) continue;
    const std::size_t at = static_cast<std::size_t>(y) *
                               static_cast<std::size_t>(w_) +
                           static_cast<std::size_t>(nx);
    if (viaCount_[at] > 0 && viaNet_[at] != net) return true;
  }
  return false;
}

}  // namespace cpr::route
