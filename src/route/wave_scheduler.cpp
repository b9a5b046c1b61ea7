#include "route/wave_scheduler.h"

#include <algorithm>

namespace cpr::route {

WaveScheduler::WaveScheduler(geom::Coord width, geom::Coord height) {
  tilesX_ = static_cast<int>((std::max<geom::Coord>(1, width) + kTile - 1) /
                             kTile);
  tilesY_ = static_cast<int>((std::max<geom::Coord>(1, height) + kTile - 1) /
                             kTile);
  claimed_.assign(static_cast<std::size_t>(tilesX_) *
                      static_cast<std::size_t>(tilesY_),
                  -1);
}

bool WaveScheduler::tryClaim(const geom::Rect& box, long wave) {
  const auto clampTile = [](long t, int hi) {
    return static_cast<int>(std::clamp<long>(t, 0, hi - 1));
  };
  const int x0 = clampTile(box.x.lo / kTile, tilesX_);
  const int x1 = clampTile(box.x.hi / kTile, tilesX_);
  const int y0 = clampTile(box.y.lo / kTile, tilesY_);
  const int y1 = clampTile(box.y.hi / kTile, tilesY_);
  for (int ty = y0; ty <= y1; ++ty) {
    for (int tx = x0; tx <= x1; ++tx) {
      if (claimed_[static_cast<std::size_t>(ty) *
                       static_cast<std::size_t>(tilesX_) +
                   static_cast<std::size_t>(tx)] == wave)
        return false;
    }
  }
  for (int ty = y0; ty <= y1; ++ty) {
    for (int tx = x0; tx <= x1; ++tx) {
      claimed_[static_cast<std::size_t>(ty) *
                   static_cast<std::size_t>(tilesX_) +
               static_cast<std::size_t>(tx)] = wave;
    }
  }
  return true;
}

std::vector<std::vector<geom::Index>> WaveScheduler::partition(
    const std::vector<geom::Index>& nets,
    const std::vector<geom::Rect>& boxes) {
  conflicts_ = 0;
  // Every pass admits at least one net (a fresh wave id never collides), so
  // the wave count — and with it the result vector — is bounded by the net
  // count; per-wave members are bounded by what is still pending.
  std::vector<std::vector<geom::Index>> waves;
  waves.reserve(nets.size());
  // Pending nets carry their position in the caller's box array.
  std::vector<std::size_t> pending(nets.size());
  for (std::size_t k = 0; k < nets.size(); ++k) pending[k] = k;

  std::vector<std::size_t> deferred;
  deferred.reserve(nets.size());
  while (!pending.empty()) {
    const long wave = waveId_++;
    std::vector<geom::Index> members;
    members.reserve(pending.size());
    deferred.clear();
    for (std::size_t k : pending) {
      // A degenerate (empty) box never blocks anyone; route it anywhere.
      if (boxes[k].empty() || tryClaim(boxes[k], wave)) {
        members.push_back(nets[k]);
      } else {
        ++conflicts_;
        deferred.push_back(k);
      }
    }
    waves.push_back(std::move(members));
    pending.swap(deferred);
  }
  return waves;
}

}  // namespace cpr::route
