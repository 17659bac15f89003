#include "platform/cluster.hpp"

namespace cbe::platform {

BladeFleetConfig BladeFleetConfig::uniform(int n, int slots, double speed) {
  BladeFleetConfig cfg;
  if (n < 1) n = 1;
  cfg.blades.assign(static_cast<std::size_t>(n),
                    BladeSpec{speed, slots < 1 ? 1 : slots});
  return cfg;
}

double BladeFleetConfig::total_capacity() const noexcept {
  double cap = 0.0;
  for (const BladeSpec& b : blades) {
    cap += static_cast<double>(b.slots) * b.speed;
  }
  return cap;
}

}  // namespace cbe::platform
