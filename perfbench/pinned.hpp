// Outcome fingerprints of each workload at its default seed (see
// workloads.cpp). A change that only makes the simulator faster leaves these
// identical; a change that is meant to alter simulated behaviour updates them
// in the same commit, with the reason in its message.
#pragma once

#include <cstdint>
#include <cstring>

namespace perfbench {

struct Pin {
  const char* workload;
  std::uint64_t events;
  std::uint64_t hash;
};

inline constexpr Pin kPins[] = {
    {"mobile_swarm", 3609358, 0x5d8bc7ebd4479c56ULL},
    {"flyweight_crowd", 1405618, 0xfd9375f23403d22aULL},
    {"adversary_mixed", 700483, 0x88ddf00a92f65be4ULL},
    {"fuzz_sweep", 1438422, 0x230ae622f4b32010ULL},
};

inline const Pin* find_pin(const char* workload) {
  for (const Pin& pin : kPins) {
    if (std::strcmp(pin.workload, workload) == 0) return &pin;
  }
  return nullptr;
}

}  // namespace perfbench
