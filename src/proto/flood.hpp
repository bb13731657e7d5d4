// Bounded flooding.
//
// Each processor originates one token that is flooded hop-by-hop with a TTL;
// intermediate processors forward a token the first time they see it.  This
// produces multi-hop, cross-network traffic whose per-link message counts
// are irregular — a stress shape for the estimators, and the same
// forward-once-per-origin pattern SyncAgent (runtime/agent.hpp) uses to
// disseminate reports and corrections.
#pragma once

#include "sim/simulator.hpp"

namespace cs {

struct FloodParams {
  Duration warmup{0.5};
  std::size_t ttl{8};
};

inline constexpr std::uint32_t kTagFlood = 4;

AutomatonFactory make_flood(FloodParams params);

}  // namespace cs
