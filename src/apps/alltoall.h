#pragma once

#include <cstdint>

#include "core/system.h"
#include "sim/types.h"

/// \file alltoall.h
/// Third workload: a personalized all-to-all exchange (MPI_Alltoall) —
/// next member of the "standard parallel benchmarks" the paper lists as
/// future work, and the densest communication pattern a message-passing
/// fabric faces: every core sends a distinct payload to every other
/// core each round.
///
/// The exchange uses the classic ring schedule: in step s (1..P-1) rank
/// r sends its chunk for rank (r+s) mod P and receives the chunk from
/// rank (r-s) mod P, so each step is a node-disjoint permutation and
/// the NoC sees P simultaneous long-haul streams — deliberately
/// asymmetric, bursty traffic, unlike jacobi's nearest-neighbour halos.
///
/// Payload words are a deterministic function of (src, dst, index), so
/// every receiver verifies every word exactly; a round ends with an
/// eMPI barrier.

namespace medea::apps {

struct AlltoallParams {
  int words_per_pair = 8;  ///< 32-bit words each rank sends each peer
  int repeats = 1;         ///< exchange rounds (timed)
};

struct AlltoallResult {
  sim::Cycle total_cycles = 0;
  double cycles_per_round = 0.0;
  int cores = 0;
  bool verified_ok = true;  ///< every received word matched its reference
};

/// The word rank `src` sends to rank `dst` at index `i` (the reference
/// receivers verify against).
std::uint32_t alltoall_word(int src, int dst, int i);

AlltoallResult run_alltoall(core::MedeaSystem& sys, const AlltoallParams& p);

}  // namespace medea::apps
