#pragma once

#include <cstdint>
#include <string>

#include "mem/cache.h"
#include "mem/memory_map.h"
#include "mpmmu/mpmmu.h"
#include "noc/router.h"
#include "pe/processing_element.h"
#include "sim/types.h"

/// \file config.h
/// Top-level configuration of a MEDEA system instance.
///
/// This is the design-space-exploration knob set of the paper's §III: the
/// simulator sweeps number of cores (2..15 compute cores + 1 MPMMU on a
/// 4x4 folded torus), L1 cache size (2..64 kB) and write policy (WB/WT),
/// plus the structural options of §II (arbiter flavour, FP timing,
/// shared-segment cacheability).

namespace medea::core {

struct MedeaConfig {
  // --- NoC ---
  int noc_width = 4;
  int noc_height = 4;
  noc::RouterConfig router{};

  // --- cores ---
  int num_compute_cores = 4;  ///< PEs that run programs (MPMMU excluded)
  int mpmmu_node = 0;         ///< NoC node hosting the MPMMU
  mem::CacheConfig l1{2 * 1024, mem::kLineBytes, 2,
                      mem::WritePolicy::kWriteBack};
  pe::ArbiterConfig arbiter{};
  pe::BridgeConfig bridge{};
  pe::FpTiming fp{};
  bool shared_uncached = false;

  // --- memory subsystem ---
  mpmmu::MpmmuConfig mpmmu{};
  mem::MemoryMapConfig memmap{};

  // --- simulation kernel ---
  /// Kernel selection: the event queue (the calendar queue by default,
  /// or the binary heap the differential tests compare against) and the
  /// shard count NoC-only workloads run on (a MedeaSystem always runs
  /// one shard).
  sim::SchedulerConfig scheduler{};

  std::uint64_t seed = 1;

  int num_nodes() const { return noc_width * noc_height; }

  /// Human-readable tag, e.g. "7P_16k$_WB" (paper figure label style).
  std::string label() const;

  /// Sanity checks; throws std::invalid_argument on bad combinations.
  void validate() const;
};

}  // namespace medea::core
