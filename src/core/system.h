#pragma once

#include <memory>
#include <vector>

#include "core/config.h"
#include "mem/backing_store.h"
#include "mem/memory_map.h"
#include "mpmmu/mpmmu.h"
#include "noc/network.h"
#include "pe/processing_element.h"
#include "sim/domain.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/task.h"

/// \file system.h
/// MedeaSystem: one fully wired MEDEA chip instance.
///
/// Construction instantiates the folded-torus NoC, one MPMMU (with its
/// DDR backing store) and `num_compute_cores` processing elements, placed
/// on consecutive NoC nodes around the MPMMU.  Programs — C++20 coroutines
/// using the ProcessingElement operation API and/or eMPI — are installed
/// per core; run() advances the cycle-accurate simulation until every
/// program has terminated and all hardware queues have drained.
///
/// The class also exposes "backdoor" (zero-time) memory access used to
/// set up workloads and verify results, including cache-coherent reads
/// that account for dirty lines still resident in L1s or in the MPMMU's
/// local cache.

namespace medea::core {

class MedeaSystem {
 public:
  explicit MedeaSystem(const MedeaConfig& cfg);

  const MedeaConfig& config() const { return cfg_; }
  /// The chip runs on a one-shard domain (PEs, caches and the MPMMU do
  /// not shard); scheduler() is that shard.
  sim::SimDomain& domain() { return dom_; }
  sim::Scheduler& scheduler() { return dom_.shard(0); }
  noc::Network& network() { return *net_; }
  mpmmu::Mpmmu& mpmmu() { return *mpmmu_; }
  const mem::MemoryMap& memory_map() const { return map_; }

  int num_cores() const { return static_cast<int>(cores_.size()); }
  pe::ProcessingElement& core(int rank) {
    return *cores_.at(static_cast<std::size_t>(rank));
  }
  const pe::ProcessingElement& core(int rank) const {
    return *cores_.at(static_cast<std::size_t>(rank));
  }

  /// NoC node id hosting compute core `rank`.
  int node_of_rank(int rank) const;
  /// Node ids of all compute cores (rank order) — eMPI barrier membership.
  std::vector<int> core_nodes() const;

  void set_program(int rank, sim::Task<> program) {
    core(rank).set_program(std::move(program));
  }

  /// Run until all programs finish and the hardware drains.
  /// Returns the cycle at which the system went idle.
  /// Throws on deadlock/livelock (cycle limit hit) or program error.
  sim::Cycle run(sim::Cycle max_cycles = 4'000'000'000ull);

  bool all_programs_done() const;

  // ------------------------------------------------------------------
  // Backdoor (zero-simulated-time) memory access for setup/verification
  // ------------------------------------------------------------------
  mem::BackingStore& memory() { return store_; }

  /// Make the backing store coherent: flush the MPMMU cache first, then
  /// every L1 (L1 data is newer than any MPMMU copy by construction of
  /// the software coherence discipline).
  void flush_all_caches_backdoor();

  double coherent_read_double(mem::Addr a);
  std::uint32_t coherent_read_word(mem::Addr a);

  /// Simple bump allocator over the shared segment for workloads/tests.
  mem::Addr alloc_shared(std::uint32_t bytes, std::uint32_t align = 8);
  /// Base of core `rank`'s private segment plus offset.
  mem::Addr private_addr(int rank, std::uint32_t offset = 0) const;

  /// Aggregate statistics from every block (NoC, MPMMU, PEs, caches).
  sim::StatSet aggregate_stats() const;

 private:
  MedeaConfig cfg_;
  sim::SimDomain dom_;
  mem::MemoryMap map_;
  mem::BackingStore store_;
  std::unique_ptr<noc::Network> net_;
  std::unique_ptr<mpmmu::Mpmmu> mpmmu_;
  std::vector<std::unique_ptr<pe::ProcessingElement>> cores_;
  mem::Addr shared_bump_ = 0;
};

}  // namespace medea::core
