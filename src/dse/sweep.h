#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "dse/pareto.h"

/// \file sweep.h
/// Design-space exploration driver (paper §III).
///
/// The paper evaluates 168 design points per data size: compute cores 2
/// to 15 (plus the MPMMU, 16 nodes on the 4x4 folded torus), L1 cache
/// 2..64 kB in powers of two, Write-Back and Write-Through.  This driver
/// enumerates that space (or any sub-space), runs the hybrid
/// message-passing Jacobi on each point, attaches chip area from the
/// AreaModel, and feeds the Pareto/Kill-rule analysis that produces
/// Figs. 7 and 9.
///
/// Points are independent simulations and can run on multiple host
/// threads (the paper used 5 dual-Xeon servers for a day; we aim for
/// minutes on one machine).
///
/// Exact pruning: a series is one (cores, policy) pair, simulated in
/// ascending L1 size.  Once a point runs with zero evictions in every
/// compute core's L1, every larger size of its series is filled from it
/// without simulating.  The fill is exact: the L1 is 2-way LRU with a
/// power-of-two set count, so each set of a 2S cache only ever holds
/// lines of one set of the S cache; a run that never evicts at S never
/// evicts at 2S, sees the same hit/miss sequence, and L1 latency does
/// not depend on size.  The pruning is always on.

namespace medea::dse {

struct SweepSpec {
  int n = 60;  ///< Jacobi grid size (n x n doubles)
  std::vector<int> cores = {2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  std::vector<std::uint32_t> cache_kb = {2, 4, 8, 16, 32, 64};
  std::vector<mem::WritePolicy> policies = {mem::WritePolicy::kWriteBack,
                                            mem::WritePolicy::kWriteThrough};
  int warmup_iterations = 1;
  int timed_iterations = 1;
  int threads = 0;  ///< 0 = hardware concurrency

  /// Live progress on stderr while the sweep runs: a single updating
  /// line with completed/total points, points/sec and ETA — the "is it
  /// still making progress" signal for long DSE runs.  Off by default
  /// (library callers and tests want silent sweeps).
  bool progress = false;
};

struct SweepPoint {
  int cores = 0;
  std::uint32_t cache_kb = 0;
  mem::WritePolicy policy = mem::WritePolicy::kWriteBack;
  double cycles_per_iteration = 0.0;
  double area_mm2 = 0.0;
  /// Host wall-clock time this point took to simulate — the sweep's
  /// per-point phase timing (also emitted as a ProfileScope span when
  /// the host profiler is enabled).  0 for an implied point.
  double host_ms = 0.0;
  std::string label;  ///< e.g. "11P_16k$_WB"
  /// cache.evictions summed over every compute core's L1 for the whole
  /// run, warm-up included.
  std::uint64_t l1_evictions = 0;
  /// Filled from an eviction-free, smaller-L1 point of the same series
  /// instead of simulated: its cycles, this point's own area and label,
  /// no MedeaSystem built (see the file comment).
  bool implied = false;
};

/// Build the MedeaConfig for one design point (shared by sweeps, tests
/// and benches so everyone simulates the same machine).
core::MedeaConfig make_design_config(int cores, std::uint32_t cache_kb,
                                     mem::WritePolicy policy);

/// Run one design point: spec.n x spec.n Jacobi, hybrid message
/// passing, spec's warm-up and timed iterations, no verification.
/// Always simulates (never implied).
SweepPoint run_design_point(const SweepSpec& spec, int cores,
                            std::uint32_t cache_kb, mem::WritePolicy policy);

/// Run the full cross product (optionally multi-threaded), pruned as the
/// file comment describes.  Each worker thread claims a whole series
/// from a shared counter, costliest first (write-through before
/// write-back, then more cores first), and runs its L1 sizes in
/// ascending order, so a thread amortises its spawn cost and its warm
/// coroutine frame pool across every point it simulates and the cheap
/// series fill the tail.  Result order is deterministic (cores-major,
/// then cache, then policy) whatever the thread count, and so are the
/// values and which points are implied.
///
/// Every point's config is validated before any worker starts (a bad
/// one throws std::invalid_argument); the first exception a worker
/// throws is rethrown here once every worker has stopped.
std::vector<SweepPoint> run_sweep(const SweepSpec& spec);

/// How many of `pts` are implied rather than simulated.
std::size_t count_implied(const std::vector<SweepPoint>& pts);

/// Convert sweep results to design points for Pareto analysis.
std::vector<DesignPoint> to_design_points(const std::vector<SweepPoint>& pts);

}  // namespace medea::dse
