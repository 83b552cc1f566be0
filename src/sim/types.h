#pragma once

#include <cstdint>

/// \file types.h
/// Fundamental scalar types shared by every MEDEA simulation module.

namespace medea::sim {

/// Simulation time, measured in clock cycles of the single system clock.
/// The paper's SystemC model is fully synchronous; so is this kernel.
using Cycle = std::uint64_t;

/// Sentinel for "no scheduled time".
inline constexpr Cycle kNeverCycle = ~Cycle{0};

/// Kernel selection for the discrete-event simulator.
///
/// The calendar queue is the default: a 1024-cycle ring of per-cycle
/// buckets absorbs every near-future wake (the overwhelming majority are
/// `now+1`) as an O(1) pointer bump, with a binary heap kept only as an
/// overflow tier for far-future events (DDR-refresh-scale delays).  The
/// pure binary heap remains selectable as the differential suite's
/// reference kernel.  Either kernel runs on one shard or on several
/// (sim::SimDomain); every combination produces bit-identical results.
struct SchedulerConfig {
  enum class EventQueue : std::uint8_t {
    kCalendar,    ///< calendar ring + overflow heap (default)
    kBinaryHeap,  ///< single binary heap (reference kernel)
  };

  EventQueue queue = EventQueue::kCalendar;

  /// Shards a SimDomain runs the model on.  1 is the single-thread
  /// kernel; N > 1 runs N row bands of the torus in lockstep on N
  /// threads, clamped to the torus rows and to 64.  Models that cannot
  /// shard (full-system apps, the XY baseline) always run one shard.
  /// 0 is rejected with std::invalid_argument.
  std::uint32_t num_shards = 1;

  bool operator==(const SchedulerConfig&) const = default;
};

}  // namespace medea::sim
