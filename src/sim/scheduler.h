#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/types.h"

/// \file scheduler.h
/// The cycle-accurate discrete-event kernel at the bottom of MEDEA.
///
/// The paper models every block as a synchronous SystemC module clocked by
/// a single clock.  We reproduce those semantics with an event-driven
/// kernel so that cycles in which no component has work are skipped
/// entirely; this is what makes the 168-point design-space sweep of the
/// paper's Section III affordable on one machine.
///
/// Semantics contract (matches RTL intuition):
///  * A component's tick(now) sees only state committed in cycles < now.
///  * Values pushed into channels during tick(now) become visible to
///    consumers at cycle now+1 (two-phase staged commit).
///  * A component may receive spurious ticks; tick() must be idempotent
///    when there is no work to do.
///  * wake() during a tick may only target strictly future cycles.
///
/// Event-queue structure (SchedulerConfig): almost every wake in this
/// model targets `now+1` (FIFO commits, self-re-arming engines), so the
/// default kernel is a hierarchical calendar queue — a 1024-cycle ring
/// of per-cycle buckets, each an intrusive singly-linked list threaded
/// through the components themselves, making the dominant wake an O(1)
/// pointer bump with zero allocation.  Far-future wakes (DDR-scale
/// delays, idle-period jumps) overflow into the old binary heap, which
/// stays selectable as the whole kernel for differential testing.
/// Dispatch order is bit-identical between every kernel (calendar,
/// binary heap, and the sharded executor in sim/domain.h): within a
/// cycle the gathered batch is sorted by component construction order —
/// a canonical order that is identical however the wake requests arrived
/// and however the model is partitioned across shards.  The contract
/// already makes within-cycle tick order unobservable (staged commits),
/// so the canonical order changes no simulation result; it exists so
/// observer event streams (delivery logs, flit traces) are comparable
/// bit-for-bit across kernels.

namespace medea::sim {

class Scheduler;
class Component;

/// Periodic observer of simulated-time progress, for telemetry sampling.
///
/// The scheduler calls on_cycle(now) at the top of any dispatched cycle
/// that has reached the cycle the hook last asked for (before any
/// component ticks, so the hook sees only state committed in cycles
/// < now).  The return value is the next cycle of interest; returning
/// kNeverCycle mutes the hook.  Because the check rides the run loop's
/// existing cycle advance — one integer compare per *dispatched cycle*,
/// nothing per wake or per event — an unset hook costs effectively zero
/// on the kernel hot path, which is what lets telemetry stay compiled in
/// everywhere and be enabled per run.
class CycleHook {
 public:
  virtual ~CycleHook() = default;
  virtual Cycle on_cycle(Cycle now) = 0;
};

namespace detail {

/// Intrusive calendar-bucket link.  Every Component embeds one node (the
/// common case: at most one pending wake), and the scheduler keeps a
/// recycled pool of spill nodes for components with several wakes in
/// flight at once (e.g. a timed operation plus an engine self-wake).
struct WakeNode {
  Component* comp = nullptr;
  WakeNode* next = nullptr;
  bool pooled = false;  ///< false: embedded in its component
  bool active = false;  ///< embedded node currently linked in a bucket
};

}  // namespace detail

/// Base class for every clocked hardware model.
class Component {
 public:
  Component(Scheduler& sched, std::string name);
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// One clock cycle of work.  Called only on cycles for which the
  /// component was woken (by itself, by a channel, or by another block).
  virtual void tick(Cycle now) = 0;

  const std::string& name() const { return name_; }
  Scheduler& scheduler() const { return sched_; }

 protected:
  /// Request a tick at now+delta (delta >= 1 while the clock is running).
  void wake(Cycle delta = 1);

  /// Global construction sequence number — the canonical within-cycle
  /// dispatch order (see the file comment).  Shard schedulers created by
  /// one SimDomain share a single counter, so the order is global across
  /// the whole partitioned model.
  std::uint64_t order() const { return order_; }

 private:
  friend class Scheduler;
  Scheduler& sched_;
  std::string name_;
  std::uint64_t order_;              // canonical dispatch order key
  Cycle last_ticked_ = kNeverCycle;  // dedup guard for same-cycle wakes
  Cycle last_wake_cycle_ = 0;        // push-time dedup stamp (see wake_at)
  detail::WakeNode hook_;            // intrusive calendar-bucket hook
};

/// Anything with staged state that must be made visible at end of cycle.
class Committable {
 public:
  virtual ~Committable() = default;
  virtual void commit() = 0;
};

/// The simulation kernel.
class Scheduler {
 public:
  explicit Scheduler(const SchedulerConfig& cfg = {});
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  Cycle now() const { return now_; }

  /// Total cycles in which at least one component ticked.
  std::uint64_t active_cycles() const { return active_cycles_; }

  /// Schedule component c to tick at absolute cycle `at`.
  /// While dispatching a cycle, `at` must be strictly in the future.
  ///
  /// Duplicate wakes for the same (component, future cycle) are deduped
  /// at push time via a per-component last-wake stamp, so a hot FIFO
  /// fan-in (N channels committing into one router in the same cycle)
  /// costs one push instead of N.  A second dedup layer at pop time
  /// (Component::last_ticked_) covers the remaining `at == now` path.
  void wake_at(Component& c, Cycle at);

  /// Pressure counters: total wake_at() requests and how many were
  /// absorbed by the push-time dedup (never reached a queue).
  std::uint64_t wake_requests() const { return wake_requests_; }
  std::uint64_t wakes_deduped() const { return wakes_deduped_; }

  /// Where the surviving pushes landed: calendar-ring buckets (the O(1)
  /// near-future fast path) vs the overflow binary heap.  In the legacy
  /// kBinaryHeap kernel every push counts as an overflow push.
  std::uint64_t bucket_pushes() const { return bucket_pushes_; }
  std::uint64_t overflow_pushes() const { return overflow_pushes_; }

  /// Register a staged object for commit at the end of the current cycle.
  /// Idempotent per cycle only if the caller guards; cheap either way.
  /// Fifo guards with an epoch stamp (one registration per FIFO per
  /// cycle, however many pushes/pops hit it) and reports the absorbed
  /// duplicates through note_commit_dedup().
  void defer_commit(Committable& c) {
    commit_list_.push_back(&c);
    ++commit_pushes_;
  }

  /// A caller-side guard (e.g. Fifo's epoch stamp) absorbed a duplicate
  /// same-cycle commit registration.
  void note_commit_dedup() { ++commits_deduped_; }

  /// Commit-list pressure: registrations that reached the list vs
  /// duplicates absorbed by caller-side epoch stamps.
  std::uint64_t commit_pushes() const { return commit_pushes_; }
  std::uint64_t commits_deduped() const { return commits_deduped_; }

  /// Entries currently queued across both tiers (calendar ring +
  /// overflow heap) — the "event queue occupancy" telemetry gauge.
  std::size_t queued() const { return ring_count_ + heap_.size(); }

  /// Install (or clear, with nullptr) the periodic cycle hook.  `first`
  /// is the first cycle of interest; after that the hook's own return
  /// values drive the cadence.
  void set_cycle_hook(CycleHook* hook, Cycle first = 0) {
    hook_ = hook;
    hook_next_ = hook == nullptr ? kNeverCycle : first;
  }

  /// Run until the event queues empty or `limit` is passed.
  /// Returns true if the system went idle (queues drained), false if the
  /// cycle limit stopped the run (useful as a livelock/deadlock guard).
  bool run(Cycle limit = kNeverCycle);

  /// Convenience: run with a hard limit and abort (assert/throw) if the
  /// limit is reached.  Used by tests and by MedeaSystem::run().
  void run_or_throw(Cycle limit);

  /// Abort the run loop at the end of the current cycle.
  void request_stop() { stop_requested_ = true; }

  bool idle() const { return ring_count_ == 0 && heap_.empty(); }

  // ------------------------------------------------------------------
  // Sharded-executor interface (sim::SimDomain).  A SimDomain drives
  // several shard schedulers in lockstep: per global cycle it asks each
  // shard for its next event time, min-reduces across shards, then has
  // due shards dispatch_cycle(t) and idle shards fast_forward(t).  The
  // single-thread run() loop is built from the same pieces, so the two
  // execution modes cannot drift apart.
  // ------------------------------------------------------------------

  /// Earliest pending event time across both tiers (kNeverCycle: idle).
  Cycle next_event_cycle() const {
    Cycle t = use_calendar_ ? next_ring_cycle() : kNeverCycle;
    if (!heap_.empty() && heap_.top().cycle < t) t = heap_.top().cycle;
    return t;
  }

  /// Dispatch one cycle: gather the batch woken for `t` (which must be
  /// next_event_cycle()), tick it in canonical component order, and run
  /// the end-of-cycle commit phase.  Does not fire the cycle hook — the
  /// caller (run() or the SimDomain) owns hook cadence.
  void dispatch_cycle(Cycle t);

  /// Advance now() to `t` without dispatching (every pending event is
  /// known to be later than `t`).  The sharded executor uses this to
  /// keep an idle shard's clock in lockstep so that wakes delivered by
  /// the cross-shard drain phase (at t+1) satisfy the monotonicity
  /// invariants and stay inside the calendar ring's horizon window.
  void fast_forward(Cycle t) {
    assert(t >= now_);
    assert(next_event_cycle() > t);
    now_ = t;
  }

  bool stop_requested() const { return stop_requested_; }
  void reset_stop() { stop_requested_ = false; }

  /// Redirect the component-construction order counter (the canonical
  /// dispatch key) to shared storage.  A SimDomain points every shard at
  /// one counter *before any component is built*, making construction
  /// order global across the partitioned model.
  void adopt_order_counter(std::uint64_t* counter) {
    order_counter_ = counter;
  }
  std::uint64_t next_component_order() { return (*order_counter_)++; }

 private:
  struct Event {
    Cycle cycle;
    std::uint64_t seq;  // FIFO order among same-cycle events => determinism
    Component* component;
    bool operator>(const Event& o) const {
      return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
    }
  };

  /// Head/tail of one calendar bucket's intrusive FIFO list.
  struct Bucket {
    detail::WakeNode* head = nullptr;
    detail::WakeNode* tail = nullptr;
  };

  void push_bucket(Component& c, Cycle at);
  void push_heap(Component& c, Cycle at);
  detail::WakeNode* acquire_node(Component& c);
  void release_node(detail::WakeNode* n);
  /// Earliest non-empty ring cycle in [now_, now_ + ring size), or
  /// kNeverCycle.  A bitmap word scan, so idle gaps cost ~ring/64 tests.
  Cycle next_ring_cycle() const;
  void drain_bucket(Cycle t);

  /// Calendar ring length: a wake less than this many cycles ahead lands
  /// in a bucket, anything further out in the overflow heap.
  static constexpr std::size_t kRingCycles = 1024;
  static constexpr std::size_t kRingMask = kRingCycles - 1;

  /// Initial capacity of the commit list and its swap partner.
  static constexpr std::size_t kCommitListReserve = 1024;

  bool use_calendar_ = true;
  Cycle now_ = 0;
  bool dispatching_ = false;
  bool stop_requested_ = false;
  std::uint64_t seq_ = 0;
  std::uint64_t order_counter_storage_ = 0;
  std::uint64_t* order_counter_ = &order_counter_storage_;
  std::uint64_t active_cycles_ = 0;
  std::uint64_t wake_requests_ = 0;
  std::uint64_t wakes_deduped_ = 0;
  std::uint64_t bucket_pushes_ = 0;
  std::uint64_t overflow_pushes_ = 0;
  std::uint64_t commit_pushes_ = 0;
  std::uint64_t commits_deduped_ = 0;

  // Telemetry hook: hook_next_ is kNeverCycle whenever hook_ is null, so
  // the disabled case is a single always-false compare in run().
  CycleHook* hook_ = nullptr;
  Cycle hook_next_ = kNeverCycle;

  // Calendar tier: ring of buckets indexed by (cycle & kRingMask), an
  // occupancy bitmap for next-event scans, and the spill-node pool.
  std::size_t ring_count_ = 0;  ///< nodes currently linked in buckets
  std::vector<Bucket> ring_;
  std::vector<std::uint64_t> ring_bitmap_;
  std::vector<std::unique_ptr<detail::WakeNode[]>> node_blocks_;
  detail::WakeNode* free_nodes_ = nullptr;

  // Overflow tier (the whole kernel under kBinaryHeap).
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;

  std::vector<Committable*> commit_list_;
  std::vector<Committable*> commit_batch_;
  std::vector<Component*> dispatch_batch_;
};

}  // namespace medea::sim
