#pragma once

#include <cassert>
#include <cstddef>
#include <string>
#include <utility>

#include "core/thread_annotations.h"
#include "sim/ring.h"
#include "sim/scheduler.h"
#include "sim/types.h"

/// \file fifo.h
/// Synchronous single-producer/single-consumer FIFO channel.
///
/// This is the universal interconnect primitive of the model: NoC links,
/// the TIE message-passing ports, the pif2NoC arbiter queues and the
/// MPMMU's Pif-Request / Pif-Data / outgoing queues are all Fifo<T>.
///
/// Timing semantics (hardware-faithful):
///  * push() during cycle T becomes visible to the consumer at T+1.
///  * pop() during cycle T removes the element immediately from the
///    consumer's view, but the slot is returned to the producer's free
///    space only at T+1 (as a registered occupancy counter would).
///  * The consumer is woken automatically when data arrives; the producer
///    is woken automatically when a full FIFO gains space.
///
/// These rules make simulation results independent of the order in which
/// components tick within a cycle.  A push beyond the capacity throws
/// std::logic_error in every build type.
///
/// Storage: one sim::Ring holds the committed entries (the consumer's
/// view) followed by the entries staged this cycle.  push() appends
/// behind both, and commit() publishes the staged run by zeroing its
/// count, so no entry moves at the end of a cycle.  The ring is sized at
/// construction and never allocates again, except in an unbounded
/// (capacity 0) FIFO reaching a new high-water mark.
///
/// ## Ownership (clang -Wthread-safety)
///
/// A Fifo belongs to exactly one shard: every member is touched only
/// from the owning shard's scheduler context (its dispatch and commit
/// phases), or from the external thread while no run is in flight.
/// That ownership is encoded in the `owner_` capability token: mutators
/// assert exclusive ownership, const readers assert shared.  The only
/// cross-shard path is the boundary relay — commit() hands the staged
/// entries to the relay hook, which appends them to a SimDomain mailbox
/// (noc::Network::ShardChannel); the consumer-side half is a *different*
/// Fifo on the consumer's shard, filled via push_committed() from the
/// consumer shard's own drain phase.  Neither half is ever shared
/// between threads; the mailbox in between is barrier-handed-off and
/// carries its own capability.

namespace medea::sim {

namespace detail {
/// Throws the std::logic_error of a push onto a full FIFO, naming it.
[[noreturn]] void throw_fifo_full(const std::string& name,
                                  std::size_t capacity);
}  // namespace detail

template <typename T>
class Fifo : public Committable {
 public:
  /// capacity == 0 means unbounded (used for modelling ideal sinks and
  /// for test instrumentation; real MEDEA queues are always bounded).
  Fifo(Scheduler& sched, std::string name, std::size_t capacity)
      : sched_(sched),
        ring_(capacity),
        capacity_(capacity),
        name_(std::move(name)) {}

  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }

  /// Component to wake when staged data commits (new data visible).
  void set_consumer(Component* c) {
    owner_.assert_held();  // wiring time: model construction, pre-run
    consumer_ = c;
  }
  /// Component to wake when a full FIFO frees space.
  void set_producer(Component* c) {
    owner_.assert_held();  // wiring time: model construction, pre-run
    producer_ = c;
  }
  Component* consumer() const {
    owner_.assert_shared();
    return consumer_;
  }

  // ------------------------------------------------------------------
  // Shard-boundary relay (sim::SimDomain cross-shard links)
  // ------------------------------------------------------------------

  /// Boundary-relay hook: when set, commit() hands each entry staged
  /// this cycle, in push order, to `fn` (a mailbox append on the
  /// producer shard) instead of publishing it and waking the consumer.
  /// The consumer-side half of the split link receives the entries next
  /// via push_committed() in the domain's drain phase, which reproduces
  /// the shared-FIFO timing exactly (push at T -> visible at T+1).
  ///
  /// Only sound for channels whose producer never observes occupancy
  /// (the deflection fabric's links: no back-pressure) — a relayed
  /// FIFO's committed queue stays empty, so producer_occupancy()
  /// undercounts in-flight entries.
  using RelayFn = void (*)(void* ctx, T&& entry);
  void set_relay(RelayFn fn, void* ctx) {
    owner_.assert_held();  // wiring time: model construction, pre-run
    relay_ = fn;
    relay_ctx_ = ctx;
  }

  /// Consumer-side delivery of relayed entries: append directly to the
  /// committed queue (the domain drain phase runs strictly between
  /// cycles, standing in for the producer shard's commit()).  The caller
  /// wakes the consumer; this keeps the wake on the consumer's own
  /// scheduler.  Throws std::logic_error when the FIFO is full.
  void push_committed(T v) {
    // Drain phase of the owning (consumer) shard: runs strictly between
    // global cycles, standing in for the producer shard's commit().
    owner_.assert_held();
    assert(staged_ == 0 && "drain phase runs after the commit phase");
    if (capacity_ != 0 && ring_.size() >= capacity_) [[unlikely]] {
      detail::throw_fifo_full(name_, capacity_);
    }
    ring_.push_back(std::move(v));
  }

  // ------------------------------------------------------------------
  // Producer interface
  // ------------------------------------------------------------------

  /// Occupancy from the producer's point of view: committed entries
  /// (including ones popped this cycle, whose slots free at commit)
  /// plus entries staged this cycle.
  std::size_t producer_occupancy() const {
    owner_.assert_shared();
    return ring_.size() + popped_this_cycle_;
  }

  bool can_push() const {
    owner_.assert_held();  // writes the missed-wakeup latch below
    const bool ok = capacity_ == 0 || producer_occupancy() < capacity_;
    // Remember that a producer found us full so commit() can wake it as
    // soon as space appears; this prevents missed-wakeup hangs.
    if (!ok) push_blocked_ = true;
    return ok;
  }

  /// Stage one element; visible to the consumer next cycle.  Throws
  /// std::logic_error, naming the FIFO, when it is full.
  void push(T v) {
    owner_.assert_held();  // producer runs on the owning shard
    if (!can_push()) [[unlikely]] detail::throw_fifo_full(name_, capacity_);
    arm_commit();
    ring_.push_back(std::move(v));
    ++staged_;
  }

  // ------------------------------------------------------------------
  // Consumer interface
  // ------------------------------------------------------------------

  bool empty() const {
    owner_.assert_shared();
    return ring_.size() == staged_;
  }
  std::size_t size() const {
    owner_.assert_shared();
    return ring_.size() - staged_;
  }

  const T& front() const {
    owner_.assert_shared();
    assert(!empty());
    return ring_.front();
  }

  /// Committed entry `i` (0 = front), without popping.  Routers use this
  /// to announce newly visible inject-queue entries to a lifecycle
  /// observer; it never touches staged data, so peeking cannot perturb
  /// timing.
  const T& peek(std::size_t i) const {
    owner_.assert_shared();
    assert(i < size());
    return ring_[i];
  }

  T pop() {
    owner_.assert_held();  // consumer runs on the owning shard
    assert(!empty());
    T v = std::move(ring_.front());
    ring_.pop_front();
    ++popped_this_cycle_;
    arm_commit();
    return v;
  }

  // ------------------------------------------------------------------
  // Committable
  // ------------------------------------------------------------------

  void commit() override {
    // Commit phase of the owning shard's scheduler, or (for a relayed
    // boundary link) the producer shard handing its entries to the
    // mailbox — either way, this shard's execution context.
    owner_.assert_held();
    const bool gained_data = staged_ != 0;
    popped_this_cycle_ = 0;
    commit_stamp_ = kNeverCycle;
    if (relay_ != nullptr) [[unlikely]] {
      // Boundary link: the staged entries cross to the consumer shard's
      // mailbox; the drain phase over there delivers them and issues
      // the consumer wake this branch skips.  Nothing is ever committed
      // here, so the staged run starts at the front of the ring.
      assert(ring_.size() == staged_);
      for (; staged_ != 0; --staged_) {
        relay_(relay_ctx_, std::move(ring_.front()));
        ring_.pop_front();
      }
      return;
    }
    staged_ = 0;  // publish: the staged run joins the committed entries
    if (gained_data && consumer_ != nullptr) {
      sched_.wake_at(*consumer_, sched_.now() + 1);
    }
    if (push_blocked_ && producer_ != nullptr &&
        (capacity_ == 0 || ring_.size() < capacity_)) {
      push_blocked_ = false;
      sched_.wake_at(*producer_, sched_.now() + 1);
    }
  }

 private:
  /// Epoch-stamp commit-list dedup: a busy FIFO takes several pushes and
  /// pops per cycle (a router pops four links and pushes four), but must
  /// appear on the scheduler's commit list once.  Stamping the arming
  /// cycle dedups without searching the list; the duplicates absorbed
  /// here are counted scheduler-wide (Scheduler::commits_deduped) and
  /// exported through telemetry.  commit() resets the stamp so a FIFO
  /// re-armed in the same cycle from outside the run loop (test setup
  /// code) can never lose its registration.
  void arm_commit() MEDEA_REQUIRES(owner_) {
    const Cycle now = sched_.now();
    if (commit_stamp_ == now) {
      sched_.note_commit_dedup();
      return;
    }
    commit_stamp_ = now;
    sched_.defer_commit(*this);
  }

  /// The owning shard's execution context (see the file comment).
  core::Capability owner_;

  // Touched by push/pop/commit: kept together at the front.
  Scheduler& sched_;
  /// Committed entries (front = oldest), then the `staged_` entries
  /// pushed this cycle.
  Ring<T> ring_ MEDEA_GUARDED_BY(owner_);
  std::size_t staged_ MEDEA_GUARDED_BY(owner_) = 0;
  std::size_t popped_this_cycle_ MEDEA_GUARDED_BY(owner_) = 0;
  std::size_t capacity_;
  Cycle commit_stamp_ MEDEA_GUARDED_BY(owner_) = kNeverCycle;
  Component* consumer_ MEDEA_GUARDED_BY(owner_) = nullptr;
  Component* producer_ MEDEA_GUARDED_BY(owner_) = nullptr;
  mutable bool push_blocked_ MEDEA_GUARDED_BY(owner_) = false;

  std::string name_;
  RelayFn relay_ MEDEA_GUARDED_BY(owner_) = nullptr;
  void* relay_ctx_ MEDEA_GUARDED_BY(owner_) = nullptr;
};

}  // namespace medea::sim
