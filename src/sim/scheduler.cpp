#include "sim/scheduler.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace medea::sim {

namespace {
/// Spill nodes are allocated in blocks and recycled forever; a block of
/// 64 keeps the steady-state allocation count at "a handful per run".
constexpr std::size_t kNodeBlockSize = 64;
}  // namespace

Component::Component(Scheduler& sched, std::string name)
    : sched_(sched),
      name_(std::move(name)),
      order_(sched.next_component_order()) {
  hook_.comp = this;
}

void Component::wake(Cycle delta) {
  sched_.wake_at(*this, sched_.now() + delta);
}

Scheduler::Scheduler(const SchedulerConfig& cfg)
    : use_calendar_(cfg.queue == SchedulerConfig::EventQueue::kCalendar) {
  // The commit list and its swap partner grow to the most FIFOs one
  // cycle touches; starting both at a 1024-entry reserve keeps a
  // mid-size fabric from reallocating them after warm-up.
  commit_list_.reserve(kCommitListReserve);
  commit_batch_.reserve(kCommitListReserve);
  if (use_calendar_) {
    ring_.resize(kRingCycles);
    ring_bitmap_.resize(kRingCycles / 64, 0);
  }
}

Scheduler::~Scheduler() = default;

detail::WakeNode* Scheduler::acquire_node(Component& c) {
  // Fast path: the component's embedded hook, free whenever the
  // component has no other wake pending in the ring.
  if (!c.hook_.active) {
    c.hook_.active = true;
    c.hook_.next = nullptr;
    return &c.hook_;
  }
  if (free_nodes_ == nullptr) {
    auto block = std::make_unique<detail::WakeNode[]>(kNodeBlockSize);
    for (std::size_t i = 0; i < kNodeBlockSize; ++i) {
      block[i].pooled = true;
      block[i].next = free_nodes_;
      free_nodes_ = &block[i];
    }
    node_blocks_.push_back(std::move(block));
  }
  detail::WakeNode* n = free_nodes_;
  free_nodes_ = n->next;
  n->comp = &c;
  n->next = nullptr;
  return n;
}

void Scheduler::release_node(detail::WakeNode* n) {
  if (n->pooled) {
    n->next = free_nodes_;
    free_nodes_ = n;
  } else {
    n->active = false;
  }
}

void Scheduler::push_bucket(Component& c, Cycle at) {
  detail::WakeNode* n = acquire_node(c);
  const std::size_t slot = static_cast<std::size_t>(at) & kRingMask;
  Bucket& b = ring_[slot];
  if (b.tail == nullptr) {
    b.head = b.tail = n;
    ring_bitmap_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  } else {
    b.tail->next = n;
    b.tail = n;
  }
  ++ring_count_;
  ++bucket_pushes_;
}

void Scheduler::push_heap(Component& c, Cycle at) {
  heap_.push(Event{at, seq_++, &c});
  ++overflow_pushes_;
}

void Scheduler::wake_at(Component& c, Cycle at) {
  assert(at != kNeverCycle);
  if (dispatching_) {
    // Synchronous design: nothing scheduled mid-cycle may land in the
    // same cycle, or tick ordering would become observable.
    assert(at > now_ && "wake_at during dispatch must target a future cycle");
  } else {
    assert(at >= now_);
  }
  ++wake_requests_;
  // Push-time dedup: if this component already has a queued entry for
  // the same strictly-future cycle, skip the push entirely.  The stamp
  // is sound because an entry for cycle `at` leaves its queue only once
  // now_ reaches `at`, after which every new wake must target a cycle
  // > now_ >= at and can never alias the stale stamp.  `at == now_`
  // wakes (legal between runs) bypass the dedup: their entry may
  // already have been consumed this cycle, so skipping could lose the
  // wake — the pop-time last_ticked_ guard handles those instead.
  if (at > now_ && c.last_wake_cycle_ == at) {
    ++wakes_deduped_;
    return;
  }
  c.last_wake_cycle_ = at;
  // Route by horizon: wakes within the calendar ring become an O(1)
  // bucket append; anything further out (or the whole load, under the
  // legacy kernel) goes through the binary heap.
  if (use_calendar_ && at - now_ <= kRingMask) {
    push_bucket(c, at);
  } else {
    push_heap(c, at);
  }
}

Cycle Scheduler::next_ring_cycle() const {
  if (ring_count_ == 0) return kNeverCycle;
  // Every linked node targets a cycle in [now_, now_ + ring size), so
  // the set bit with the smallest circular distance from now_'s slot is
  // the next event.  Scan words outward from that slot; the bits below
  // it in the starting word belong to the wrapped far end and are
  // checked last.
  const std::size_t nwords = ring_bitmap_.size();
  const std::size_t base = static_cast<std::size_t>(now_ & kRingMask);
  const std::size_t w0 = base >> 6;
  const unsigned shift = static_cast<unsigned>(base & 63);
  const auto cycle_of = [&](std::size_t bit) {
    return now_ + ((bit - base) & kRingMask);
  };
  std::uint64_t word = ring_bitmap_[w0] & (~std::uint64_t{0} << shift);
  if (word != 0) {
    return cycle_of((w0 << 6) +
                    static_cast<std::size_t>(std::countr_zero(word)));
  }
  for (std::size_t k = 1; k < nwords; ++k) {
    const std::size_t w = (w0 + k) & (nwords - 1);
    if (ring_bitmap_[w] != 0) {
      return cycle_of(
          (w << 6) +
          static_cast<std::size_t>(std::countr_zero(ring_bitmap_[w])));
    }
  }
  if (shift != 0) {
    word = ring_bitmap_[w0] & ~(~std::uint64_t{0} << shift);
    if (word != 0) {
      return cycle_of((w0 << 6) +
                      static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
  assert(false && "ring_count_ > 0 but occupancy bitmap is empty");
  return kNeverCycle;
}

void Scheduler::drain_bucket(Cycle t) {
  const std::size_t slot = static_cast<std::size_t>(t) & kRingMask;
  Bucket& b = ring_[slot];
  detail::WakeNode* n = b.head;
  if (n == nullptr) return;
  b.head = b.tail = nullptr;
  ring_bitmap_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  while (n != nullptr) {
    Component* c = n->comp;
    detail::WakeNode* next = n->next;
    release_node(n);
    --ring_count_;
    if (c->last_ticked_ != t) {  // dedup same-cycle wakes
      c->last_ticked_ = t;
      dispatch_batch_.push_back(c);
    }
    n = next;
  }
}

void Scheduler::dispatch_cycle(Cycle t) {
  now_ = t;
  ++active_cycles_;

  // Gather every component woken for this cycle, then dispatch.  The
  // gather/dispatch split guarantees that wake_at() calls made inside
  // tick() (which must target t+1 or later) never join this batch.
  dispatch_batch_.clear();
  while (!heap_.empty() && heap_.top().cycle == t) {
    Component* c = heap_.top().component;
    heap_.pop();
    if (c->last_ticked_ == t) continue;  // dedup same-cycle wakes
    c->last_ticked_ = t;
    dispatch_batch_.push_back(c);
  }
  if (use_calendar_) drain_bucket(t);

  // Canonical within-cycle order: sort by component construction
  // sequence (see the file comment in scheduler.h).  The batch arrives
  // mostly sorted (wakes are dominated by the previous cycle's commit
  // sweep, which itself ran in canonical order), so the sort is cheap.
  std::sort(dispatch_batch_.begin(), dispatch_batch_.end(),
            [](const Component* a, const Component* b) {
              return a->order() < b->order();
            });

  dispatching_ = true;
  for (Component* c : dispatch_batch_) c->tick(t);
  dispatching_ = false;

  // End-of-cycle commit: staged channel pushes/pops become visible,
  // which may wake consumers/producers at t+1.
  commit_batch_.swap(commit_list_);
  for (Committable* c : commit_batch_) c->commit();
  commit_batch_.clear();
}

bool Scheduler::run(Cycle limit) {
  stop_requested_ = false;
  while (!stop_requested_) {
    const Cycle t = next_event_cycle();
    if (t == kNeverCycle) break;  // both tiers drained: idle
    if (t > limit) return false;
    now_ = t;

    // Telemetry sampling point: fires before any component ticks, so
    // the hook observes end-of-previous-cycle state.  Disabled hooks
    // keep hook_next_ at kNeverCycle and cost only this compare.
    if (t >= hook_next_) [[unlikely]] {
      hook_next_ = hook_->on_cycle(t);
    }

    dispatch_cycle(t);
  }
  return true;
}

void Scheduler::run_or_throw(Cycle limit) {
  if (!run(limit)) {
    throw std::runtime_error(
        "Scheduler::run_or_throw: cycle limit " + std::to_string(limit) +
        " reached at cycle " + std::to_string(now_) +
        " without the system going idle (deadlock or livelock?)");
  }
}

}  // namespace medea::sim
