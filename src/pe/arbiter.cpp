#include "pe/arbiter.h"

namespace medea::pe {

namespace {

/// Pop from the round-robin-selected non-empty queue; returns false if
/// both are empty.  `prefer_a` is flipped on a contended grant.
bool rr_pick(sim::Ring<noc::Flit>& a, sim::Ring<noc::Flit>& b,
             bool& prefer_a, noc::Flit& out) {
  const bool has_a = !a.empty();
  const bool has_b = !b.empty();
  if (!has_a && !has_b) return false;
  const bool pick_a = has_a && (!has_b || prefer_a);
  if (has_a && has_b) prefer_a = !pick_a;  // loser goes first next time
  auto& q = pick_a ? a : b;
  out = q.front();
  q.pop_front();
  return true;
}

}  // namespace

void NocArbiter::drain_into(sim::Fifo<noc::Flit>& inject) {
  if (!inject.can_push()) return;
  if (!hp_.empty()) {
    inject.push(hp_.front());
    hp_.pop_front();
  } else if (!be_.empty()) {
    inject.push(be_.front());
    be_.pop_front();
  }
}

void NocArbiter::step(sim::Fifo<noc::Flit>& inject,
                      sim::Ring<noc::Flit>& tie_q,
                      sim::Ring<noc::Flit>& bridge_q) {
  switch (cfg_.kind) {
    case ArbiterKind::kMux: {
      // No storage: grant one interface per cycle, directly to the switch.
      if (!inject.can_push()) {
        if (!tie_q.empty() || !bridge_q.empty()) ++st_stalls_;
        return;
      }
      noc::Flit f;
      if (!tie_q.empty() && !bridge_q.empty()) ++st_contention_;
      if (rr_pick(tie_q, bridge_q, rr_tie_next_, f)) {
        inject.push(f);
        ++st_flits_;
      }
      break;
    }
    case ArbiterKind::kSingleFifo: {
      // Intake: one flit per cycle into the shared queue.
      if (hp_.size() < static_cast<std::size_t>(cfg_.fifo_depth)) {
        noc::Flit f;
        if (!tie_q.empty() && !bridge_q.empty()) ++st_contention_;
        if (rr_pick(tie_q, bridge_q, rr_tie_next_, f)) {
          hp_.push_back(f);
          ++st_flits_;
        }
      }
      drain_into(inject);
      break;
    }
    case ArbiterKind::kDualFifo: {
      // Separate write ports: both interfaces can enqueue in one cycle.
      auto& tie_fifo = cfg_.tie_high_priority ? hp_ : be_;
      auto& bridge_fifo = cfg_.tie_high_priority ? be_ : hp_;
      if (!tie_q.empty() &&
          tie_fifo.size() < static_cast<std::size_t>(cfg_.fifo_depth)) {
        tie_fifo.push_back(tie_q.front());
        tie_q.pop_front();
        ++st_flits_;
      }
      if (!bridge_q.empty() &&
          bridge_fifo.size() < static_cast<std::size_t>(cfg_.fifo_depth)) {
        bridge_fifo.push_back(bridge_q.front());
        bridge_q.pop_front();
        ++st_flits_;
      }
      // Best-Effort is served only when High-Priority is empty.
      drain_into(inject);
      break;
    }
  }
}

}  // namespace medea::pe
