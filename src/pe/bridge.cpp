#include "pe/bridge.h"

#include <cassert>
#include <stdexcept>

namespace medea::pe {

using noc::Flit;
using noc::FlitSubType;
using noc::FlitType;

Pif2NocBridge::Pif2NocBridge(noc::Network& net, int self_id, int mpmmu_id,
                             const BridgeConfig& cfg, sim::StatSet& stats)
    : net_(net),
      self_id_(self_id),
      mpmmu_id_(mpmmu_id),
      cfg_(cfg),
      stats_(stats),
      queue_(static_cast<std::size_t>(cfg.tx_queue_depth)) {}

Flit Pif2NocBridge::make_flit(FlitSubType sub, std::uint8_t seq,
                              std::uint8_t burst, std::uint32_t data) const {
  assert(cur_.has_value());
  Flit f;
  f.valid = true;
  // Address-to-NoC-address translation: with a single physical memory
  // node the configuration memory degenerates to a hardwired entry.
  f.dst = net_.geometry().coord_of(mpmmu_id_);
  f.type = cur_->type;
  f.subtype = sub;
  f.seq_num = seq;
  f.burst_size = burst;
  f.src_id = static_cast<std::uint8_t>(self_id_);
  f.data = data;
  f.uid = net_.next_flit_uid();
  return f;
}

std::uint64_t Pif2NocBridge::enqueue(Tx tx) {
  assert(can_enqueue());
  if (tx.id == 0) tx.id = next_id_++;  // callers may pre-assign ids
  stats_.inc("bridge.transactions");
  queue_.push_back(tx);
  return tx.id;
}

bool Pif2NocBridge::busy_streaming() const {
  if (!cur_.has_value()) return !queue_.empty();
  return state_ == State::kSendReq || state_ == State::kSendData;
}

void Pif2NocBridge::step_tx(sim::Ring<noc::Flit>& out) {
  if (!cur_.has_value()) {
    if (queue_.empty()) return;
    cur_ = queue_.front();
    queue_.pop_front();
    state_ = State::kSendReq;
    data_sent_ = 0;
    rx_mask_ = 0;
  }
  // The bridge-side output register holds one flit; wait until the
  // arbiter has taken the previous one.
  if (!out.empty()) return;

  switch (state_) {
    case State::kSendReq: {
      out.push_back(make_flit(FlitSubType::kAddress, 0, 0, cur_->addr));
      stats_.inc("bridge.req_flits");
      switch (cur_->type) {
        case FlitType::kSingleRead:
        case FlitType::kBlockRead:
          state_ = State::kWaitData;
          break;
        case FlitType::kSingleWrite:
        case FlitType::kBlockWrite:
          state_ = State::kWaitGrant;
          break;
        case FlitType::kLock:
        case FlitType::kUnlock:
          state_ = State::kWaitAck;
          break;
        case FlitType::kMessage:
          throw std::logic_error("bridge cannot issue Message transactions");
      }
      break;
    }
    case State::kSendData: {
      const auto i = static_cast<std::size_t>(data_sent_);
      out.push_back(make_flit(FlitSubType::kData,
                              static_cast<std::uint8_t>(data_sent_),
                              static_cast<std::uint8_t>(cur_->words - 1),
                              cur_->data[i]));
      stats_.inc("bridge.data_flits_out");
      if (++data_sent_ == cur_->words) state_ = State::kWaitAck;
      break;
    }
    case State::kWaitGrant:
    case State::kWaitData:
    case State::kWaitAck:
      break;  // reply-driven
  }
}

void Pif2NocBridge::rx(const Flit& f) {
  if (!cur_.has_value()) {
    throw std::runtime_error("bridge reply with no transaction in flight: " +
                             f.to_string());
  }
  switch (f.subtype) {
    case FlitSubType::kAck:
      if (state_ == State::kWaitGrant) {
        state_ = State::kSendData;  // Fig. 4(a): grant received
      } else if (state_ == State::kWaitAck) {
        complete_current();
      } else {
        throw std::runtime_error("unexpected Ack in bridge state");
      }
      break;
    case FlitSubType::kData: {
      if (state_ != State::kWaitData) {
        throw std::runtime_error("unexpected Data flit in bridge state");
      }
      // Reorder buffer: out-of-order block-read flits land by SEQNUM.
      assert(f.seq_num < mem::kWordsPerLine);
      assert((rx_mask_ & (1u << f.seq_num)) == 0);
      reorder_[f.seq_num] = f.data;
      rx_mask_ |= 1u << f.seq_num;
      stats_.inc("bridge.data_flits_in");
      const int expected =
          cur_->type == FlitType::kBlockRead ? mem::kWordsPerLine : 1;
      if (rx_mask_ == (1u << expected) - 1) complete_current();
      break;
    }
    case FlitSubType::kNack:
      throw std::runtime_error("MPMMU nacked transaction: " + f.to_string());
    case FlitSubType::kAddress:
      throw std::runtime_error("bridge received Address flit: " +
                               f.to_string());
  }
}

void Pif2NocBridge::complete_current() {
  assert(cur_.has_value());
  assert(!completion_.has_value() &&
         "one completion per cycle (serial engine)");
  Completion c;
  c.id = cur_->id;
  c.purpose = cur_->purpose;
  c.data = reorder_;
  c.words = cur_->type == FlitType::kBlockRead     ? mem::kWordsPerLine
            : cur_->type == FlitType::kSingleRead ? 1
                                                   : 0;
  completion_ = c;
  cur_.reset();
  stats_.inc("bridge.completions");
}

}  // namespace medea::pe
