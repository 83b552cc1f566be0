#include "pe/processing_element.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace medea::pe {

using mem::Addr;
using noc::Flit;
using noc::FlitType;

namespace {
/// Depth of the core's write buffer: fire-and-forget stores beyond this
/// stall the pipeline (this is what makes Write-Through traffic hurt).
constexpr std::size_t kWriteBufferDepth = 4;
/// Slots the write-buffer ring starts with: the buffered stores plus the
/// transactions of the one operation in flight (a fill and its cast-out,
/// a flush, a lock), which queue behind them without the depth check.
constexpr std::size_t kWriteBufferSlots = 2 * kWriteBufferDepth;
}  // namespace

ProcessingElement::ProcessingElement(sim::Scheduler& sched, noc::Network& net,
                                     int node_id, int rank, int mpmmu_node_id,
                                     const PeConfig& cfg,
                                     const mem::MemoryMap& map)
    : sim::Component(sched, "pe" + std::to_string(node_id)),
      net_(net),
      node_id_(node_id),
      rank_(rank),
      mpmmu_id_(mpmmu_node_id),
      cfg_(cfg),
      map_(map),
      cache_(cfg.cache),
      tie_(net, node_id, stats_),
      bridge_(net, node_id, mpmmu_node_id, cfg.bridge, stats_),
      arbiter_(cfg.arbiter, stats_),
      fire_forget_(kWriteBufferSlots) {
  net_.eject(node_id_).set_consumer(this);
  net_.inject(node_id_).set_producer(this);
}

std::uint32_t ProcessingElement::scratch_read_word(mem::Addr a) const {
  assert(map_.is_scratchpad(a));
  const std::size_t i = (a - map_.scratchpad_base()) / mem::kWordBytes;
  return i < scratch_.size() ? scratch_[i] : 0;
}

void ProcessingElement::scratch_write_word(mem::Addr a, std::uint32_t v) {
  assert(map_.is_scratchpad(a));
  const std::size_t i = (a - map_.scratchpad_base()) / mem::kWordBytes;
  if (i >= scratch_.size()) {
    // Grow to cover the write, at least doubling, never past the RAM.
    const std::size_t words = map_.scratchpad_size() / mem::kWordBytes;
    scratch_.resize(std::min(std::max(i + 1, 2 * scratch_.size()), words), 0);
  }
  scratch_[i] = v;
}

double ProcessingElement::scratch_read_double(mem::Addr a) const {
  return mem::make_double(scratch_read_word(a),
                          scratch_read_word(a + mem::kWordBytes));
}

void ProcessingElement::scratch_write_double(mem::Addr a, double v) {
  scratch_write_word(a, mem::double_lo(v));
  scratch_write_word(a + mem::kWordBytes, mem::double_hi(v));
}

std::optional<std::uint32_t> ProcessingElement::read_word_any(mem::Addr a) {
  if (map_.is_scratchpad(a)) return scratch_read_word(a);
  return cache_.read_word(a);
}

void ProcessingElement::write_scratch_or_fail(mem::Addr a, std::uint32_t v) {
  if (!map_.is_scratchpad(a)) {
    throw std::runtime_error(
        "mp_recv_block destination must be core-local memory (the paper's "
        "packet data segment, Fig. 2-b)");
  }
  scratch_write_word(a, v);
}

void ProcessingElement::set_program(sim::Task<> program) {
  assert(!program_armed_ && "one program per PE per run");
  program_ = std::move(program);
  program_.set_on_done(
      [](void* self) {
        static_cast<ProcessingElement*>(self)->program_finished_ = true;
      },
      this);
  program_armed_ = true;
  scheduler().wake_at(*this, scheduler().now() + 1);
}

bool ProcessingElement::drained() const {
  return phase_ == Phase::kNone && fire_forget_.empty() &&
         bridge_.drained() && tie_out_.empty() && bridge_out_.empty() &&
         !arbiter_.busy() && tie_.send_flits_pending() == 0;
}

bool ProcessingElement::is_cacheable(Addr a) const {
  if (map_.is_private(a)) return true;
  if (map_.is_shared(a)) return !cfg_.shared_uncached;
  throw std::runtime_error("access to unmapped address " + std::to_string(a) +
                           " by " + name());
}

// ---------------------------------------------------------------------
// Operation factories
// ---------------------------------------------------------------------

OpAwaiter ProcessingElement::compute(std::uint32_t cycles) {
  Op op;
  op.kind = Op::Kind::kCompute;
  op.cycles = cycles;
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::fp_block(int adds, int muls) {
  return compute(static_cast<std::uint32_t>(adds) * cfg_.fp.add_cycles +
                 static_cast<std::uint32_t>(muls) * cfg_.fp.mul_cycles);
}

OpAwaiter ProcessingElement::load(Addr a) {
  Op op;
  op.kind = Op::Kind::kLoad;
  op.addr = a;
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::store(Addr a, std::uint32_t v) {
  Op op;
  op.kind = Op::Kind::kStore;
  op.addr = a;
  op.value = v;
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::load_uncached(Addr a) {
  Op op;
  op.kind = Op::Kind::kLoadUncached;
  op.addr = a;
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::store_uncached(Addr a, std::uint32_t v) {
  Op op;
  op.kind = Op::Kind::kStoreUncached;
  op.addr = a;
  op.value = v;
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::load_double(Addr a) {
  assert(a % 8 == 0 && "doubles must be 8-byte aligned");
  Op op;
  op.kind = Op::Kind::kLoadDouble;
  op.addr = a;
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::store_double(Addr a, double v) {
  assert(a % 8 == 0 && "doubles must be 8-byte aligned");
  Op op;
  op.kind = Op::Kind::kStoreDouble;
  op.addr = a;
  op.value = (static_cast<std::uint64_t>(mem::double_hi(v)) << 32) |
             mem::double_lo(v);
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::flush_line(Addr a) {
  Op op;
  op.kind = Op::Kind::kFlushLine;
  op.addr = a;
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::invalidate_line(Addr a) {
  Op op;
  op.kind = Op::Kind::kInvalidateLine;
  op.addr = a;
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::lock(Addr a) {
  Op op;
  op.kind = Op::Kind::kLock;
  op.addr = a;
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::unlock(Addr a) {
  Op op;
  op.kind = Op::Kind::kUnlock;
  op.addr = a;
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::fence() {
  Op op;
  op.kind = Op::Kind::kFence;
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::mp_send(int dst_node,
                                     std::vector<std::uint32_t> w) {
  assert(!w.empty() && w.size() <= kMaxMpPacketWords);
  Op op;
  op.kind = Op::Kind::kMpSend;
  op.peer = dst_node;
  op.words = std::move(w);
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::mp_recv(int src_node) {
  Op op;
  op.kind = Op::Kind::kMpRecv;
  op.peer = src_node;
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::mp_send_block(int dst_node, mem::Addr src,
                                           int n_words) {
  assert(n_words >= 1);
  Op op;
  op.kind = Op::Kind::kMpSendBlock;
  op.peer = dst_node;
  op.addr = src;
  op.cycles = static_cast<std::uint32_t>(n_words);
  return {*this, std::move(op)};
}

OpAwaiter ProcessingElement::mp_recv_block(int src_node, mem::Addr dst,
                                           int n_words) {
  assert(n_words >= 1);
  Op op;
  op.kind = Op::Kind::kMpRecvBlock;
  op.peer = src_node;
  op.addr = dst;
  op.cycles = static_cast<std::uint32_t>(n_words);
  return {*this, std::move(op)};
}

// ---------------------------------------------------------------------
// Op engine
// ---------------------------------------------------------------------

void ProcessingElement::submit(Op op, std::coroutine_handle<> h) {
  assert(phase_ == Phase::kNone && !op_waiter_ &&
         "in-order core: one outstanding operation");
  cur_op_ = std::move(op);
  op_waiter_ = h;
  result_ = OpResult{};
  op_step_ = 0;
  start_op(scheduler().now());
}

void ProcessingElement::start_timer(sim::Cycle now, std::uint32_t cycles) {
  done_at_ = now + (cycles == 0 ? 1 : cycles);
  phase_ = Phase::kTimed;
}

void ProcessingElement::complete_op(sim::Cycle now) {
  (void)now;
  phase_ = Phase::kNone;
  stats_.inc("pe.ops_retired");
  auto h = op_waiter_;
  op_waiter_ = nullptr;
  h.resume();  // may re-enter submit()
}

void ProcessingElement::queue_fire_forget(Pif2NocBridge::Tx tx) {
  tx.id = next_tx_id_++;
  fire_forget_.push_back(std::move(tx));
}

void ProcessingElement::begin_fill(Addr line_addr) {
  Pif2NocBridge::Tx tx;
  tx.id = next_tx_id_++;
  tx.type = FlitType::kBlockRead;
  tx.addr = mem::line_align(line_addr);
  pending_fill_addr_ = tx.addr;
  tx.purpose = TxPurpose::kFill;
  waiting_tx_ = tx.id;
  phase_ = Phase::kAwaitTx;
  fire_forget_.push_back(std::move(tx));
  stats_.inc("pe.fills_requested");
}

/// Issue the fire-and-forget store words of the current WT/uncached store
/// op, or park in kAwaitQueueSpace when the write buffer is full.
void ProcessingElement::try_issue_stores(sim::Cycle now) {
  const int n =
      (cur_op_.kind == Op::Kind::kStoreDouble ||
       cur_op_.kind == Op::Kind::kStoreDoubleUncached)
          ? 2
          : 1;
  if (fire_forget_.size() + static_cast<std::size_t>(n) > kWriteBufferDepth) {
    phase_ = Phase::kAwaitQueueSpace;
    stats_.inc("pe.write_buffer_stalls");
    return;
  }
  for (int i = 0; i < n; ++i) {
    Pif2NocBridge::Tx tx;
    tx.type = FlitType::kSingleWrite;
    tx.addr = cur_op_.addr + static_cast<Addr>(i) * mem::kWordBytes;
    tx.data[0] = static_cast<std::uint32_t>(cur_op_.value >> (32 * i));
    tx.words = 1;
    tx.purpose = TxPurpose::kWriteThrough;
    queue_fire_forget(std::move(tx));
  }
  start_timer(now, static_cast<std::uint32_t>(n));
}

bool ProcessingElement::try_cache_access(sim::Cycle now) {
  switch (cur_op_.kind) {
    case Op::Kind::kLoad: {
      auto v = cache_.read_word(cur_op_.addr);
      if (!v) {
        begin_fill(cur_op_.addr);
        return false;
      }
      result_.value = *v;
      start_timer(now, 1);
      return true;
    }
    case Op::Kind::kLoadDouble: {
      auto lo = cache_.read_word(cur_op_.addr);
      if (!lo) {
        begin_fill(cur_op_.addr);
        return false;
      }
      auto hi = cache_.read_word(cur_op_.addr + mem::kWordBytes);
      assert(hi && "8-byte-aligned double lives in one 16-byte line");
      result_.value = (static_cast<std::uint64_t>(*hi) << 32) |
                      static_cast<std::uint64_t>(*lo);
      start_timer(now, 2);
      return true;
    }
    case Op::Kind::kStore: {
      const auto word = static_cast<std::uint32_t>(cur_op_.value);
      if (cfg_.cache.policy == mem::WritePolicy::kWriteBack) {
        if (!cache_.write_word(cur_op_.addr, word)) {
          begin_fill(cur_op_.addr);  // write-allocate
          return false;
        }
        start_timer(now, 1);
        return true;
      }
      // Write-through: update-on-hit, then the store goes to memory.
      if (op_step_ == 0) {
        cache_.write_word(cur_op_.addr, word);
        op_step_ = 1;
      }
      try_issue_stores(now);
      return phase_ == Phase::kTimed;
    }
    case Op::Kind::kStoreDouble: {
      const auto lo = static_cast<std::uint32_t>(cur_op_.value);
      const auto hi = static_cast<std::uint32_t>(cur_op_.value >> 32);
      if (cfg_.cache.policy == mem::WritePolicy::kWriteBack) {
        if (!cache_.write_word(cur_op_.addr, lo)) {
          begin_fill(cur_op_.addr);
          return false;
        }
        const bool ok = cache_.write_word(cur_op_.addr + mem::kWordBytes, hi);
        assert(ok);
        (void)ok;
        start_timer(now, 2);
        return true;
      }
      if (op_step_ == 0) {
        cache_.write_word(cur_op_.addr, lo);
        cache_.write_word(cur_op_.addr + mem::kWordBytes, hi);
        op_step_ = 1;
      }
      try_issue_stores(now);
      return phase_ == Phase::kTimed;
    }
    default:
      assert(false && "not a cacheable access");
      return false;
  }
}

void ProcessingElement::issue_uncached_read(Addr a) {
  Pif2NocBridge::Tx tx;
  tx.id = next_tx_id_++;
  tx.type = FlitType::kSingleRead;
  tx.addr = a;
  tx.purpose = TxPurpose::kLoadUncached;
  waiting_tx_ = tx.id;
  phase_ = Phase::kAwaitTx;
  fire_forget_.push_back(std::move(tx));
}

void ProcessingElement::start_op(sim::Cycle now) {
  stats_.inc("pe.ops_started");
  switch (cur_op_.kind) {
    case Op::Kind::kCompute:
      start_timer(now, cur_op_.cycles);
      break;

    case Op::Kind::kLoad:
    case Op::Kind::kLoadDouble:
    case Op::Kind::kStore:
    case Op::Kind::kStoreDouble:
      if (map_.is_scratchpad(cur_op_.addr)) {
        // Core-local data RAM: single-cycle per 32-bit word, no cache,
        // no NoC traffic.
        const mem::Addr a = cur_op_.addr;
        switch (cur_op_.kind) {
          case Op::Kind::kLoad:
            result_.value = scratch_read_word(a);
            start_timer(now, 1);
            break;
          case Op::Kind::kLoadDouble:
            result_.value =
                static_cast<std::uint64_t>(scratch_read_word(a)) |
                (static_cast<std::uint64_t>(
                     scratch_read_word(a + mem::kWordBytes))
                 << 32);
            start_timer(now, 2);
            break;
          case Op::Kind::kStore:
            scratch_write_word(a, static_cast<std::uint32_t>(cur_op_.value));
            start_timer(now, 1);
            break;
          default:
            scratch_write_word(a, static_cast<std::uint32_t>(cur_op_.value));
            scratch_write_word(a + mem::kWordBytes,
                               static_cast<std::uint32_t>(cur_op_.value >> 32));
            start_timer(now, 2);
            break;
        }
        stats_.inc("pe.scratch_accesses");
        break;
      }
      if (!is_cacheable(cur_op_.addr)) {
        // Redirect to the uncached path (paper §II-E: wide shared
        // segments are best accessed bypassing the cache entirely).
        switch (cur_op_.kind) {
          case Op::Kind::kLoad: cur_op_.kind = Op::Kind::kLoadUncached; break;
          case Op::Kind::kLoadDouble:
            cur_op_.kind = Op::Kind::kLoadDoubleUncached;
            break;
          case Op::Kind::kStore:
            cur_op_.kind = Op::Kind::kStoreUncached;
            break;
          default: cur_op_.kind = Op::Kind::kStoreDoubleUncached; break;
        }
        start_op(now);
        return;
      }
      stats_.inc(cur_op_.kind == Op::Kind::kLoad ||
                         cur_op_.kind == Op::Kind::kLoadDouble
                     ? "pe.loads"
                     : "pe.stores");
      try_cache_access(now);
      break;

    case Op::Kind::kLoadUncached:
    case Op::Kind::kLoadDoubleUncached:
      stats_.inc("pe.loads_uncached");
      issue_uncached_read(cur_op_.addr);
      break;

    case Op::Kind::kStoreUncached:
    case Op::Kind::kStoreDoubleUncached:
      stats_.inc("pe.stores_uncached");
      try_issue_stores(now);
      break;

    case Op::Kind::kFlushLine: {
      stats_.inc("pe.flushes");
      auto wb = cache_.flush_line(cur_op_.addr);
      if (wb.has_value()) {
        Pif2NocBridge::Tx tx;
        tx.id = next_tx_id_++;
        tx.type = FlitType::kBlockWrite;
        tx.addr = wb->line_addr;
        tx.data = wb->data;
        tx.words = mem::kWordsPerLine;
        tx.purpose = TxPurpose::kFlush;
        waiting_tx_ = tx.id;
        phase_ = Phase::kAwaitTx;  // program waits for the final Ack
        fire_forget_.push_back(std::move(tx));
      } else {
        start_timer(now, 1);
      }
      break;
    }

    case Op::Kind::kInvalidateLine:
      stats_.inc("pe.invalidates");
      cache_.invalidate_line(cur_op_.addr);
      start_timer(now, 1);
      break;

    case Op::Kind::kLock:
    case Op::Kind::kUnlock: {
      stats_.inc(cur_op_.kind == Op::Kind::kLock ? "pe.locks" : "pe.unlocks");
      Pif2NocBridge::Tx tx;
      tx.id = next_tx_id_++;
      tx.type = cur_op_.kind == Op::Kind::kLock ? FlitType::kLock
                                                : FlitType::kUnlock;
      tx.addr = cur_op_.addr;
      tx.purpose = cur_op_.kind == Op::Kind::kLock ? TxPurpose::kLock
                                                   : TxPurpose::kUnlock;
      waiting_tx_ = tx.id;
      phase_ = Phase::kAwaitTx;
      fire_forget_.push_back(std::move(tx));
      break;
    }

    case Op::Kind::kFence:
      stats_.inc("pe.fences");
      phase_ = Phase::kAwaitFence;
      break;

    case Op::Kind::kMpSend:
      stats_.inc("pe.mp_sends");
      if (tie_.can_send(cur_op_.peer)) {
        tie_.start_send(cur_op_.peer, cur_op_.words.data(),
                        static_cast<int>(cur_op_.words.size()));
        phase_ = Phase::kAwaitSendDrain;
      } else {
        phase_ = Phase::kAwaitCredit;
        stats_.inc("pe.mp_credit_stalls");
      }
      break;

    case Op::Kind::kMpRecv:
      stats_.inc("pe.mp_recvs");
      if (tie_.packet_ready(cur_op_.peer)) {
        result_.words = tie_.consume_packet(cur_op_.peer);
        start_timer(now, static_cast<std::uint32_t>(result_.words.size()));
      } else {
        phase_ = Phase::kAwaitPacket;
      }
      break;

    case Op::Kind::kMpSendBlock:
      stats_.inc("pe.mp_send_blocks");
      cur_op_.words.clear();
      advance_mp_send_block(now);
      break;

    case Op::Kind::kMpRecvBlock:
      stats_.inc("pe.mp_recv_blocks");
      phase_ = Phase::kAwaitPacket;
      advance_mp_recv_block(now);
      break;
  }
}

/// Drive the block send: stage up to 4 words from memory per packet, hand
/// each staged packet to the TIE port as credits allow.  Word reads are
/// pipelined with the one-flit-per-cycle port in the real hardware, so on
/// cache/scratchpad hits the flit stream itself is the only time cost; a
/// miss stalls the stream for a line fill like any other load.
void ProcessingElement::advance_mp_send_block(sim::Cycle now) {
  (void)now;  // staging is instantaneous; time is charged by the flit stream
  const int total = static_cast<int>(cur_op_.cycles);
  for (;;) {
    if (!cur_op_.words.empty()) {
      if (!tie_.can_send(cur_op_.peer)) {
        phase_ = Phase::kAwaitCredit;
        stats_.inc("pe.mp_credit_stalls");
        return;
      }
      tie_.start_send(cur_op_.peer, cur_op_.words.data(),
                      static_cast<int>(cur_op_.words.size()));
      cur_op_.words.clear();
    }
    if (op_step_ >= total) break;
    while (op_step_ < total &&
           cur_op_.words.size() < static_cast<std::size_t>(kMaxMpPacketWords)) {
      const mem::Addr a =
          cur_op_.addr + static_cast<mem::Addr>(op_step_) * mem::kWordBytes;
      auto v = read_word_any(a);
      if (!v.has_value()) {
        begin_fill(a);  // resume from on_bridge_completion
        return;
      }
      cur_op_.words.push_back(*v);
      ++op_step_;
    }
  }
  phase_ = Phase::kAwaitSendDrain;
}

/// Drive the block receive: every complete in-order packet stores its
/// words directly into local memory by sequence-number offset, one word
/// per cycle (Fig. 2-b) — software never copies.
void ProcessingElement::advance_mp_recv_block(sim::Cycle now) {
  const int total = static_cast<int>(cur_op_.cycles);
  int burst = 0;
  while (op_step_ < total && tie_.packet_ready(cur_op_.peer)) {
    const auto words = tie_.consume_packet(cur_op_.peer);
    for (std::uint32_t w : words) {
      write_scratch_or_fail(
          cur_op_.addr + static_cast<mem::Addr>(op_step_) * mem::kWordBytes, w);
      ++op_step_;
    }
    burst += static_cast<int>(words.size());
  }
  if (burst > 0) {
    // One cycle per landed word; if more packets are still due, kTimed
    // expiry falls through to kAwaitPacket (see progress_op).
    start_timer(now, static_cast<std::uint32_t>(burst));
  }
  // else stay in kAwaitPacket; arrival wakes us via the eject FIFO.
}

void ProcessingElement::on_bridge_completion(
    const Pif2NocBridge::Completion& c, sim::Cycle now) {
  switch (c.purpose) {
    case TxPurpose::kWriteback:
    case TxPurpose::kWriteThrough:
      return;  // fire-and-forget
    case TxPurpose::kFill: {
      assert(phase_ == Phase::kAwaitTx && waiting_tx_ == c.id);
      mem::LineData line = c.data;
      const Addr line_addr = pending_fill_addr_;  // set by begin_fill
      auto wb = cache_.fill_line(line_addr, line);
      if (wb.has_value()) {
        Pif2NocBridge::Tx tx;
        tx.type = FlitType::kBlockWrite;
        tx.addr = wb->line_addr;
        tx.data = wb->data;
        tx.words = mem::kWordsPerLine;
        tx.purpose = TxPurpose::kWriteback;
        queue_fire_forget(std::move(tx));  // cast-out, no waiter
      }
      waiting_tx_ = 0;
      // Complete the access that missed, stat-free (the miss was already
      // counted; a retry through read_word/write_word would inflate hits).
      const Addr a = cur_op_.addr;
      switch (cur_op_.kind) {
        case Op::Kind::kLoad:
          result_.value = cache_.peek_word(a);
          start_timer(now, 1);
          break;
        case Op::Kind::kLoadDouble:
          result_.value =
              static_cast<std::uint64_t>(cache_.peek_word(a)) |
              (static_cast<std::uint64_t>(cache_.peek_word(a + mem::kWordBytes))
               << 32);
          start_timer(now, 2);
          break;
        case Op::Kind::kStore:
          cache_.poke_word(a, static_cast<std::uint32_t>(cur_op_.value),
                           /*mark_dirty=*/true);
          start_timer(now, 1);
          break;
        case Op::Kind::kStoreDouble:
          cache_.poke_word(a, static_cast<std::uint32_t>(cur_op_.value),
                           /*mark_dirty=*/true);
          cache_.poke_word(a + mem::kWordBytes,
                           static_cast<std::uint32_t>(cur_op_.value >> 32),
                           /*mark_dirty=*/true);
          start_timer(now, 2);
          break;
        case Op::Kind::kMpSendBlock:
          // The streamed block hit a cold line; continue staging from
          // where the scan stopped.
          phase_ = Phase::kNone;
          advance_mp_send_block(now);
          break;
        default:
          assert(false && "fill completion for a non-cacheable op");
      }
      return;
    }
    case TxPurpose::kLoadUncached: {
      assert(phase_ == Phase::kAwaitTx && waiting_tx_ == c.id);
      if (cur_op_.kind == Op::Kind::kLoadDoubleUncached && op_step_ == 0) {
        result_.value = c.data[0];
        op_step_ = 1;
        issue_uncached_read(cur_op_.addr + mem::kWordBytes);
        return;
      }
      if (cur_op_.kind == Op::Kind::kLoadDoubleUncached) {
        result_.value |= static_cast<std::uint64_t>(c.data[0]) << 32;
      } else {
        result_.value = c.data[0];
      }
      waiting_tx_ = 0;
      complete_op(now);
      return;
    }
    case TxPurpose::kFlush:
    case TxPurpose::kLock:
    case TxPurpose::kUnlock:
      assert(phase_ == Phase::kAwaitTx && waiting_tx_ == c.id);
      waiting_tx_ = 0;
      complete_op(now);
      return;
  }
}

void ProcessingElement::progress_op(sim::Cycle now) {
  switch (phase_) {
    case Phase::kNone:
    case Phase::kAwaitTx:
      return;
    case Phase::kTimed:
      if (now >= done_at_) {
        if (cur_op_.kind == Op::Kind::kMpRecvBlock &&
            op_step_ < static_cast<int>(cur_op_.cycles)) {
          phase_ = Phase::kAwaitPacket;  // more packets still due
          advance_mp_recv_block(now);
        } else {
          complete_op(now);
        }
      }
      return;
    case Phase::kAwaitQueueSpace:
      try_issue_stores(now);
      return;
    case Phase::kAwaitCredit:
      if (cur_op_.kind == Op::Kind::kMpSendBlock) {
        if (tie_.can_send(cur_op_.peer)) advance_mp_send_block(now);
      } else if (tie_.can_send(cur_op_.peer)) {
        tie_.start_send(cur_op_.peer, cur_op_.words.data(),
                        static_cast<int>(cur_op_.words.size()));
        phase_ = Phase::kAwaitSendDrain;
      }
      return;
    case Phase::kAwaitSendDrain:
      if (tie_.send_flits_pending() == 0) complete_op(now);
      return;
    case Phase::kAwaitPacket:
      if (cur_op_.kind == Op::Kind::kMpRecvBlock) {
        advance_mp_recv_block(now);
      } else if (tie_.packet_ready(cur_op_.peer)) {
        result_.words = tie_.consume_packet(cur_op_.peer);
        start_timer(now, static_cast<std::uint32_t>(result_.words.size()));
      }
      return;
    case Phase::kAwaitFence:
      if (bridge_.drained() && fire_forget_.empty() && bridge_out_.empty()) {
        complete_op(now);
      }
      return;
  }
}

void ProcessingElement::drain_eject(sim::Cycle now) {
  (void)now;
  auto& ej = net_.eject(node_id_);
  while (!ej.empty()) {
    const Flit f = ej.pop();
    if (f.type == FlitType::kMessage) {
      tie_.on_rx_flit(f);
    } else {
      bridge_.rx(f);
    }
  }
}

void ProcessingElement::tick(sim::Cycle now) {
  if (program_armed_ && !program_started_) {
    program_started_ = true;
    program_.start();  // runs until the first co_await submits an op
    program_.rethrow_if_error();
  }

  drain_eject(now);
  if (auto c = bridge_.take_completion()) on_bridge_completion(*c, now);
  progress_op(now);
  if (program_started_) program_.rethrow_if_error();

  // Feed queued transactions to the bridge, oldest first.
  while (!fire_forget_.empty() && bridge_.can_enqueue()) {
    bridge_.enqueue(fire_forget_.front());
    fire_forget_.pop_front();
  }
  bridge_.step_tx(bridge_out_);

  // TIE port: one flit per cycle into its output register.
  if (tie_out_.empty() && !tie_.tx_queue().empty()) {
    tie_out_.push_back(tie_.tx_queue().front());
    tie_.tx_queue().pop_front();
    tie_.on_tx_departure(tie_out_.back());
  }

  arbiter_.step(net_.inject(node_id_), tie_out_, bridge_out_);

  // ---- wake management ----
  const bool engines_busy = !fire_forget_.empty() || bridge_.busy_streaming() ||
                            !tie_.tx_queue().empty() || !tie_out_.empty() ||
                            !bridge_out_.empty() || arbiter_.busy();
  // kAwaitCredit is deliberately absent: credits arrive as flits and the
  // eject FIFO wakes us, so polling would only burn kernel cycles.
  const bool op_polling = phase_ == Phase::kAwaitSendDrain ||
                          phase_ == Phase::kAwaitFence ||
                          phase_ == Phase::kAwaitQueueSpace;
  if (phase_ == Phase::kTimed && done_at_ > now) {
    scheduler().wake_at(*this, done_at_);
  }
  if (engines_busy || op_polling ||
      (phase_ == Phase::kTimed && done_at_ <= now)) {
    wake();
  }
  // kAwaitTx / kAwaitPacket resolve via incoming flits, which wake us
  // through the eject FIFO's consumer hook.
}

}  // namespace medea::pe
