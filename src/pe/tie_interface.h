#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "noc/flit.h"
#include "noc/network.h"
#include "sim/ring.h"
#include "sim/stats.h"

/// \file tie_interface.h
/// The TIE message-passing port of a MEDEA core (paper §II-B, Fig. 2).
///
/// Paper mechanics reproduced:
///  * Sending a logic packet of L flits stamps a sequence number into
///    every flit plus an X-Y destination taken from a LUT, at a maximum
///    throughput of one flit per cycle.
///  * The receiver needs no sorting buffer: the sequence number of each
///    incoming flit is used directly as the store offset into a packet
///    landing area in processor local memory; a double-buffer technique
///    gives one-cycle reads.
///  * The BURST field tells the receiver how many flits belong to the
///    logic packet (2 bits => at most 4 payload words per logic packet;
///    longer messages are fragmented by the eMPI layer).
///
/// The paper leaves packet-level flow control implicit in the double
/// buffer.  We make it explicit and conservative: a sender holds
/// kCreditsPerPeer credits per destination; each consumed packet returns a
/// credit via a single Message/Ack flit.  The 4-bit SEQNUM field encodes
/// {landing slot (2 bits) | word offset (2 bits)}, so in-flight packets
/// never collide in the landing area.  (documented in DESIGN.md)

namespace medea::pe {

/// Payload words per logic packet, bounded by the 2-bit BURST field.
inline constexpr int kMaxMpPacketWords = 4;

/// Outstanding unconsumed packets allowed per (source, destination) pair —
/// the paper's double buffer.
inline constexpr int kCreditsPerPeer = 2;

class TieInterface {
 public:
  TieInterface(noc::Network& net, int self_id, sim::StatSet& stats);

  // ------------------------------------------------------------------
  // Send side
  // ------------------------------------------------------------------

  /// True when a logic packet may be sent to dst (credit available).
  bool can_send(int dst_id) const;

  /// Queue one logic packet (1..4 words) for transmission.  One flit
  /// leaves per cycle through tx_queue(); the caller (PE) reports each
  /// departure via on_tx_departure().
  void start_send(int dst_id, const std::uint32_t* words, int n);

  /// Output register toward the arbiter; the PE moves flits out of here.
  sim::Ring<noc::Flit>& tx_queue() { return tx_q_; }

  /// Flits of the current send still queued (send op completes at zero).
  int send_flits_pending() const { return send_pending_; }
  void on_tx_departure(const noc::Flit& f);

  // ------------------------------------------------------------------
  // Receive side
  // ------------------------------------------------------------------

  /// Feed one incoming Message flit (data or credit return).
  /// Returns true if this flit completed a logic packet.
  bool on_rx_flit(const noc::Flit& f);

  /// True when the next in-order logic packet from src has fully arrived.
  bool packet_ready(int src_id) const;

  /// Words of the next in-order packet from src (must be packet_ready).
  /// Consuming frees the landing slot and queues a credit-return flit.
  std::vector<std::uint32_t> consume_packet(int src_id);

  /// Any packet ready from any source? (used for recv-any semantics)
  int any_ready_source() const;

 private:
  struct Slot {
    int expected = 0;          // words in this packet (0 = unused)
    std::uint32_t mask = 0;    // per-word arrival bits
    std::array<std::uint32_t, kMaxMpPacketWords> words{};
    bool complete() const {
      return expected > 0 &&
             mask == (expected >= 32 ? ~0u : ((1u << expected) - 1));
    }
  };

  struct PeerRx {
    std::array<Slot, 4> slots{};  // landing area: 4 slots (seq bits 3:2)
    std::uint64_t next_consume = 0;  // in-order delivery pointer
  };

  noc::Flit make_flit(int dst_id, noc::FlitSubType sub, std::uint8_t seq,
                      std::uint8_t burst, std::uint32_t data) const;

  noc::Network& net_;
  int self_id_;
  sim::StatSet& stats_;

  sim::Ring<noc::Flit> tx_q_;
  int send_pending_ = 0;

  std::map<int, int> credits_;          // dst -> remaining credits
  std::map<int, std::uint64_t> tx_idx_; // dst -> next packet index
  std::map<int, PeerRx> rx_;            // src -> landing area
};

}  // namespace medea::pe
