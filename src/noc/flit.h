#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/coord.h"
#include "sim/types.h"

/// \file flit.h
/// The MEDEA flit and the bit-exact three-level packet format of Fig. 5.
///
/// The paper stacks three protocol levels inside one 64-bit flit:
///
///   level 1 (network):     V(1) X(2) Y(2)            — used by switches
///   level 2 (bridge):      TYPE(3) SUBTYPE(2) SEQNUM(4)
///   level 3 (application): BURST(2) SRCID(8) DATA(32)
///
/// The paper's RTL uses a 4-bit SRCID (16 nodes, enough for the 4x4
/// evaluation fabric); this model widens SRCID to 8 bits so 8x8+ tori are
/// representable (§IV discusses scaling), which still leaves the 64-bit
/// flit with headroom.  Widths for X/Y grow with network size — 2 bits
/// per coordinate suffice for the paper's 4x4 folded torus.
///
/// The simulator carries a decoded struct for speed but provides
/// encode()/decode() so tests can guarantee the struct stays faithful to
/// the wire format (everything the model does is expressible in the RTL
/// encoding; simulation-only metadata such as inject timestamps is kept
/// outside the encoded fields).

namespace medea::noc {

/// Level-2 TYPE field (3 bits): the seven packet types of §II-D.
enum class FlitType : std::uint8_t {
  kSingleRead = 0,
  kSingleWrite = 1,
  kBlockRead = 2,
  kBlockWrite = 3,
  kLock = 4,
  kUnlock = 5,
  kMessage = 6,
};

/// Level-2 SUBTYPE field (2 bits).
/// For shared-memory transactions: Ack / Nack / Address / Data.
/// For message-passing flits the same encoding distinguishes requests
/// from generic data packets (paper §II-D): kMpRequest aliases kAddress,
/// kMpData aliases kData.
enum class FlitSubType : std::uint8_t {
  kAck = 0,
  kNack = 1,
  kAddress = 2,
  kData = 3,
};

inline constexpr FlitSubType kMpRequest = FlitSubType::kAddress;
inline constexpr FlitSubType kMpData = FlitSubType::kData;

const char* to_string(FlitType t);
const char* to_string(FlitSubType t);

/// Field widths of the wire format (Fig. 5).
struct FlitFormat {
  static constexpr int kValidBits = 1;
  static constexpr int kCoordBits = 2;   // per coordinate, 4x4 torus
  static constexpr int kTypeBits = 3;
  static constexpr int kSubTypeBits = 2;
  static constexpr int kSeqNumBits = 4;
  static constexpr int kBurstBits = 2;
  static constexpr int kSrcIdBits = 8;
  static constexpr int kDataBits = 32;
};

/// Maximum flits per logic packet, limited by the SEQNUM field width.
inline constexpr int kMaxPacketFlits = 1 << FlitFormat::kSeqNumBits;

/// Simulation-only flit uid layout for per-node allocation:
/// uid = (node << kFlitUidSeqBits) | seq, seq starting at 1.  Endpoint
/// uid draws depend only on the node's own injection history — never on
/// within-cycle tick order or shard interleaving — which keeps the
/// router's oldest-first uid tie-break bit-identical across kernels.
/// 20 sequence bits leave 12 node bits: up to 4096 nodes and ~1M flits
/// per node per run (noc::Fabric enforces both, in every build type).
inline constexpr std::uint32_t kFlitUidSeqBits = 20;
inline constexpr int kMaxFlitUidNodes = 1 << (32 - kFlitUidSeqBits);

/// One 64-bit flit, decoded.
struct Flit {
  // --- encoded fields (Fig. 5) ---
  bool valid = false;
  Coord dst{};                       // level-1 X, Y
  FlitType type = FlitType::kMessage;
  FlitSubType subtype = FlitSubType::kData;
  std::uint8_t seq_num = 0;          // 4 bits: offset within logic packet
  std::uint8_t burst_size = 0;       // 2 bits: flits in this logic packet - 1
  std::uint8_t src_id = 0;           // 8 bits: source node id
  std::uint32_t data = 0;            // 32-bit payload (address or data word)

  // --- simulation-only metadata (not on the wire) ---
  sim::Cycle inject_cycle = 0;       // when the flit entered the network
  std::uint32_t uid = 0;             // unique id for tracing/debug
  std::uint16_t hops = 0;            // link traversals so far
  std::uint16_t deflections = 0;     // unproductive hops so far

  std::string to_string() const;
};

/// Pack the wire-visible fields of a flit into a 64-bit word.
/// Coordinates wider than FlitFormat::kCoordBits bits require the wide
/// encoding (see encode_flit_wide); the default matches the paper's 4x4.
std::uint64_t encode_flit(const Flit& f,
                          int coord_bits = FlitFormat::kCoordBits);

/// Inverse of encode_flit.  Simulation metadata comes back zeroed.
Flit decode_flit(std::uint64_t word, int coord_bits = FlitFormat::kCoordBits);

/// Observer of flit-level network events, called synchronously from a
/// router's tick (both the deflection router and the buffered-XY
/// baseline fire it, so either fabric can be traced).  Used by the
/// workload trace recorder and by determinism tests; null (the default)
/// costs one pointer test per event.
///
/// on_inject fires when a flit leaves the local inject queue and enters
/// the switched fabric (its inject_cycle has just been stamped);
/// on_deliver fires when a flit is placed into the destination's eject
/// queue.  `node` is the linear node id of the router involved.
///
/// Hop-level lifecycle events (defaulted, so pre-existing observers stay
/// source-compatible):
///  * on_queue_enter fires the first cycle a flit is visible to a router
///    in its local inject queue (queue *leave* coincides with on_inject);
///  * on_hop fires when a router emits a flit on an output link —
///    `out_port` is the Dir as an int, `deflected` true when the port was
///    not productive toward the destination (always false on the XY
///    baseline).  The flit is observed post-update (hops/deflections
///    already counted for this traversal).
///
/// Hop-level events are gated on wants_lifecycle(): routers cache the
/// answer at set_observer() time and skip the per-hop virtual calls (and
/// the inject-queue scan) entirely for observers that keep the default,
/// so a measurement-only or recorder-only run pays exactly what it did
/// before these events existed.
class FlitObserver {
 public:
  virtual ~FlitObserver() = default;
  virtual void on_inject(sim::Cycle now, int node, const Flit& f) = 0;
  virtual void on_deliver(sim::Cycle now, int node, const Flit& f) = 0;

  virtual void on_queue_enter(sim::Cycle /*now*/, int /*node*/,
                              const Flit& /*f*/) {}
  virtual void on_hop(sim::Cycle /*now*/, int /*node*/, int /*out_port*/,
                      bool /*deflected*/, const Flit& /*f*/) {}

  /// Opt-in for the hop-level events above.  Checked once, when the
  /// observer is attached — not per event.
  virtual bool wants_lifecycle() const { return false; }
};

/// Fan-out observer: forwards every event to each added observer in add()
/// order, so recorder + measurement + tracer share one fabric hook.
/// add(nullptr) is a no-op; the tee reports
/// wants_lifecycle() when any member does (members that don't still
/// receive the hop-level calls — they inherit the no-op defaults).
class FlitObserverTee final : public FlitObserver {
 public:
  void add(FlitObserver* obs) {
    if (obs != nullptr) obs_.push_back(obs);
  }
  bool empty() const { return obs_.empty(); }

  void on_inject(sim::Cycle now, int node, const Flit& f) override {
    for (FlitObserver* o : obs_) o->on_inject(now, node, f);
  }
  void on_deliver(sim::Cycle now, int node, const Flit& f) override {
    for (FlitObserver* o : obs_) o->on_deliver(now, node, f);
  }
  void on_queue_enter(sim::Cycle now, int node, const Flit& f) override {
    for (FlitObserver* o : obs_) o->on_queue_enter(now, node, f);
  }
  void on_hop(sim::Cycle now, int node, int out_port, bool deflected,
              const Flit& f) override {
    for (FlitObserver* o : obs_) o->on_hop(now, node, out_port, deflected, f);
  }
  bool wants_lifecycle() const override {
    for (const FlitObserver* o : obs_) {
      if (o->wants_lifecycle()) return true;
    }
    return false;
  }

 private:
  std::vector<FlitObserver*> obs_;
};

}  // namespace medea::noc
