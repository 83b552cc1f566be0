#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "noc/fabric.h"
#include "sim/domain.h"
#include "workload/trace.h"

/// \file replay.h
/// Trace replay: re-inject a recorded flit trace into a bare NoC.
///
/// The replayer is the fast-forward mode of the workload engine: it
/// drives the cycle-accurate network with the exact injection schedule a
/// full-system run produced, without instantiating PEs, caches, the MPMMU
/// or any coroutine program.  Because both router models are pure
/// deterministic functions of their inputs (and recorded uids preserve
/// the deflection router's oldest-first tie-breaks), a replay reproduces
/// the recorded network behaviour bit-identically, at a fraction of the
/// full simulation cost — which is what makes replay-driven NoC/DSE
/// studies cheap.  The replayer runs against noc::Fabric, so the
/// deflection NoC (noc::Network) and the buffered-XY baseline
/// (noc::XyNetwork) both replay through the same machinery.
///
/// Traces carry the recording fabric's configuration; constructing a
/// replayer over a network whose kind or RouterConfig differs throws
/// unless `allow_config_mismatch` is set — replaying onto a different
/// NoC configuration is a legitimate what-if study, but it must be
/// explicit, never an accident (the delivered timing will differ from
/// the recording).
///
/// Mechanics: each recorded event (cycle T, src) is pushed into node
/// src's inject FIFO at cycle T-1 so it becomes visible — and, because
/// the network state matches the recording, is injected — at exactly
/// cycle T.  Injection and sinking are per-node components constructed
/// on the node's own scheduler (net.sched_of(node)), so a replay shards
/// exactly like synthetic traffic: each shard injects and drains its own
/// band of the trace, with an identical component set — and therefore
/// identical wake/dedup counters — however many shards run it.

namespace medea::workload {

struct ReplayResult {
  sim::Cycle cycles = 0;          ///< cycle at which the replay went idle
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_delivered = 0;
  sim::Cycle last_delivery_cycle = 0;
};

/// Re-injects a trace into `net` through per-node injectors and sinks,
/// each built on its node's shard.  Copies the trace's events; the Trace itself need not
/// outlive the replayer.  Throws std::runtime_error unless the network
/// geometry matches trace.meta, and — unless `allow_config_mismatch` —
/// unless the fabric kind and configuration match the recording.
class TraceReplayer {
 public:
  TraceReplayer(noc::Fabric& net, const Trace& trace,
                bool allow_config_mismatch = false);
  ~TraceReplayer();

  TraceReplayer(const TraceReplayer&) = delete;
  TraceReplayer& operator=(const TraceReplayer&) = delete;

  std::uint64_t injected() const;
  std::uint64_t delivered() const;
  sim::Cycle last_delivery_cycle() const;

 private:
  class Injector;
  class Sink;

  std::vector<std::unique_ptr<Injector>> injectors_;
  std::vector<std::unique_ptr<Sink>> sinks_;
};

/// Replay `trace` on `net`, running `dom` to completion and refreshing
/// the fabric's stats.  Throws if the geometry or fabric config
/// mismatches, or the cycle limit is hit.
ReplayResult run_replay(sim::SimDomain& dom, noc::Fabric& net,
                        const Trace& trace, sim::Cycle limit = 50'000'000,
                        bool allow_config_mismatch = false);

}  // namespace medea::workload
