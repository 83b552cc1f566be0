#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "noc/flit_tracer.h"
#include "noc/traffic.h"
#include "noc/xy_router.h"
#include "sim/domain.h"
#include "sim/stats.h"
#include "sim/telemetry.h"
#include "sim/types.h"
#include "workload/measure.h"
#include "workload/trace.h"

/// \file workload.h
/// The workload engine: one name-addressable interface over everything
/// the simulator can run.
///
/// The registry unifies the full-system applications, the synthetic NoC
/// patterns and trace-driven replay behind one factory keyed by name, so
/// the DSE sweeps, the benches and the CLI can run *any* scenario
/// uniformly (the BookSim-style pluggable-traffic idea, applied to the
/// whole workload axis):
///
///   jacobi | jacobi-sync | jacobi-sm    full-system Jacobi variants
///   reduction | reduction-sm            full-system all-reduce variants
///   alltoall                            full-system eMPI exchange
///   uniform | hotspot | transpose | neighbor | bitrev
///                                       NoC-only synthetic patterns
///   replay                              NoC-only trace replay
///
/// ## The run API
///
/// A run is described by a RunRequest: the machine configuration plus
/// *one* kind-specific parameter section (SyntheticParams / AppParams /
/// ReplayParams) and the measurement knobs.  Sections are optional —
/// leave them disengaged for defaults — but engaging a section the
/// workload cannot honor is a validation error, not a silent no-op:
/// passing replay knobs to `uniform` or an injection rate to `jacobi`
/// fails loudly (see validate_request()).
///
/// Every run returns a RunResult carrying, besides the classic cycle
/// count and headline metric, a MeasurementResult with per-flit latency
/// percentiles (p50/p99/p999) and offered-vs-accepted throughput —
/// collected through the FlitObserver hook, so apps, synthetic patterns
/// and replays on either fabric are all measured the same way.
/// Synthetic workloads additionally support phased warmup/measure/drain
/// runs (MeasurementParams::phased) and, via sweep_load() in
/// saturation.h, full offered-load saturation sweeps.
///
/// Any workload can still be recorded (record_workload() attaches a
/// TraceRecorder to the run's NoC) and the resulting trace replayed
/// through the `replay` workload or run_replay() directly.

namespace medea::workload {

/// What a workload fundamentally is — decides which RunRequest section
/// applies and which measurement modes are meaningful.
enum class WorkloadKind : std::uint8_t {
  kApp,        ///< full-system application (PEs + caches + MPMMU)
  kSynthetic,  ///< NoC-only rate-controlled traffic pattern
  kReplay,     ///< NoC-only trace replay
};

const char* to_string(WorkloadKind k);

/// Knobs for synthetic NoC traffic (WorkloadKind::kSynthetic).
struct SyntheticParams {
  double injection_rate = 0.1;   ///< offered load, flits/node/cycle
  noc::InjectionSpec process{};  ///< arrival process (Bernoulli/on-off)
  int flits_per_node = 1000;     ///< per-node budget (non-phased runs)
  int hotspot_node = 0;          ///< target of the hotspot pattern

  /// Fabric the pattern runs on: "deflection" (the paper's router) or
  /// "xy" (the buffered XY baseline).  With "xy" the run uses the
  /// xy_router config below and can be recorded and replayed just like
  /// a deflection run.
  std::string network = "deflection";
  noc::XyRouterConfig xy_router{};
  bool xy_torus_wrap = false;
};

/// Knobs for full-system applications (WorkloadKind::kApp).
struct AppParams {
  int size = -1;              ///< problem size (grid n / elems); -1 = default
  int iterations = 1;         ///< timed iterations / reduce rounds
  int warmup_iterations = 1;  ///< untimed warm-up iterations
};

/// Knobs for trace replay (WorkloadKind::kReplay).
struct ReplayParams {
  std::string trace_path;  ///< recorded trace to re-inject (required)
  /// Replay the trace even when the machine's RouterConfig does not
  /// match the recorded fabric (the CLI --force flag).  Without it a
  /// mismatch fails loudly — replaying onto a different NoC
  /// configuration must be explicit, never an accident.
  bool force_config = false;
};

/// Telemetry knobs (any workload kind): cycle-domain time-series
/// sampling of the run's stats into RunResult::timeline.
struct TelemetryParams {
  /// Snapshot every N simulated cycles.  0 = off — the run then pays
  /// nothing on the kernel hot path (see sim::CycleHook).
  sim::Cycle sample_every = 0;

  bool operator==(const TelemetryParams&) const = default;
};

/// Per-flit lifecycle tracing knobs (any workload kind): sampled hop
/// chains into RunResult::flit_trace.  Tracing is strictly read-only —
/// traced runs are bit-identical to untraced runs (the differential
/// tests assert it); off (the default) costs nothing on the hot path.
struct FlitTraceParams {
  /// Trace 1-in-N packets by uid hash.  0 = off, 1 = every packet.
  std::uint32_t sample_every = 0;
  /// Packets in the worst-packet forensics report and Perfetto flows.
  int worst_k = 8;

  bool operator==(const FlitTraceParams&) const = default;
};

/// Everything a run needs: the machine, one kind-specific section, and
/// the measurement setup.  Engage exactly the section your workload
/// kind uses (or none, for defaults); the others must stay nullopt.
struct RunRequest {
  core::MedeaConfig machine{};  ///< NoC size, cores, L1, arbiter, kernel...
  std::uint64_t seed = 1;
  bool verify = false;  ///< check against the host reference (apps)

  std::optional<SyntheticParams> synthetic;
  std::optional<AppParams> app;
  std::optional<ReplayParams> replay;

  MeasurementParams measurement{};
  TelemetryParams telemetry{};
  FlitTraceParams flit_trace{};
};

/// What a run produced.
struct RunResult {
  sim::Cycle cycles = 0;        ///< simulated cycles to completion
  double metric = 0.0;          ///< headline metric (see metric_name)
  std::string metric_name;      ///< e.g. "cycles_per_iteration"
  std::uint64_t flits_delivered = 0;  ///< NoC deliveries during the run
  bool verified_ok = true;      ///< false only when verification failed
  sim::StatSet stats;           ///< aggregate hardware statistics

  /// Latency percentiles and throughput (empty — latency.count == 0 —
  /// when measurement.collect was off).
  MeasurementResult measurement;

  /// Cycle-domain time series (empty when telemetry.sample_every was 0).
  /// Export via workload/timeline.h.
  telemetry::Timeline timeline;

  /// Sampled per-flit hop chains (disabled — flit_trace.enabled() false —
  /// when flit_trace.sample_every was 0).  Export via
  /// workload/flit_report.h.
  telemetry::FlitTrace flit_trace;
};

/// Per-run plumbing handed to Workload::run() by the engine.  Workloads
/// attach `observer` to their NoC: a FlitObserverTee over the
/// measurement controller, the caller's observer (e.g. a TraceRecorder)
/// and the flit tracer, or null when the run observes nothing.  Phased
/// synthetic runs drive `measure` directly.
struct RunContext {
  noc::FlitObserver* observer = nullptr;
  MeasurementController* measure = nullptr;  ///< non-null when measuring
  telemetry::Sampler* sampler = nullptr;     ///< non-null when sampling

  /// Registers the stats with the sampler and hooks it into the
  /// domain's cycle loop (which also adds the sched.* pressure series,
  /// summed across shards).  No-op — and free — when the request did
  /// not ask for sampling.  Prefer ScopedTelemetry below: the sampler
  /// outlives the workload's domain and fabric, so something must
  /// capture the final window and detach *before* they are destroyed.
  void attach_telemetry(sim::SimDomain& dom, const sim::StatSet& stats) const {
    if (sampler == nullptr) return;
    sampler->add_stats("", stats);
    sampler->attach(dom);
  }
};

/// RAII telemetry attachment for workload implementations: attaches the
/// run's sampler (if any) on construction and, when it leaves scope,
/// captures the final partial window at the domain's clock and
/// detaches — while the domain and StatSet it samples are still alive.
/// Declare one *after* the fabric whose stats it registers and before
/// running:
///
///   noc::Network net(dom, ...);
///   ScopedTelemetry telemetry(ctx, dom, net.stats());
///   ... run ...
class ScopedTelemetry {
 public:
  ScopedTelemetry(const RunContext& ctx, sim::SimDomain& dom,
                  const sim::StatSet& stats)
      : sampler_(ctx.sampler), dom_(dom) {
    ctx.attach_telemetry(dom, stats);
  }
  ~ScopedTelemetry() {
    if (sampler_ != nullptr) sampler_->finish(dom_.now());
  }

  /// Register a further StatSet under `prefix` (e.g. the MPMMU's and the
  /// per-core caches' stats for app workloads, so --timeline carries the
  /// memory system too).  No-op — and free — without sampling.
  void add(const std::string& prefix, const sim::StatSet& stats) {
    if (sampler_ != nullptr) sampler_->add_stats(prefix, stats);
  }

  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  telemetry::Sampler* sampler_;
  sim::SimDomain& dom_;
};

/// One runnable scenario.  run() builds a fresh simulator every call
/// and any internal state is behavior-free (e.g. the replay workload's
/// trace cache), so workloads are safe to run concurrently from sweep
/// worker threads.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual std::string description() const = 0;
  virtual WorkloadKind kind() const = 0;

  /// NoC-only workloads build just a Network (no PEs/MPMMU); core and
  /// cache knobs in the config are ignored.
  bool noc_only() const { return kind() != WorkloadKind::kApp; }

  /// {width, height} of the NoC a run will actually build.  Defaults to
  /// the machine torus; the replay workload answers from the trace
  /// header instead.  Recorders must be sized from this (a recorder
  /// sized for the wrong geometry would mis-linearize node ids and
  /// truncate coordinates).
  virtual std::pair<int, int> noc_dims(const RunRequest& req) const {
    return {req.machine.noc_width, req.machine.noc_height};
  }

  /// The fabric a run will actually build, for the v2 trace header.
  /// Defaults to the machine's deflection router; workloads that build
  /// something else (the XY baseline, replay from a header) override it
  /// so recordings stay self-describing.
  virtual TraceNetConfig net_config(const RunRequest& req) const {
    return TraceNetConfig::from(req.machine.router);
  }

  /// Run the workload.  Implementations attach ctx.observer() to the
  /// NoC; the engine owns request validation and measurement
  /// finalization, so prefer run_by_name()/run_workload() over calling
  /// this directly.
  virtual RunResult run(const RunRequest& req, RunContext& ctx) const = 0;
};

/// Engaging a RunRequest section the workload cannot honor throws
/// std::invalid_argument naming the offending knob (replay knobs on a
/// synthetic pattern, an injection rate on an app, phased measurement
/// on anything that is not rate-controlled synthetic traffic, a replay
/// without a trace path...).
void validate_request(const RunRequest& req, const Workload& w);

/// Name-keyed workload factory.  Built-ins self-register on first use;
/// add() extends it with custom scenarios at runtime.
class WorkloadRegistry {
 public:
  /// The process-wide registry (built-ins pre-registered).
  static WorkloadRegistry& instance();

  /// Register a workload; throws std::invalid_argument on duplicates.
  void add(std::unique_ptr<Workload> w);

  /// nullptr when unknown.
  const Workload* find(const std::string& name) const;

  /// Throws std::invalid_argument (listing known names) when unknown.
  const Workload& at(const std::string& name) const;

  /// All registered workloads, name-sorted.
  std::vector<const Workload*> list() const;

  /// All registered names, sorted (for error messages and --list).
  std::vector<std::string> names() const;

 private:
  WorkloadRegistry();
  std::map<std::string, std::unique_ptr<Workload>> by_name_;
};

/// Run `w` with a validated request: checks the request against the
/// workload kind, puts a MeasurementController next to `observer` when
/// measurement is on, runs, and finalizes the measurement into the
/// result.
RunResult run_workload(const Workload& w, const RunRequest& req,
                       noc::FlitObserver* observer = nullptr);

/// Run the registry workload `name` (throws on unknown names and
/// invalid requests).
RunResult run_by_name(const std::string& name, const RunRequest& req,
                      noc::FlitObserver* observer = nullptr);

/// Record workload `name` into a trace: run it once with a recorder on
/// the NoC, sized and described via the workload's noc_dims()/
/// net_config().  The header captures geometry, fabric config, seed and
/// cycle count.  `result` (optional) receives the run's RunResult —
/// including its measurement, since the recorder and the controller see
/// the same events.
Trace record_workload(const std::string& name, const RunRequest& req,
                      RunResult* result = nullptr);

}  // namespace medea::workload
