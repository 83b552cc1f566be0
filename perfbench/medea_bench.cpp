/// MEDEA end-to-end benchmark: the paper's workflows run as closed-loop
/// batches of simulation jobs and timed from outside the simulator.
///
/// Every layer is measured only through its public interface: the
/// benchmark times its own calls into core::MedeaSystem construction,
/// apps::run_jacobi, noc::Network and traffic-endpoint construction,
/// sim::SimDomain::run, dse::run_sweep, sim::Scheduler::run and
/// mem::Cache, and reads the public counters those layers keep.  With
/// --trace=1 the same calls are wrapped in telemetry::ProfileScope spans
/// (category = layer), which become a Perfetto trace and a per-layer
/// self-time ledger.
///
/// Usage (perfbench/run.py builds the program and drives it):
///   medea_bench --workload=NAME --seed=N --seconds=S --trace=0|1
///               [--smoke] [--out-prefix=PATH]
///
/// The last line of standard output is one JSON object holding the
/// end-to-end metrics, the per-layer metrics (traced runs), the
/// simulated counters of one pass, and the simulated outputs that run.py
/// checks against the golden values.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "apps/jacobi.h"
#include "core/system.h"
#include "dse/sweep.h"
#include "mem/cache.h"
#include "noc/network.h"
#include "noc/traffic.h"
#include "sim/domain.h"
#include "sim/frame_pool.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/telemetry.h"
#include "workload/timeline.h"

using namespace medea;

namespace {

using Clock = std::chrono::steady_clock;
using Counts = std::map<std::string, double>;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median (the mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Host time of a repeated measurement on a shared host, where
/// interference only ever adds time and comes in bursts: the median,
/// over consecutive groups of five repeats, of each group's minimum (the
/// minimum of all repeats when there are fewer than five).
double robust_ms(const std::vector<double>& repeats) {
  constexpr std::size_t kGroup = 5;
  if (repeats.empty()) return 0.0;
  if (repeats.size() < kGroup) {
    return *std::min_element(repeats.begin(), repeats.end());
  }
  std::vector<double> minima;
  for (std::size_t i = 0; i + kGroup <= repeats.size(); i += kGroup) {
    const auto group = repeats.begin() + static_cast<std::ptrdiff_t>(i);
    minima.push_back(*std::min_element(group, group + kGroup));
  }
  return median(minima);
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::string out_prefix;  ///< traced runs: <prefix>.{perfetto,ledger}.json
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "medea_bench: %s\n"
               "usage: medea_bench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 [--smoke] [--out-prefix=PATH]\n",
               msg.c_str());
  std::exit(2);
}

/// Whole-string non-negative decimal integer, or a named error.
std::uint64_t parse_count(const std::string& flag, const std::string& v) {
  const bool digits = std::all_of(v.begin(), v.end(),
                                  [](char c) { return c >= '0' && c <= '9'; });
  if (v.empty() || v.size() > 18 || !digits) {
    usage_error(flag + " expects a non-negative integer, got '" + v + "'");
  }
  return std::stoull(v);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (a == "--smoke") {
      o.smoke = true;
    } else if (eq == std::string::npos) {
      usage_error("unknown or valueless flag '" + a + "'");
    } else if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = parse_count(key, val);
      have_seed = true;
    } else if (key == "--seconds") {
      o.seconds = static_cast<double>(parse_count(key, val));
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage_error("--trace expects 0 or 1");
      o.trace = val == "1";
    } else if (key == "--out-prefix") {
      o.out_prefix = val;
    } else {
      usage_error("unknown flag '" + key + "'");
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  if (!have_seed) usage_error("--seed is required");
  if (!have_seconds) usage_error("--seconds is required");
  return o;
}

// ---------------------------------------------------------------------
// Jobs: one simulation each, constructed, run, read and torn down
// ---------------------------------------------------------------------

/// One Jacobi run on a 4x4-torus design point.
struct AppJob {
  int cores = 0;
  std::uint32_t kb = 0;
  mem::WritePolicy policy = mem::WritePolicy::kWriteBack;
  apps::JacobiVariant variant = apps::JacobiVariant::kHybridMp;
  int n = 60;
  bool verify = true;

  core::MedeaConfig config() const {
    return dse::make_design_config(cores, kb, policy);
  }
  /// The paper's point label, e.g. "8P_16k$_WB" (as run_sweep's).
  std::string label() const { return config().label(); }
};

/// One uniform-random batch on a deflection torus (single shard).  50
/// flits per node keep a job near 1.7 s, so a run repeats it about a
/// dozen times (at 200 a run held two or three jobs and its time moved
/// 41% between runs).
struct NocJob {
  int width = 60;
  int height = 60;
  int flits_per_node = 50;
  double rate = 0.30;

  std::string label() const {
    return "torus" + std::to_string(width) + "x" + std::to_string(height);
  }
};

using Job = std::variant<AppJob, NocJob>;

std::string label_of(const Job& j) {
  return std::visit([](const auto& x) { return x.label(); }, j);
}

struct JobOutcome {
  /// Host ms to construct, simulate, read counters and destroy, in slices
  /// that line up across repeats of the job: one slice for an app job;
  /// for a NoC job the set-up, each kSliceCycles of simulated time, and
  /// the teardown.
  std::vector<double> slice_ms;
  std::uint64_t cycles = 0;
  double node_cycles = 0.0;
  double cycles_per_iteration = 0.0;  ///< app jobs only
  Counts counts;                      ///< deterministic simulated counters
};

/// Records delivered-flit latency (simulated cycles) in traced passes.
class LatencyObserver final : public noc::FlitObserver {
 public:
  void on_inject(sim::Cycle, int, const noc::Flit&) override {}
  void on_deliver(sim::Cycle now, int, const noc::Flit& f) override {
    hist.record(now - f.inject_cycle);
  }
  sim::LatencyHistogram hist;
};

template <typename Kernel>
void add_kernel_counts(Counts& c, const Kernel& k) {
  c["sched.wake_requests"] += static_cast<double>(k.wake_requests());
  c["sched.wakes_deduped"] += static_cast<double>(k.wakes_deduped());
  c["sched.active_cycles"] += static_cast<double>(k.active_cycles());
  c["sched.commit_pushes"] += static_cast<double>(k.commit_pushes());
  c["sched.overflow_pushes"] += static_cast<double>(k.overflow_pushes());
}

void add_noc_counts(Counts& c, const sim::StatSet& st) {
  for (const char* k : {"noc.flits_injected", "noc.flits_delivered",
                        "noc.deflections_total", "noc.livelock_suspects"}) {
    c[k] += static_cast<double>(st.get(k));
  }
  c["noc.flit_hops"] += st.acc("noc.hops").sum();
}

JobOutcome run_app(const AppJob& j, LatencyObserver* obs) {
  using telemetry::ProfileScope;
  JobOutcome out;
  const auto t0 = Clock::now();
  std::optional<core::MedeaSystem> sys;
  {
    ProfileScope s("MedeaSystem", "core");
    sys.emplace(j.config());
  }
  if (obs != nullptr) sys->network().set_observer(obs);
  apps::JacobiParams p;
  p.n = j.n;
  p.warmup_iterations = 1;
  p.timed_iterations = 1;
  p.variant = j.variant;
  p.verify = j.verify;
  apps::JacobiResult r;
  {
    ProfileScope s("run_jacobi", "apps");
    r = apps::run_jacobi(*sys, p);
  }
  sim::StatSet st;
  {
    ProfileScope s("aggregate_stats", "core");
    st = sys->aggregate_stats();
  }
  Counts& c = out.counts;
  add_kernel_counts(c, sys->scheduler());
  add_noc_counts(c, st);
  for (const char* k :
       {"pe.ops_retired", "pe.mp_sends", "pe.mp_credit_stalls",
        "tie.packets_sent", "arb.stall_cycles", "bridge.transactions",
        "mpmmu.requests_in", "mpmmu.transactions", "mpmmu.reply_flits_out"}) {
    c[k] += static_cast<double>(st.get(k));
  }
  // L1s only: aggregate_stats() also folds the MPMMU's cache into cache.*.
  for (int rank = 0; rank < sys->num_cores(); ++rank) {
    const sim::StatSet& l1 = sys->core(rank).cache().stats();
    for (const char* k : {"read_hits", "read_misses", "write_misses",
                          "writebacks", "evictions"}) {
      c[std::string("l1.") + k] +=
          static_cast<double>(l1.get(std::string("cache.") + k));
    }
  }
  const bool verify_failed = j.verify && r.max_abs_error != 0.0;
  c["apps.verify_failures"] += verify_failed ? 1.0 : 0.0;
  c["sim.cycles"] += static_cast<double>(r.total_cycles);
  {
    ProfileScope s("~MedeaSystem", "core");
    sys.reset();
  }
  out.slice_ms = {ms_since(t0)};
  out.cycles = r.total_cycles;
  out.node_cycles = 16.0 * static_cast<double>(r.total_cycles);
  out.cycles_per_iteration = r.cycles_per_iteration;
  if (verify_failed) {
    throw std::runtime_error(j.label() + ": Jacobi result differs from the " +
                             "host reference");
  }
  if (c["noc.flits_delivered"] != c["noc.flits_injected"]) {
    throw std::runtime_error(j.label() + ": flits delivered != injected");
  }
  return out;
}

/// NoC jobs run in slices of this many simulated cycles, so repeats of
/// one job can be compared slice by slice (11 slices at 60x60).
constexpr sim::Cycle kSliceCycles = 64;
constexpr sim::Cycle kMaxNocCycles = 50'000'000;  // as noc::run_traffic

/// noc::run_traffic's steps, with SimDomain::run advanced in slices.
JobOutcome run_noc(const NocJob& j, std::uint64_t seed,
                   LatencyObserver* obs) {
  using telemetry::ProfileScope;
  using Endpoint = noc::TrafficEndpoint<noc::Network>;
  JobOutcome out;
  const auto t0 = Clock::now();
  std::optional<sim::SimDomain> dom;
  std::optional<noc::Network> net;
  std::vector<std::unique_ptr<Endpoint>> eps;
  {
    ProfileScope s("SimDomain", "sim");
    dom.emplace(sim::SchedulerConfig{}, j.height);
  }
  {
    ProfileScope s("Network", "noc");
    net.emplace(*dom, noc::TorusGeometry(j.width, j.height),
                noc::RouterConfig{}, seed);
  }
  if (obs != nullptr) net->set_observer(obs);
  noc::TrafficConfig tc;
  tc.pattern = noc::TrafficPattern::kUniformRandom;
  tc.injection_rate = j.rate;
  tc.flits_per_node = j.flits_per_node;
  tc.seed = seed;
  {
    ProfileScope s("TrafficEndpoint", "noc");
    for (int i = 0; i < net->num_nodes(); ++i) {
      eps.push_back(std::make_unique<Endpoint>(net->sched_of(i), *net, i, tc));
    }
  }
  out.slice_ms.push_back(ms_since(t0));
  bool drained = false;
  {
    ProfileScope s("SimDomain::run", "sim");
    for (sim::Cycle limit = kSliceCycles; !drained && limit <= kMaxNocCycles;
         limit += kSliceCycles) {
      const auto s0 = Clock::now();
      drained = dom->run(limit);
      out.slice_ms.push_back(ms_since(s0));
    }
  }
  const auto t1 = Clock::now();
  net->refresh_stats();
  double received = 0.0;
  for (const auto& e : eps) received += e->received();
  Counts& c = out.counts;
  add_kernel_counts(c, *dom);
  add_noc_counts(c, net->stats());
  out.cycles = dom->now();
  out.node_cycles =
      static_cast<double>(net->num_nodes()) * static_cast<double>(out.cycles);
  c["sim.cycles"] += static_cast<double>(out.cycles);
  {
    ProfileScope s("~Network", "noc");
    eps.clear();
    net.reset();
    dom.reset();
  }
  out.slice_ms.push_back(ms_since(t1));
  if (!drained) throw std::runtime_error(j.label() + ": run did not drain");
  if (c["noc.flits_delivered"] != c["noc.flits_injected"] ||
      received != c["noc.flits_delivered"]) {
    throw std::runtime_error(j.label() + ": flits delivered != injected");
  }
  return out;
}

JobOutcome run_job(const Job& j, std::uint64_t seed, LatencyObserver* obs) {
  if (const auto* a = std::get_if<AppJob>(&j)) return run_app(*a, obs);
  return run_noc(std::get<NocJob>(j), seed, obs);
}

/// Host ms to build and tear down the job's machine alone.
double construct_ms(const Job& j, std::uint64_t seed) {
  const auto t0 = Clock::now();
  if (const auto* a = std::get_if<AppJob>(&j)) {
    core::MedeaSystem sys(a->config());
  } else {
    const auto& nj = std::get<NocJob>(j);
    sim::SimDomain dom(sim::SchedulerConfig{}, nj.height);
    noc::Network net(dom, noc::TorusGeometry(nj.width, nj.height),
                     noc::RouterConfig{}, seed);
  }
  return ms_since(t0);
}

/// setup_s: the robust time of repeated rounds, each constructing every
/// machine one pass of the workload builds (at least three rounds, and
/// more until 0.5 s has been spent; one round in smoke runs).
double measure_setup_s(const std::vector<Job>& machines, std::uint64_t seed,
                       bool smoke) {
  const std::size_t min_rounds = smoke ? 1 : 3;
  const double budget_ms = smoke ? 0.0 : 500.0;
  std::vector<double> rounds;
  const auto t0 = Clock::now();
  while (rounds.size() < min_rounds || ms_since(t0) < budget_ms) {
    double round_ms = 0.0;
    for (const Job& j : machines) round_ms += construct_ms(j, seed);
    rounds.push_back(round_ms);
  }
  return robust_ms(rounds) / 1e3;
}

// ---------------------------------------------------------------------
// Kernel-only and cache-only probes (traced runs)
// ---------------------------------------------------------------------

/// A component that re-wakes itself every cycle for a fixed count.
class Spinner final : public sim::Component {
 public:
  Spinner(sim::Scheduler& sched, int cycles)
      : sim::Component(sched, "spin"), left_(cycles) {
    sched.wake_at(*this, 1);
  }
  void tick(sim::Cycle) override {
    if (--left_ > 0) wake();
  }

 private:
  int left_;
};

/// Host ns per dispatched wake of `n` trivial components under
/// Scheduler::run (median of `reps` repetitions).
double probe_ns_per_wake(int n, int cycles, int reps) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    sim::Scheduler sched;
    std::vector<std::unique_ptr<Spinner>> comps;
    for (int i = 0; i < n; ++i) {
      comps.push_back(std::make_unique<Spinner>(sched, cycles));
    }
    const auto t0 = Clock::now();
    {
      telemetry::ProfileScope s("Scheduler::run n" + std::to_string(n), "sim");
      sched.run();
    }
    const double wakes =
        static_cast<double>(sched.wake_requests() - sched.wakes_deduped());
    ns.push_back(ratio(ms_since(t0) * 1e6, wakes));
  }
  return median(ns);
}

/// Host ns per mem::Cache access replaying the Jacobi stencil stream of
/// a 60x60 double grid (4 neighbour loads and 1 store per point, two
/// 32-bit words each, 4 sweeps) on a 16 kB L1 (median of `reps`).
double probe_ns_per_access(mem::WritePolicy policy, int reps) {
  constexpr int n = 60;
  constexpr mem::Addr kGridBytes = n * n * 8;
  const auto at = [](mem::Addr base, int i, int j) {
    return base + static_cast<mem::Addr>(i * n + j) * 8;
  };
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    mem::Cache cache(mem::CacheConfig{16 * 1024, mem::kLineBytes, 2, policy});
    double accesses = 0.0;
    std::uint32_t sink = 0;
    const auto read = [&](mem::Addr a) {
      ++accesses;
      if (auto v = cache.read_word(a)) {
        sink += *v;
      } else {
        cache.fill_line(mem::line_align(a), mem::LineData{});
        sink += cache.peek_word(a);
      }
    };
    const auto write = [&](mem::Addr a, std::uint32_t v) {
      ++accesses;
      if (!cache.write_word(a, v)) {
        cache.fill_line(mem::line_align(a), mem::LineData{});
        cache.poke_word(a, v, true);
      }
    };
    const auto t0 = Clock::now();
    {
      telemetry::ProfileScope s(
          std::string("Cache ") + mem::to_string(policy), "mem");
      for (int it = 0; it < 4; ++it) {
        const mem::Addr src = 0x1000 + (it % 2) * kGridBytes;
        const mem::Addr dst = 0x1000 + ((it + 1) % 2) * kGridBytes;
        for (int i = 1; i < n - 1; ++i) {
          for (int j = 1; j < n - 1; ++j) {
            for (const mem::Addr a : {at(src, i - 1, j), at(src, i + 1, j),
                                      at(src, i, j - 1), at(src, i, j + 1)}) {
              read(a);
              read(a + 4);
            }
            write(at(dst, i, j), sink);
            write(at(dst, i, j) + 4, static_cast<std::uint32_t>(it));
          }
        }
      }
    }
    ns.push_back(ratio(ms_since(t0) * 1e6, accesses));
  }
  return median(ns);
}

struct Probes {
  double ns_per_wake_n64 = 0.0;
  double ns_per_wake_n6600 = 0.0;
  double ns_per_access_wb = 0.0;
  double ns_per_access_wt = 0.0;
};

/// 64 components are the 4x4 machine's scale; 6600 are about the
/// components a 60x60 torus dispatches per cycle.  Each wake probe
/// dispatches about 1.3M wakes.
Probes run_probes(bool smoke) {
  const int reps = smoke ? 1 : 5;
  Probes p;
  p.ns_per_wake_n64 = probe_ns_per_wake(64, smoke ? 100 : 20000, reps);
  p.ns_per_wake_n6600 = probe_ns_per_wake(6600, smoke ? 2 : 200, reps);
  p.ns_per_access_wb =
      probe_ns_per_access(mem::WritePolicy::kWriteBack, smoke ? 1 : 15);
  p.ns_per_access_wt =
      probe_ns_per_access(mem::WritePolicy::kWriteThrough, smoke ? 1 : 15);
  return p;
}

// ---------------------------------------------------------------------
// Traced runs: span self time and the per-layer ledger
// ---------------------------------------------------------------------

/// Self time of every span in ms: its duration minus the durations of
/// its direct children on the same thread.
std::vector<double> self_ms(const std::vector<telemetry::HostSpan>& spans) {
  std::vector<std::size_t> idx(spans.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = spans[a];
    const auto& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<double> self(spans.size());
  std::vector<std::size_t> open;  // enclosing spans, innermost last
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const auto& s = spans[idx[k]];
    if (k > 0 && spans[idx[k - 1]].tid != s.tid) open.clear();
    while (!open.empty() &&
           spans[open.back()].start_us + spans[open.back()].dur_us <=
               s.start_us) {
      open.pop_back();
    }
    const double dur = static_cast<double>(s.dur_us) / 1e3;
    self[idx[k]] += dur;
    if (!open.empty()) self[open.back()] -= dur;
    open.push_back(idx[k]);
  }
  for (double& v : self) v = std::max(v, 0.0);
  return self;
}

struct SpanTable {
  std::vector<telemetry::HostSpan> spans;
  std::vector<double> self;

  /// Self times (ms) of the spans with this category and name.
  std::vector<double> of(const std::string& cat,
                         const std::string& name) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].category == cat && spans[i].name == name) {
        v.push_back(self[i]);
      }
    }
    return v;
  }
  double total(const std::string& cat, const std::string& name) const {
    const auto v = of(cat, name);
    return std::accumulate(v.begin(), v.end(), 0.0);
  }
};

void start_tracing() {
  auto& prof = telemetry::HostProfiler::instance();
  prof.clear();
  prof.set_enabled(true);
}

SpanTable stop_tracing() {
  auto& prof = telemetry::HostProfiler::instance();
  prof.set_enabled(false);
  SpanTable t;
  t.spans = prof.spans();
  t.self = self_ms(t.spans);
  prof.clear();
  return t;
}

/// The layer a span category names (run_sweep's own per-point spans
/// carry the category "sweep").
std::string layer_of(const std::string& category) {
  return category == "sweep" ? "dse" : category;
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  Counts counts;               ///< simulated counters of one pass
  double sim_cycles = 0.0;     ///< simulated cycles of one pass
  std::string outputs = "{}";  ///< simulated outputs (golden check)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  SpanTable trace;  ///< traced runs: every span

  void fail(const std::string& why, std::uint64_t jobs = 1) {
    failed += jobs;
    if (errors.size() < 20) errors.push_back(why);
  }
};

/// Inputs to the per-layer metrics besides the spans.
struct LayerInputs {
  Counts counts;             ///< one pass
  double traced_passes = 1;  ///< passes the traced simulate spans cover
  double frame_hits = 0.0;
  double frame_misses = 0.0;
  double latency_p99 = 0.0;
  double busy_frac = 0.0;  ///< dse.*: dse_sweep16 only
  double point_ms_max = 0.0;
  double thread_imbalance = 0.0;
  double tail_s = 0.0;
  double trace_overhead_frac = 0.0;
};

/// Every per-layer metric.  Host-time splits divide the traced simulate
/// calls' self time (run_jacobi, SimDomain::run) by one pass's counts; a
/// layer the workload never calls into reads 0.
void add_layer_metrics(Report& rep, const LayerInputs& in,
                       const SpanTable& t, const Probes& pr) {
  const auto get = [&in](const char* k) {
    const auto it = in.counts.find(k);
    return it == in.counts.end() ? 0.0 : it->second;
  };
  const auto med = [&t](const char* cat, const char* name) {
    return median(t.of(cat, name));
  };
  const auto add = [&rep](const char* name, double value, const char* unit) {
    rep.layer.push_back({name, value, unit});
  };
  const double requests = get("sched.wake_requests");
  const double deduped = get("sched.wakes_deduped");
  const double wakes = requests - deduped;
  const double active = get("sched.active_cycles");
  const double cycles = get("sim.cycles");
  const double hops = get("noc.flit_hops");
  const double ops = get("pe.ops_retired");
  const double l1_misses = get("l1.read_misses");
  const double simulate_ns =
      (t.total("apps", "run_jacobi") + t.total("sim", "SimDomain::run")) *
      1e6 / in.traced_passes;
  const double frames = in.frame_hits + in.frame_misses;

  add("sim.wakes", wakes, "count");
  add("sim.wake_dedup_ratio", ratio(deduped, requests), "ratio");
  add("sim.active_cycles", active, "cycles");
  add("sim.idle_skip_ratio", cycles > 0 ? 1.0 - active / cycles : 0.0,
      "ratio");
  add("sim.ns_per_wake", ratio(simulate_ns, wakes), "ns");
  add("sim.commit_pushes", get("sched.commit_pushes"), "count");
  add("sim.overflow_pushes", get("sched.overflow_pushes"), "count");
  add("sim.frame_pool_misses", in.frame_misses, "count");
  add("sim.frame_pool_hit_rate", ratio(in.frame_hits, frames), "ratio");
  add("sim.probe_ns_per_wake.n64", pr.ns_per_wake_n64, "ns");
  add("sim.probe_ns_per_wake.n6600", pr.ns_per_wake_n6600, "ns");
  add("noc.construct_ms", med("noc", "Network"), "ms");
  add("noc.flit_hops", hops, "count");
  add("noc.deflections_per_flit",
      ratio(get("noc.deflections_total"), get("noc.flits_delivered")),
      "ratio");
  add("noc.ns_per_flit_hop", ratio(simulate_ns, hops), "ns");
  add("noc.latency_p99_cycles", in.latency_p99, "cycles");
  add("noc.livelock_suspects", get("noc.livelock_suspects"), "count");
  add("pe.ops_retired", ops, "count");
  add("pe.ns_per_op", ratio(simulate_ns, ops), "ns");
  add("pe.mp_sends", get("pe.mp_sends"), "count");
  add("pe.mp_credit_stalls", get("pe.mp_credit_stalls"), "count");
  add("pe.tie_packets_sent", get("tie.packets_sent"), "count");
  add("pe.arb_stall_cycles", get("arb.stall_cycles"), "cycles");
  add("pe.bridge_transactions", get("bridge.transactions"), "count");
  add("mem.l1_read_miss_rate",
      ratio(l1_misses, l1_misses + get("l1.read_hits")), "ratio");
  add("mem.l1_write_misses", get("l1.write_misses"), "count");
  add("mem.l1_writebacks", get("l1.writebacks"), "count");
  add("mem.l1_evictions", get("l1.evictions"), "count");
  add("mem.probe_ns_per_access.wb", pr.ns_per_access_wb, "ns");
  add("mem.probe_ns_per_access.wt", pr.ns_per_access_wt, "ns");
  add("mpmmu.requests_in", get("mpmmu.requests_in"), "count");
  add("mpmmu.transactions", get("mpmmu.transactions"), "count");
  add("mpmmu.reply_flits_out", get("mpmmu.reply_flits_out"), "count");
  add("core.construct_ms", med("core", "MedeaSystem"), "ms");
  add("core.aggregate_stats_ms", med("core", "aggregate_stats"), "ms");
  add("apps.run_ms", med("apps", "run_jacobi"), "ms");
  add("apps.verify_failures", get("apps.verify_failures"), "count");
  add("dse.busy_frac", in.busy_frac, "ratio");
  add("dse.point_ms_max", in.point_ms_max, "ms");
  add("dse.thread_imbalance", in.thread_imbalance, "ratio");
  add("dse.tail_s", in.tail_s, "s");
  add("workload.trace_overhead_frac", in.trace_overhead_frac, "ratio");
  add("workload.sim_cycles", rep.sim_cycles, "cycles");
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      o += '\\';
      o += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += ch;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string o = "{";
  for (const Metric& m : ms) {
    if (o.size() > 1) o += ",";
    o += json_str(m.name) + ":{\"value\":" + json_num(m.value) +
         ",\"unit\":" + json_str(m.unit) + "}";
  }
  return o + "}";
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string o = "{";
  for (const auto& [k, v] : m) {
    if (o.size() > 1) o += ",";
    o += json_str(k) + ":" + json_num(v);
  }
  return o + "}";
}

/// The self-time ledger: per layer, the summed self time and span count
/// of every traced span, followed by every per-layer metric.
std::string ledger_json(const Options& opt, const Report& rep) {
  std::map<std::string, double> self, count;
  for (std::size_t i = 0; i < rep.trace.spans.size(); ++i) {
    const std::string layer = layer_of(rep.trace.spans[i].category);
    self[layer] += rep.trace.self[i];
    count[layer] += 1.0;
  }
  std::string layers = "{";
  for (const auto& [layer, ms] : self) {
    if (layers.size() > 1) layers += ",";
    layers += json_str(layer) + ":{\"self_ms\":" + json_num(ms) +
              ",\"spans\":" + json_num(count[layer]) + "}";
  }
  return "{\"schema\":\"medea-layer-ledger-v1\",\"workload\":" +
         json_str(opt.workload) +
         ",\"seed\":" + std::to_string(opt.seed) + ",\"layers\":" + layers +
         "},\"metrics\":" + json_metrics(rep.layer) + "}\n";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

/// This process image's peak resident set (VmHWM).  getrusage's
/// ru_maxrss is not used: it keeps the launching process's peak across
/// exec, which would hide a small workload behind its launcher.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ---------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------

/// Slice times of every repeat of each job, by design point.
using JobTimes = std::map<std::string, std::vector<std::vector<double>>>;

/// A design point's job time: each slice's robust time over the point's
/// repeats, summed.  Repeats of a job simulate the same cycles, so their
/// slices line up.
double point_ms(const std::vector<std::vector<double>>& repeats) {
  double total = 0.0;
  for (std::size_t k = 0; k < repeats.front().size(); ++k) {
    std::vector<double> slice;
    for (const auto& r : repeats) slice.push_back(r.at(k));
    total += robust_ms(slice);
  }
  return total;
}

/// Mean over the workload's design points of each point's job time.
double mean_job_ms(const JobTimes& jobs) {
  double total = 0.0;
  for (const auto& [label, repeats] : jobs) total += point_ms(repeats);
  return ratio(total, static_cast<double>(jobs.size()));
}

void merge_into(JobTimes& all, const JobTimes& more) {
  for (const auto& [label, repeats] : more) {
    auto& dst = all[label];
    dst.insert(dst.end(), repeats.begin(), repeats.end());
  }
}

/// wall_s is one pass (one sweep, or every job of the workload once);
/// node_mcyc_per_s divides one pass's simulated node-cycles by it.
void add_timing_metrics(Report& rep, double wall_ms, const JobTimes& jobs,
                        double node_cycles_per_pass) {
  rep.e2e.push_back({"wall_s", wall_ms / 1e3, "s"});
  rep.e2e.push_back({"job_ms", mean_job_ms(jobs), "ms"});
  rep.e2e.push_back({"node_mcyc_per_s",
                     ratio(node_cycles_per_pass, wall_ms * 1e3), "Mcyc/s"});
}

/// Loop budget: the whole --seconds untraced; in a traced run half goes
/// to the untraced loop and half to the traced one.  Smoke runs do one
/// pass of each.
double loop_budget_s(const Options& opt) {
  if (opt.smoke) return 0.0;
  return opt.trace ? opt.seconds / 2 : opt.seconds;
}

/// Runs passes until the budget is spent, never starting one the last
/// pass's duration says would overrun it (always at least one).
template <typename PassFn>
void time_boxed(double budget_s, PassFn&& pass) {
  const auto t0 = Clock::now();
  double last_ms = 0.0;
  do {
    const auto p0 = Clock::now();
    pass();
    last_ms = ms_since(p0);
  } while (ms_since(t0) + last_ms <= budget_s * 1e3);
}

// ---------------------------------------------------------------------
// Job-list workloads: jacobi_mp_wb, jacobi_sm_wt, noc_torus60_uniform
// ---------------------------------------------------------------------

class JobListRun {
 public:
  JobListRun(const Options& opt, std::vector<Job> jobs, Report& rep)
      : opt_(opt), jobs_(std::move(jobs)), rep_(rep) {}

  void run(bool warmup) {
    rep_.e2e.push_back(
        {"setup_s", measure_setup_s(jobs_, opt_.seed, opt_.smoke), "s"});
    if (warmup) (void)pass(nullptr);

    LayerInputs in;
    JobTimes untraced;
    double node_cycles = 0.0;
    time_boxed(loop_budget_s(opt_), [&] {
      const Pass p = pass(nullptr);
      merge_into(untraced, p.job_ms);
      node_cycles = p.node_cycles;
      in.frame_hits += p.frame_hits;
      in.frame_misses += p.frame_misses;
    });
    // A pass runs every design point once.
    double pass_ms = 0.0;
    for (const auto& [label, repeats] : untraced) pass_ms += point_ms(repeats);
    add_timing_metrics(rep_, pass_ms, untraced, node_cycles);
    rep_.counts = reference_;
    rep_.sim_cycles = reference_["sim.cycles"];
    if (!opt_.trace) return;

    start_tracing();
    JobTimes traced;
    std::vector<double> p99;
    time_boxed(loop_budget_s(opt_), [&] {
      LatencyObserver obs;
      merge_into(traced, pass(&obs).job_ms);
      p99.push_back(static_cast<double>(obs.hist.p99()));
      in.traced_passes = static_cast<double>(p99.size());
    });
    const Probes probes = run_probes(opt_.smoke);
    rep_.trace = stop_tracing();

    in.counts = reference_;
    in.latency_p99 = median(p99);
    in.trace_overhead_frac =
        ratio(mean_job_ms(traced), mean_job_ms(untraced)) - 1.0;
    add_layer_metrics(rep_, in, rep_.trace, probes);
  }

  /// {"total_cycles": {job label: simulated cycles}}
  std::string outputs() const {
    std::map<std::string, double> m;
    for (const auto& [label, c] : cycles_) m[label] = static_cast<double>(c);
    return "{\"total_cycles\":" + json_map(m) + "}";
  }

 private:
  struct Pass {
    JobTimes job_ms;
    double node_cycles = 0.0;
    double frame_hits = 0.0;
    double frame_misses = 0.0;
  };

  /// One pass: every job once, in a fixed order (a varying order made
  /// the heap's high-water mark, and so peak_rss_mb, differ by 8%).
  Pass pass(LatencyObserver* obs) {
    Pass p;
    Counts counts;
    bool ok = true;
    const sim::FramePool::Stats fp0 = sim::FramePool::tls().stats();
    for (const Job& j : jobs_) {
      const std::string label = label_of(j);
      ++rep_.attempted;
      try {
        telemetry::ProfileScope s(
            "job " + std::to_string(rep_.attempted) + " " + label,
            "workload");
        const JobOutcome o = run_job(j, opt_.seed, obs);
        const auto [it, fresh] = cycles_.emplace(label, o.cycles);
        if (!fresh && it->second != o.cycles) {
          throw std::runtime_error(label + ": simulated cycles changed " +
                                   "between runs of the same job");
        }
        p.job_ms[label].push_back(o.slice_ms);
        p.node_cycles += o.node_cycles;
        for (const auto& [key, v] : o.counts) counts[key] += v;
      } catch (const std::exception& e) {
        ok = false;
        rep_.fail(e.what());
      }
    }
    const sim::FramePool::Stats fp1 = sim::FramePool::tls().stats();
    p.frame_hits = static_cast<double>(fp1.hits - fp0.hits);
    p.frame_misses = static_cast<double>(fp1.misses - fp0.misses);
    // Every pass simulates the same jobs, traced or not, so its counters
    // must repeat exactly.
    if (ok && reference_.empty()) {
      reference_ = counts;
    } else if (ok && counts != reference_) {
      rep_.fail("simulated counters differ between passes of the same jobs");
    }
    return p;
  }

  const Options& opt_;
  std::vector<Job> jobs_;
  Report& rep_;
  std::map<std::string, std::uint64_t> cycles_;
  Counts reference_;
};

// ---------------------------------------------------------------------
// dse_sweep16: the paper's 168-point DSE through dse::run_sweep
// ---------------------------------------------------------------------

class SweepRun {
 public:
  /// The paper's 16x16 data size keeps a sweep near 2 s, so a run
  /// repeats it about ten times (a 60x60 sweep takes 17-27 s, one per
  /// run, and its makespan moved 42% between runs).
  SweepRun(const Options& opt, Report& rep) : opt_(opt), rep_(rep) {
    spec_.n = 16;
    if (opt.smoke) {
      spec_.cores = {2, 8};
      spec_.cache_kb = {16};
    }
    spec_.warmup_iterations = 1;
    spec_.timed_iterations = 1;
    const int cpus = static_cast<int>(std::thread::hardware_concurrency());
    spec_.threads = std::clamp(cpus, 1, 4);
    for (int c : spec_.cores) {
      for (auto kb : spec_.cache_kb) {
        for (auto pol : spec_.policies) {
          AppJob j;
          j.cores = c;
          j.kb = kb;
          j.policy = pol;
          j.n = spec_.n;
          j.verify = false;  // as run_sweep runs its points
          points_.push_back(j);
        }
      }
    }
  }

  void run() {
    const std::vector<Job> machines(points_.begin(), points_.end());
    rep_.e2e.push_back(
        {"setup_s", measure_setup_s(machines, opt_.seed, opt_.smoke), "s"});

    std::vector<double> wall_ms, busy_frac, point_ms_max;
    JobTimes point_ms;
    LayerInputs in;
    time_boxed(loop_budget_s(opt_), [&] {
      const double ms = sweep(nullptr);
      if (ms < 0) return;
      wall_ms.push_back(ms);
      double busy = 0.0, slowest = 0.0;
      for (const auto& p : last_) {
        point_ms[p.label].push_back({p.host_ms});
        busy += p.host_ms;
        slowest = std::max(slowest, p.host_ms);
      }
      busy_frac.push_back(ratio(busy, spec_.threads * ms));
      point_ms_max.push_back(slowest);
    });
    in.busy_frac = median(busy_frac);
    in.point_ms_max = median(point_ms_max);
    const double wall = robust_ms(wall_ms);
    // The figure's cycles: each point's cycles per timed iteration.
    add_timing_metrics(rep_, wall, point_ms, 16.0 * sum_cpi_);
    rep_.sim_cycles = sum_cpi_;
    rep_.counts = {{"dse.points", static_cast<double>(points_.size())},
                   {"dse.sum_cycles_per_iteration", sum_cpi_}};
    if (!opt_.trace) return;

    start_tracing();
    const double traced_ms = sweep("dse::run_sweep");
    in.counts = counts_pass(&in);
    const Probes probes = run_probes(opt_.smoke);
    rep_.trace = stop_tracing();

    thread_balance(rep_.trace, &in);
    in.trace_overhead_frac = ratio(traced_ms, wall) - 1.0;
    add_layer_metrics(rep_, in, rep_.trace, probes);
  }

  /// {"cycles_per_iteration": {point label: cycles}}
  std::string outputs() const {
    return "{\"cycles_per_iteration\":" + json_map(cpi_) + "}";
  }

 private:
  /// One whole sweep; returns its host ms (< 0 when it failed).  Every
  /// sweep must reproduce the first one's cycles exactly.
  double sweep(const char* span) {
    rep_.attempted += points_.size();
    try {
      const auto t0 = Clock::now();
      {
        std::optional<telemetry::ProfileScope> s;
        if (span != nullptr) s.emplace(span, "workload");
        last_ = dse::run_sweep(spec_);
      }
      const double ms = ms_since(t0);
      std::map<std::string, double> cpi;
      double sum = 0.0;
      for (const auto& p : last_) {
        cpi[p.label] = p.cycles_per_iteration;
        sum += p.cycles_per_iteration;
      }
      if (cpi_.empty()) {
        cpi_ = cpi;
        sum_cpi_ = sum;
      } else if (cpi != cpi_) {
        rep_.fail("sweep cycles changed between sweeps", points_.size());
        return -1.0;
      }
      return ms;
    } catch (const std::exception& e) {
      rep_.fail(std::string("run_sweep: ") + e.what(), points_.size());
      return -1.0;
    }
  }

  /// The sweep hides each point's machine, so the layer counters come
  /// from running the same points directly (MedeaSystem + run_jacobi) on
  /// the same number of threads; each must reproduce the sweep's cycles.
  Counts counts_pass(LayerInputs* in) {
    const auto threads = static_cast<std::size_t>(spec_.threads);
    std::atomic<std::size_t> next{0};
    std::vector<Counts> per_point(points_.size());
    std::vector<std::string> errors(points_.size());
    std::vector<sim::LatencyHistogram> hist(threads);
    std::vector<double> hits(threads), misses(threads);
    const auto worker = [&](std::size_t t) {
      const sim::FramePool::Stats fp0 = sim::FramePool::tls().stats();
      for (std::size_t i = next++; i < points_.size(); i = next++) {
        const AppJob& j = points_[i];
        try {
          telemetry::ProfileScope s("job " + j.label(), "workload");
          LatencyObserver obs;
          const JobOutcome o = run_app(j, &obs);
          hist[t].merge(obs.hist);
          per_point[i] = o.counts;
          const auto it = cpi_.find(j.label());
          if (it == cpi_.end() || it->second != o.cycles_per_iteration) {
            errors[i] = j.label() + ": direct run differs from the sweep";
          }
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      }
      const sim::FramePool::Stats fp1 = sim::FramePool::tls().stats();
      hits[t] = static_cast<double>(fp1.hits - fp0.hits);
      misses[t] = static_cast<double>(fp1.misses - fp0.misses);
    };
    {
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
      for (auto& th : pool) th.join();
    }
    rep_.attempted += points_.size();
    Counts total;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (!errors[i].empty()) rep_.fail(errors[i]);
      for (const auto& [k, v] : per_point[i]) total[k] += v;
    }
    sim::LatencyHistogram all;
    for (std::size_t t = 0; t < threads; ++t) {
      all.merge(hist[t]);
      in->frame_hits += hits[t];
      in->frame_misses += misses[t];
    }
    in->latency_p99 = static_cast<double>(all.p99());
    return total;
  }

  /// Per-worker busy time and finish time of the traced sweep's point
  /// spans: imbalance is max/mean busy, the tail is the time from the
  /// first worker finishing to the last.
  static void thread_balance(const SpanTable& t, LayerInputs* in) {
    std::map<std::uint32_t, std::pair<double, std::uint64_t>> per_tid;
    for (const auto& s : t.spans) {
      if (s.category != "sweep") continue;
      auto& [busy, end] = per_tid[s.tid];
      busy += static_cast<double>(s.dur_us);
      end = std::max(end, s.start_us + s.dur_us);
    }
    if (per_tid.empty()) return;
    double max_busy = 0.0, sum_busy = 0.0;
    std::uint64_t first_end = UINT64_MAX, last_end = 0;
    for (const auto& [tid, v] : per_tid) {
      max_busy = std::max(max_busy, v.first);
      sum_busy += v.first;
      first_end = std::min(first_end, v.second);
      last_end = std::max(last_end, v.second);
    }
    in->thread_imbalance =
        ratio(max_busy, sum_busy / static_cast<double>(per_tid.size()));
    in->tail_s = static_cast<double>(last_end - first_end) / 1e6;
  }

  const Options& opt_;
  Report& rep_;
  dse::SweepSpec spec_;
  std::vector<AppJob> points_;
  std::vector<dse::SweepPoint> last_;
  std::map<std::string, double> cpi_;
  double sum_cpi_ = 0.0;
};

// ---------------------------------------------------------------------
// Workload table
// ---------------------------------------------------------------------

std::vector<Job> job_list(const Options& opt) {
  const int n = opt.smoke ? 30 : 60;
  const auto app = [n](int cores, std::uint32_t kb, mem::WritePolicy pol,
                       apps::JacobiVariant v) {
    AppJob j;
    j.cores = cores;
    j.kb = kb;
    j.policy = pol;
    j.variant = v;
    j.n = n;
    return Job{j};
  };
  using apps::JacobiVariant;
  using mem::WritePolicy;
  if (opt.workload == "jacobi_mp_wb") {
    return {app(2, 2, WritePolicy::kWriteBack, JacobiVariant::kHybridMp),
            app(8, 16, WritePolicy::kWriteBack, JacobiVariant::kHybridMp),
            app(15, 64, WritePolicy::kWriteBack, JacobiVariant::kHybridMp)};
  }
  if (opt.workload == "jacobi_sm_wt") {
    return {app(8, 16, WritePolicy::kWriteThrough,
                JacobiVariant::kPureSharedMemory)};
  }
  if (opt.workload == "noc_torus60_uniform") {
    NocJob j;
    if (opt.smoke) {
      j.width = 8;
      j.height = 8;
      j.flits_per_node = 20;
    }
    return {j};
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  Report rep;
  int width = 4, height = 4;
  try {
    if (opt.workload == "dse_sweep16") {
      SweepRun run(opt, rep);
      run.run();
      rep.outputs = run.outputs();
    } else {
      std::vector<Job> jobs = job_list(opt);
      if (jobs.empty()) usage_error("unknown workload '" + opt.workload + "'");
      if (const auto* nj = std::get_if<NocJob>(&jobs.front())) {
        width = nj->width;
        height = nj->height;
      }
      const bool warmup = std::holds_alternative<AppJob>(jobs.front());
      JobListRun run(opt, std::move(jobs), rep);
      run.run(warmup);
      rep.outputs = run.outputs();
    }
    rep.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    if (opt.trace && !opt.out_prefix.empty()) {
      workload::TimelineMeta meta;
      meta.workload = opt.workload;
      meta.seed = opt.seed;
      meta.noc_width = width;
      meta.noc_height = height;
      write_file(opt.out_prefix + ".perfetto.json",
                 workload::format_chrome_trace(telemetry::Timeline{}, meta,
                                               rep.trace.spans));
      write_file(opt.out_prefix + ".ledger.json", ledger_json(opt, rep));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "medea_bench: %s\n", e.what());
    return 1;
  }
  std::string errors = "[";
  for (const auto& e : rep.errors) {
    if (errors.size() > 1) errors += ",";
    errors += json_str(e);
  }
  errors += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"smoke\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"errors\":%s,\"sim_cycles\":%s,"
      "\"e2e\":%s,\"layer\":%s,\"counts\":%s,\"outputs\":%s}\n",
      json_str(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      opt.smoke ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), errors.c_str(),
      json_num(rep.sim_cycles).c_str(), json_metrics(rep.e2e).c_str(),
      json_metrics(rep.layer).c_str(), json_map(rep.counts).c_str(),
      rep.outputs.c_str());
  return 0;
}
