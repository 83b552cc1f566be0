#include "dse/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <tuple>

#include "apps/jacobi.h"
#include "core/system.h"
#include "dse/area.h"
#include "sim/telemetry.h"

namespace medea::dse {

core::MedeaConfig make_design_config(int cores, std::uint32_t cache_kb,
                                     mem::WritePolicy policy) {
  core::MedeaConfig cfg;
  cfg.noc_width = 4;
  cfg.noc_height = 4;
  cfg.num_compute_cores = cores;
  cfg.mpmmu_node = 0;
  cfg.l1.size_bytes = cache_kb * 1024;
  cfg.l1.policy = policy;
  return cfg;
}

SweepPoint run_design_point(const SweepSpec& spec, int cores,
                            std::uint32_t cache_kb, mem::WritePolicy policy) {
  const core::MedeaConfig cfg = make_design_config(cores, cache_kb, policy);
  SweepPoint pt;
  pt.cores = cores;
  pt.cache_kb = cache_kb;
  pt.policy = policy;
  pt.label = cfg.label();
  pt.area_mm2 = AreaModel{}.chip_area_mm2(cfg);

  const auto t0 = std::chrono::steady_clock::now();
  {
    telemetry::ProfileScope scope("point " + pt.label, "sweep");
    core::MedeaSystem sys(cfg);
    apps::JacobiParams jp;
    jp.n = spec.n;
    jp.warmup_iterations = spec.warmup_iterations;
    jp.timed_iterations = spec.timed_iterations;
    pt.cycles_per_iteration = apps::run_jacobi(sys, jp).cycles_per_iteration;
  }
  pt.host_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  return pt;
}

std::vector<SweepPoint> run_sweep(const SweepSpec& spec) {
  struct Job {
    int cores;
    std::uint32_t cache_kb;
    mem::WritePolicy policy;
  };
  std::vector<Job> jobs;
  for (int c : spec.cores) {
    for (auto kb : spec.cache_kb) {
      for (auto pol : spec.policies) jobs.push_back({c, kb, pol});
    }
  }
  std::vector<SweepPoint> out(jobs.size());

  int threads = spec.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  threads = std::min<int>(threads, static_cast<int>(jobs.size()));

  // Live progress: one updating stderr line, throttled to ~4 Hz so the
  // terminal write never becomes the bottleneck of a fast sweep.
  const auto sweep_t0 = std::chrono::steady_clock::now();
  std::atomic<std::size_t> done{0};
  std::atomic<std::int64_t> last_print_ms{-1000};
  const auto progress_line = [&](std::size_t d, bool final_line) {
    const std::int64_t ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - sweep_t0)
            .count();
    if (!final_line) {
      std::int64_t prev = last_print_ms.load(std::memory_order_relaxed);
      if (ms - prev < 250) return;
      // One printer at a time; losers just skip this update.
      if (!last_print_ms.compare_exchange_strong(prev, ms)) return;
    }
    const double secs = static_cast<double>(ms) / 1000.0;
    const double pps = secs > 0.0 ? static_cast<double>(d) / secs : 0.0;
    const double eta =
        pps > 0.0 ? static_cast<double>(jobs.size() - d) / pps : 0.0;
    std::fprintf(stderr,
                 "\r[sweep] %zu/%zu points (%.1f pts/s, ETA %.0fs)   %s", d,
                 jobs.size(), pps, eta, final_line ? "\n" : "");
    std::fflush(stderr);
  };

  // Claim order, costliest first: a write-through point stalls on its
  // write buffer and costs many times its write-back twin, and a small
  // L1 misses more.  Handing those out first lets the cheap points fill
  // the tail, so no worker is left with a run of expensive ones.  Ties
  // keep job order.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto cost_rank = [&jobs](std::size_t i) {
    const Job& j = jobs[i];
    return std::tuple(j.policy == mem::WritePolicy::kWriteThrough ? 0 : 1,
                      j.cache_kb, i);
  };
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cost_rank(a) < cost_rank(b);
  });

  // One task per worker thread, not one async per point: each thread
  // claims the next point in `order` from a shared counter until none
  // is left, amortising its startup across every point it runs and
  // reusing its thread-local coroutine FramePool, warm from its first
  // point.  out[i] is indexed by job, so result order stays
  // deterministic however the points were claimed.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t k = next++; k < order.size(); k = next++) {
      const Job& j = jobs[order[k]];
      out[order[k]] = run_design_point(spec, j.cores, j.cache_kb, j.policy);
      const std::size_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (spec.progress) progress_line(d, false);
    }
  };
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  if (spec.progress) progress_line(jobs.size(), true);
  return out;
}

std::vector<DesignPoint> to_design_points(const std::vector<SweepPoint>& pts) {
  std::vector<DesignPoint> out;
  out.reserve(pts.size());
  for (const auto& p : pts) {
    out.push_back(DesignPoint{p.area_mm2, p.cycles_per_iteration, p.label});
  }
  return out;
}

}  // namespace medea::dse
