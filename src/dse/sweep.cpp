#include "dse/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

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

namespace {

/// A point's identity: its coordinates, label and chip area.
SweepPoint describe_point(int cores, std::uint32_t cache_kb,
                          mem::WritePolicy policy) {
  const core::MedeaConfig cfg = make_design_config(cores, cache_kb, policy);
  SweepPoint pt;
  pt.cores = cores;
  pt.cache_kb = cache_kb;
  pt.policy = policy;
  pt.label = cfg.label();
  pt.area_mm2 = AreaModel{}.chip_area_mm2(cfg);
  return pt;
}

}  // namespace

SweepPoint run_design_point(const SweepSpec& spec, int cores,
                            std::uint32_t cache_kb, mem::WritePolicy policy) {
  SweepPoint pt = describe_point(cores, cache_kb, policy);
  const auto t0 = std::chrono::steady_clock::now();
  {
    telemetry::ProfileScope scope("point " + pt.label, "sweep");
    core::MedeaSystem sys(make_design_config(cores, cache_kb, policy));
    apps::JacobiParams jp;
    jp.n = spec.n;
    jp.warmup_iterations = spec.warmup_iterations;
    jp.timed_iterations = spec.timed_iterations;
    pt.cycles_per_iteration = apps::run_jacobi(sys, jp).cycles_per_iteration;
    for (int r = 0; r < sys.num_cores(); ++r) {
      pt.l1_evictions += sys.core(r).cache().stats().get("cache.evictions");
    }
  }
  pt.host_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  return pt;
}

std::vector<SweepPoint> run_sweep(const SweepSpec& spec) {
  // out[] is in job order: cores-major, then cache, then policy.
  const std::size_t num_kb = spec.cache_kb.size();
  const std::size_t num_pol = spec.policies.size();
  std::vector<SweepPoint> out(spec.cores.size() * num_kb * num_pol);

  // One series per (cores, policy): its points as (slot in out[], L1
  // kB), in ascending L1 size.  Every point is validated here, before
  // any worker starts.
  struct Series {
    int cores;
    mem::WritePolicy policy;
    std::vector<std::pair<std::size_t, std::uint32_t>> points;
  };
  std::vector<std::size_t> by_size(num_kb);
  for (std::size_t k = 0; k < num_kb; ++k) by_size[k] = k;
  const auto smaller = [&](std::size_t a, std::size_t b) {
    return spec.cache_kb[a] < spec.cache_kb[b];
  };
  std::stable_sort(by_size.begin(), by_size.end(), smaller);
  std::vector<Series> series;
  for (std::size_t ci = 0; ci < spec.cores.size(); ++ci) {
    for (std::size_t pi = 0; pi < num_pol; ++pi) {
      Series s{spec.cores[ci], spec.policies[pi], {}};
      for (std::size_t k : by_size) {
        make_design_config(s.cores, spec.cache_kb[k], s.policy).validate();
        s.points.emplace_back((ci * num_kb + k) * num_pol + pi,
                              spec.cache_kb[k]);
      }
      series.push_back(std::move(s));
    }
  }

  int threads = spec.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  threads = std::min<int>(threads, static_cast<int>(series.size()));

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
        pps > 0.0 ? static_cast<double>(out.size() - d) / pps : 0.0;
    std::fprintf(stderr,
                 "\r[sweep] %zu/%zu points (%.1f pts/s, ETA %.0fs)   %s", d,
                 out.size(), pps, eta, final_line ? "\n" : "");
    std::fflush(stderr);
  };

  // Claim order, costliest series first: a write-through point stalls on
  // its write buffer and costs many times its write-back twin, and more
  // cores mean more components to tick.  Handing those out first lets
  // the cheap series fill the tail.  Ties keep series order.
  const auto cost_rank = [](const Series& s) {
    return std::pair(s.policy == mem::WritePolicy::kWriteThrough ? 0 : 1,
                     -s.cores);
  };
  const auto costlier = [&](const Series& a, const Series& b) {
    return cost_rank(a) < cost_rank(b);
  };
  std::stable_sort(series.begin(), series.end(), costlier);

  // One task per worker thread, not one async per point: each thread
  // claims the next series from a shared counter until none is left,
  // amortising its startup across every point it runs and reusing its
  // thread-local coroutine FramePool, warm from its first point.  Within
  // a series the first eviction-free point fills every larger size.
  // out[] is indexed by job, so result order stays deterministic however
  // the series were claimed.
  std::atomic<std::size_t> next{0};
  std::mutex failure_mu;
  std::exception_ptr failure;
  auto worker = [&] {
    try {
      for (std::size_t k = next++; k < series.size(); k = next++) {
        const Series& s = series[k];
        const SweepPoint* clean = nullptr;  // first eviction-free point
        for (const auto& [slot, kb] : s.points) {
          if (clean != nullptr) {
            out[slot] = describe_point(s.cores, kb, s.policy);
            out[slot].cycles_per_iteration = clean->cycles_per_iteration;
            out[slot].implied = true;
          } else {
            out[slot] = run_design_point(spec, s.cores, kb, s.policy);
            if (out[slot].l1_evictions == 0) clean = &out[slot];
          }
          const std::size_t d =
              done.fetch_add(1, std::memory_order_relaxed) + 1;
          if (spec.progress) progress_line(d, false);
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mu);
      if (!failure) failure = std::current_exception();
      next = series.size();  // no worker claims another series
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
  if (failure) std::rethrow_exception(failure);
  if (spec.progress) progress_line(out.size(), true);
  return out;
}

std::size_t count_implied(const std::vector<SweepPoint>& pts) {
  return static_cast<std::size_t>(
      std::count_if(pts.begin(), pts.end(),
                    [](const SweepPoint& p) { return p.implied; }));
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
