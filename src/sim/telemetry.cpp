#include "sim/telemetry.h"

#include "sim/domain.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

namespace medea::telemetry {

// ---------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------

const Series* Timeline::find(const std::string& name) const {
  for (const Series& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::uint64_t> Timeline::reconstruct(const Series& s) const {
  std::vector<std::uint64_t> out(num_windows(), 0);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    const std::size_t w = s.first_window + i;
    if (w >= out.size()) break;
    if (s.cumulative) {
      acc += s.values[i];
      out[w] = acc;
    } else {
      out[w] = s.values[i];
    }
  }
  // A cumulative counter holds its last value through trailing windows
  // where it happened to be sampled (values shorter than windows can't
  // occur — every snapshot records every live series — but guard anyway).
  return out;
}

// ---------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------

Sampler::Sampler(sim::Cycle sample_every) : every_(sample_every) {
  tl_.sample_every = sample_every;
}

void Sampler::add_stats(std::string prefix, const sim::StatSet& stats) {
  stat_sources_.push_back({std::move(prefix), &stats});
}

void Sampler::add_counter(std::string name,
                          std::function<std::uint64_t()> probe) {
  probes_.push_back({std::move(name), true, std::move(probe)});
}

void Sampler::add_gauge(std::string name,
                        std::function<std::uint64_t()> probe) {
  probes_.push_back({std::move(name), false, std::move(probe)});
}

void Sampler::attach(sim::SimDomain& dom) {
  dom_ = &dom;
  sim::SimDomain* d = &dom;
  // The wake/dedup/active sums are bit-identical across kernels and
  // shard counts; the bucket/overflow/commit series are kernel-dependent
  // (they already differ between calendar and heap).
  add_counter("sched.wake_requests", [d] { return d->wake_requests(); });
  add_counter("sched.wakes_deduped", [d] { return d->wakes_deduped(); });
  add_counter("sched.bucket_pushes", [d] { return d->bucket_pushes(); });
  add_counter("sched.overflow_pushes", [d] { return d->overflow_pushes(); });
  add_counter("sched.commit_pushes", [d] { return d->commit_pushes(); });
  add_counter("sched.commits_deduped", [d] { return d->commits_deduped(); });
  add_counter("sched.active_cycles", [d] { return d->active_cycles(); });
  add_gauge("sched.queued",
            [d] { return static_cast<std::uint64_t>(d->queued()); });
  // First boundary at one full window, then on_cycle self-paces.  A
  // sample_every of 0 means "manual snapshots only": never hook.
  if (every_ > 0) dom.set_cycle_hook(this, every_);
}

sim::Cycle Sampler::on_cycle(sim::Cycle now) {
  snapshot(now);
  if (every_ == 0) return sim::kNeverCycle;
  // Next multiple of every_ strictly after now (the kernel skips idle
  // cycles, so `now` may already be several windows past the last
  // boundary; one snapshot summarises the gap).
  return (now / every_ + 1) * every_;
}

void Sampler::snapshot(sim::Cycle now) {
  if (finished_) return;
  if (!tl_.sample_cycles.empty() && tl_.sample_cycles.back() >= now) return;
  const std::size_t window = tl_.sample_cycles.size();
  tl_.sample_cycles.push_back(now);
  for (const StatSource& src : stat_sources_) {
    for (const auto& [name, value] : src.stats->counters()) {
      record(src.prefix + name, true, value, window);
    }
    for (const auto& [name, acc] : src.stats->accumulators()) {
      record(src.prefix + name + ".count", true, acc.count(), window);
      record(src.prefix + name + ".sum", true,
             static_cast<std::uint64_t>(acc.sum()), window);
    }
  }
  for (const Probe& p : probes_) {
    record(p.name, p.cumulative, p.fn(), window);
  }
  // Pad series that vanished from a source (StatSets never erase
  // counters, so this is only reachable if a source was destroyed —
  // which registration forbids — but keep every series rectangular).
  for (Series& s : tl_.series) {
    if (s.first_window + s.values.size() < window + 1) {
      s.values.resize(window + 1 - s.first_window, 0);
    }
  }
}

void Sampler::record(const std::string& name, bool cumulative,
                     std::uint64_t value, std::size_t window) {
  auto it = state_.find(name);
  if (it == state_.end()) {
    tl_.series.push_back(Series{name, cumulative, window, {}});
    it = state_.emplace(name, SeriesState{tl_.series.size() - 1, 0}).first;
  }
  Series& s = tl_.series[it->second.index];
  if (cumulative) {
    // Deltas, not absolutes: windowed rates fall out directly and the
    // JSON stays small (most counters move little per window).
    s.values.push_back(value - it->second.last);
    it->second.last = value;
  } else {
    s.values.push_back(value);
  }
}

void Sampler::finish(sim::Cycle end) {
  if (finished_) return;
  if (tl_.sample_cycles.empty() || tl_.sample_cycles.back() < end) {
    snapshot(end);
  }
  finished_ = true;
  if (dom_ != nullptr) {
    dom_->set_cycle_hook(nullptr);
    dom_ = nullptr;
  }
  // Name-sorted series give exporters (and diffs of exports) a stable
  // order regardless of registration/discovery order.
  std::sort(tl_.series.begin(), tl_.series.end(),
            [](const Series& a, const Series& b) { return a.name < b.name; });
}

// ---------------------------------------------------------------------
// HostProfiler / ProfileScope
// ---------------------------------------------------------------------

// The host profiler measures wall-clock spans of the *simulator
// process* (Perfetto host track); simulated time never reads it.
using HostClock = std::chrono::steady_clock;  // lint:allow(banned-time-source)

struct HostProfiler::Impl {
  HostClock::time_point epoch;
  std::atomic<bool> enabled{false};
  mutable std::mutex mu;
  std::vector<HostSpan> spans;
  std::uint32_t next_tid = 0;
};

namespace {
thread_local std::uint32_t t_tid = ~std::uint32_t{0};
}  // namespace

HostProfiler::HostProfiler() : impl_(new Impl) {
  // Host-track epoch, not simulated time.
  impl_->epoch = HostClock::now();
}

HostProfiler& HostProfiler::instance() {
  static HostProfiler p;
  return p;
}

bool HostProfiler::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void HostProfiler::set_enabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t HostProfiler::now_us() const {
  // Host-track timestamp, not simulated time.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          HostClock::now() - impl_->epoch)
          .count());
}

std::uint32_t HostProfiler::thread_id() {
  if (t_tid == ~std::uint32_t{0}) {
    std::lock_guard<std::mutex> lock(impl_->mu);
    t_tid = impl_->next_tid++;
  }
  return t_tid;
}

void HostProfiler::record(HostSpan span) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->spans.push_back(std::move(span));
}

std::vector<HostSpan> HostProfiler::spans() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->spans;
}

void HostProfiler::clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->spans.clear();
}

ProfileScope::ProfileScope(std::string name, std::string category)
    : name_(std::move(name)), category_(std::move(category)) {
  HostProfiler& p = HostProfiler::instance();
  if (p.enabled()) {
    armed_ = true;
    start_us_ = p.now_us();
  }
}

ProfileScope::~ProfileScope() {
  if (!armed_) return;
  HostProfiler& p = HostProfiler::instance();
  HostSpan span;
  span.name = std::move(name_);
  span.category = std::move(category_);
  span.start_us = start_us_;
  span.dur_us = p.now_us() - start_us_;
  span.tid = p.thread_id();
  p.record(std::move(span));
}

}  // namespace medea::telemetry
