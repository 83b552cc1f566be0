#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "sim/types.h"

/// \file stats.h
/// Lightweight named-counter statistics used by all hardware models.
///
/// Every component owns (or shares) a StatSet; counters are created lazily
/// on first use and are cheap to bump.  A StatSet can be merged into
/// another, which the system level uses to aggregate per-PE statistics.
///
/// Hot paths (router/cache/arbiter tick functions) should not pay a
/// string-keyed map lookup per event: counter() / accumulator() return
/// stable references (std::map nodes never move) that components resolve
/// once at construction and bump directly every cycle.

namespace medea::sim {

/// Integer counter type behind StatSet::counter() handles.
using Stat = std::uint64_t;

/// Simple accumulator for a stream of samples (e.g. packet latencies).
class Accumulator {
 public:
  void add(double v) {
    count_ += 1;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  void merge(const Accumulator& o) {
    if (o.count_ == 0) return;
    if (count_ == 0) {
      *this = o;
      return;
    }
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Streaming log-linear histogram for latency-style integer samples
/// (HdrHistogram's bucketing idea, sized for cycle counts).
///
/// Values below 2*kSubBuckets are counted exactly; above that, each
/// power-of-two octave is split into kSubBuckets linear sub-buckets, so
/// the relative quantization error of any reported quantile is bounded
/// by 1/(2*kSubBuckets) (~1.6%).  Recording is O(1) with no allocation,
/// the footprint is a fixed ~15 kB table, and two histograms merge by
/// bucket-wise addition — exactly what the measurement controller needs
/// to stream per-flit latencies out of a multi-million-event run and
/// still answer p50/p99/p999 deterministically.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 32 per octave
  /// Exact region [0, 2*kSubBuckets) + one group of kSubBuckets per
  /// remaining octave of the 64-bit value range.
  static constexpr int kBuckets =
      2 * kSubBuckets + (63 - kSubBucketBits) * kSubBuckets;

  void record(std::uint64_t v) {
    count_ += 1;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
    buckets_[index_of(v)] += 1;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return count_ ? max_ : 0; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Value at quantile q in [0, 1] (the representative value of the
  /// bucket holding the ceil(q*count)-th sample, clamped to the exact
  /// observed [min, max]).  0 when empty.
  std::uint64_t quantile(double q) const;

  std::uint64_t p50() const { return quantile(0.50); }
  std::uint64_t p99() const { return quantile(0.99); }
  std::uint64_t p999() const { return quantile(0.999); }

  void merge(const LatencyHistogram& o);
  void clear();

  /// Worst-case relative quantization error of quantile() for values
  /// outside the exact region (tests size their tolerance from this).
  static constexpr double max_relative_error() {
    return 1.0 / (2.0 * kSubBuckets);
  }

 private:
  static int index_of(std::uint64_t v) {
    if (v < 2 * kSubBuckets) return static_cast<int>(v);
    // v >= 64: split its octave [2^e, 2^{e+1}) into kSubBuckets linear
    // sub-buckets of width 2^g each (mantissa m = v >> g in [32, 64)).
    const int e = 63 - std::countl_zero(v);
    const int g = e - kSubBucketBits;  // >= 1
    const int m = static_cast<int>(v >> g);
    return 2 * kSubBuckets + (g - 1) * kSubBuckets + (m - kSubBuckets);
  }

  /// Midpoint of the value range bucket i covers (exact for the exact
  /// region).
  static std::uint64_t representative(int i);

  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// A named bag of counters and accumulators.
///
/// std::map (not unordered_map) keeps iteration order deterministic so
/// that printed reports are stable run-to-run.  The maps compare keys
/// with std::less<>, so every lookup takes a std::string_view and builds
/// a std::string only when it inserts a new key: a hot-path
/// inc("pe.write_buffer_stalls") allocates nothing after its first call.
class StatSet {
 public:
  using CounterMap = std::map<std::string, std::uint64_t, std::less<>>;
  using AccumulatorMap = std::map<std::string, Accumulator, std::less<>>;

  /// Bump an integer counter by delta (creates it at zero when absent).
  void inc(std::string_view name, std::uint64_t delta = 1) {
    slot(counters_, name) += delta;
  }

  /// Set a counter to an absolute value.
  void set(std::string_view name, std::uint64_t value) {
    slot(counters_, name) = value;
  }

  /// Current value of a counter (zero when never touched).
  std::uint64_t get(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Stable reference to a counter (created at zero when absent).
  /// std::map node addresses never move, so the handle stays valid for
  /// the StatSet's lifetime (clear() invalidates it).  Resolve once in a
  /// constructor, bump per tick — no per-event string lookup.
  Stat& counter(std::string_view name) { return slot(counters_, name); }

  /// Record a sample into a named accumulator.
  void sample(std::string_view name, double v) { slot(accs_, name).add(v); }

  /// Stable reference to an accumulator (same contract as counter()).
  Accumulator& accumulator(std::string_view name) {
    return slot(accs_, name);
  }

  const Accumulator& acc(std::string_view name) const {
    static const Accumulator kEmpty;
    auto it = accs_.find(name);
    return it == accs_.end() ? kEmpty : it->second;
  }

  void merge(const StatSet& o) {
    for (const auto& [k, v] : o.counters_) slot(counters_, k) += v;
    for (const auto& [k, a] : o.accs_) slot(accs_, k).merge(a);
  }

  void clear() {
    counters_.clear();
    accs_.clear();
  }

  const CounterMap& counters() const { return counters_; }
  const AccumulatorMap& accumulators() const { return accs_; }

  /// Render as "name=value" lines, for debugging and reports.
  std::string to_string() const;

 private:
  /// The value under `name`, inserted value-initialized when absent —
  /// operator[] for a heterogeneous key.
  template <typename Map>
  static typename Map::mapped_type& slot(Map& m, std::string_view name) {
    auto it = m.lower_bound(name);
    if (it == m.end() || it->first != name) {
      it = m.emplace_hint(it, std::string(name), typename Map::mapped_type{});
    }
    return it->second;
  }

  CounterMap counters_;
  AccumulatorMap accs_;
};

}  // namespace medea::sim
