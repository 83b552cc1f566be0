/// Unit tests for the cycle-accurate discrete-event kernel (src/sim).

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/domain.h"
#include "sim/fifo.h"
#include "sim/frame_pool.h"
#include "sim/ring.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/task.h"

namespace medea::sim {
namespace {

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

class Recorder : public Component {
 public:
  Recorder(Scheduler& s, std::string name) : Component(s, std::move(name)) {}
  void tick(Cycle now) override { ticks.push_back(now); }
  std::vector<Cycle> ticks;
};

TEST(Scheduler, TicksComponentAtRequestedCycle) {
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 5);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(r.ticks.size(), 1u);
  EXPECT_EQ(r.ticks[0], 5u);
  EXPECT_EQ(sched.now(), 5u);
}

TEST(Scheduler, SkipsIdleCycles) {
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 10);
  sched.wake_at(r, 1000000);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(sched.active_cycles(), 2u);  // only 2 cycles actually executed
  EXPECT_EQ(sched.now(), 1000000u);
}

TEST(Scheduler, DeduplicatesSameCycleWakes) {
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 3);
  sched.wake_at(r, 3);
  sched.wake_at(r, 3);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks.size(), 1u);
}

TEST(Scheduler, DedupsDuplicateWakesAtPushTime) {
  // Duplicate (component, future-cycle) wakes never reach the heap:
  // three requests for cycle 3 cost one push (hot-FIFO fan-in pressure).
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 3);
  sched.wake_at(r, 3);
  sched.wake_at(r, 3);
  sched.wake_at(r, 7);  // a different cycle is a fresh push
  EXPECT_EQ(sched.wake_requests(), 4u);
  EXPECT_EQ(sched.wakes_deduped(), 2u);
  EXPECT_EQ(sched.bucket_pushes() + sched.overflow_pushes(), 2u);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{3, 7}));
}

TEST(Scheduler, PushDedupNeverLosesAWakeAcrossRuns) {
  // Waking again between runs must still tick at the new cycle even
  // though the heap saw pushes for this component before.  (Re-waking
  // at the *already-ticked* current cycle is a no-op — that is the
  // kernel's long-standing pop-side dedup, unchanged by the push-time
  // stamp; a component ticks at most once per cycle, ever.)
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 4);
  sched.wake_at(r, 4);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(r.ticks.size(), 1u);
  sched.wake_at(r, 4);  // now() and already ticked at 4: stays one tick
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{4}));
  sched.wake_at(r, 9);
  sched.wake_at(r, 9);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{4, 9}));
}

/// Pushes one value into each of three FIFOs during a single tick.
class FanInPusher : public Component {
 public:
  FanInPusher(Scheduler& s, Fifo<int>& a, Fifo<int>& b, Fifo<int>& c)
      : Component(s, "pusher"), a_(a), b_(b), c_(c) {}
  void tick(Cycle) override {
    a_.push(1);
    b_.push(2);
    c_.push(3);
  }
  Fifo<int>& a_;
  Fifo<int>& b_;
  Fifo<int>& c_;
};

TEST(Scheduler, FifoFanInWakesConsumerWithOneHeapPush) {
  // N channels committing into one consumer in the same cycle is the
  // hot-FIFO pattern the push-time dedup exists for: three commits used
  // to mean three heap pushes (two discarded at pop); now two of the
  // wake requests are absorbed before touching the heap.
  Scheduler sched;
  Recorder consumer(sched, "consumer");
  Fifo<int> a(sched, "a", 4), b(sched, "b", 4), c(sched, "c", 4);
  for (Fifo<int>* f : {&a, &b, &c}) f->set_consumer(&consumer);
  FanInPusher pusher(sched, a, b, c);
  sched.wake_at(pusher, 1);
  const std::uint64_t deduped_before = sched.wakes_deduped();
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(sched.wakes_deduped() - deduped_before, 2u);
  ASSERT_EQ(consumer.ticks.size(), 1u);
  EXPECT_EQ(consumer.ticks[0], 2u);
}

TEST(Scheduler, MultipleWakesAtDifferentCycles) {
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 1);
  sched.wake_at(r, 2);
  sched.wake_at(r, 7);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{1, 2, 7}));
}

TEST(Scheduler, RunStopsAtLimit) {
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 100);
  EXPECT_FALSE(sched.run(50));
  EXPECT_TRUE(r.ticks.empty());
  // The pending event is still there; a later run picks it up.
  EXPECT_TRUE(sched.run(200));
  EXPECT_EQ(r.ticks.size(), 1u);
}

TEST(Scheduler, RunOrThrowThrowsOnLimit) {
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 100);
  EXPECT_THROW(sched.run_or_throw(50), std::runtime_error);
}

class SelfWaker : public Component {
 public:
  SelfWaker(Scheduler& s, int n) : Component(s, "selfwaker"), remaining(n) {}
  void tick(Cycle) override {
    ++count;
    if (--remaining > 0) wake();
  }
  int remaining;
  int count = 0;
};

TEST(Scheduler, SelfWakeChainsConsecutiveCycles) {
  Scheduler sched;
  SelfWaker w(sched, 10);
  sched.wake_at(w, 0);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(w.count, 10);
  EXPECT_EQ(sched.now(), 9u);
}

// Two components woken the same cycle are both ticked in that cycle.
TEST(Scheduler, SameCycleBatchDispatch) {
  Scheduler sched;
  Recorder a(sched, "a");
  Recorder b(sched, "b");
  sched.wake_at(a, 4);
  sched.wake_at(b, 4);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(a.ticks.size(), 1u);
  ASSERT_EQ(b.ticks.size(), 1u);
  EXPECT_EQ(sched.active_cycles(), 1u);
}

// ---------------------------------------------------------------------
// Calendar queue (two-tier event structure)
// ---------------------------------------------------------------------

SchedulerConfig legacy_heap_cfg() {
  SchedulerConfig cfg;
  cfg.queue = SchedulerConfig::EventQueue::kBinaryHeap;
  return cfg;
}

TEST(CalendarQueue, NearWakesLandInBucketsFarWakesOverflow) {
  Scheduler sched;  // default: calendar, 1024-cycle ring
  Recorder r(sched, "r");
  sched.wake_at(r, 1);        // bucket
  sched.wake_at(r, 1023);     // last cycle inside the ring
  sched.wake_at(r, 1024);     // first cycle beyond it -> overflow heap
  sched.wake_at(r, 5'000'000);
  EXPECT_EQ(sched.bucket_pushes(), 2u);
  EXPECT_EQ(sched.overflow_pushes(), 2u);
  EXPECT_EQ(sched.wake_requests() - sched.wakes_deduped(),
            sched.bucket_pushes() + sched.overflow_pushes());
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{1, 1023, 1024, 5'000'000}));
}

TEST(CalendarQueue, LegacyHeapKernelStaysSelectable) {
  Scheduler sched(legacy_heap_cfg());
  Recorder r(sched, "r");
  sched.wake_at(r, 3);
  sched.wake_at(r, 900000);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{3, 900000}));
  EXPECT_EQ(sched.bucket_pushes(), 0u);  // every push is an overflow push
  EXPECT_EQ(sched.overflow_pushes(), 2u);
}

TEST(CalendarQueue, RingWrapsAcrossManyRevolutions) {
  // A self-waker chaining 10000 consecutive cycles crosses the default
  // 1024-cycle ring almost ten times.
  Scheduler sched;
  SelfWaker w(sched, 10000);
  sched.wake_at(w, 0);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(w.count, 10000);
  EXPECT_EQ(sched.now(), 9999u);
}

TEST(CalendarQueue, SameCycleDispatchFollowsConstructionOrder) {
  // B's wake for cycle 2000 is requested first (far future -> overflow);
  // A's wake for the same cycle arrives later via a bucket once `now` is
  // close enough.  Same-cycle dispatch is canonical component
  // construction order in every kernel — independent of which tier the
  // wake landed in or when it was requested — so A (constructed first)
  // ticks before B in the heap and the calendar alike.  This shared
  // order is what lets the sharded kernel reproduce single-thread runs
  // bit-identically.
  struct Proxy final : Component {
    Proxy(Scheduler& s, std::string n, std::vector<std::string>* order)
        : Component(s, std::move(n)), order_(order) {}
    void tick(Cycle) override { order_->push_back(name()); }
    std::vector<std::string>* order_;
  };
  struct LateScheduler final : Component {
    LateScheduler(Scheduler& s, Component& target)
        : Component(s, "late"), target_(target) {}
    void tick(Cycle) override { scheduler().wake_at(target_, 2000); }
    Component& target_;
  };

  for (bool legacy : {false, true}) {
    Scheduler sched(legacy ? legacy_heap_cfg() : SchedulerConfig{});
    std::vector<std::string> order;
    Proxy a(sched, "a", &order);
    Proxy b(sched, "b", &order);
    LateScheduler late(sched, a);
    sched.wake_at(b, 2000);   // overflow tier (2000 > ring)
    sched.wake_at(late, 1500);  // wakes `a` for 2000 from close range
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b"})) << "legacy="
                                                           << legacy;
  }
}

TEST(CalendarQueue, ComponentWithMultiplePendingWakesUsesSpillNodes) {
  // The embedded intrusive hook covers one pending wake; stacking many
  // distinct future cycles on one component must spill cleanly.
  Scheduler sched;
  Recorder r(sched, "r");
  for (Cycle c = 1; c <= 40; ++c) sched.wake_at(r, c * 3);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks.size(), 40u);
  for (std::size_t i = 0; i < r.ticks.size(); ++i) {
    EXPECT_EQ(r.ticks[i], (i + 1) * 3);
  }
}

TEST(CalendarQueue, IdleReflectsBothTiers) {
  Scheduler sched;
  EXPECT_TRUE(sched.idle());
  Recorder r(sched, "r");
  sched.wake_at(r, 5);  // bucket
  EXPECT_FALSE(sched.idle());
  EXPECT_TRUE(sched.run());
  EXPECT_TRUE(sched.idle());
  sched.wake_at(r, 5'000'000);  // overflow
  EXPECT_FALSE(sched.idle());
  EXPECT_TRUE(sched.run());
  EXPECT_TRUE(sched.idle());
}

TEST(SimDomain, ShardCountIsClampedAndZeroIsRejected) {
  SchedulerConfig cfg;
  EXPECT_EQ(SimDomain::resolve_shards(cfg, 0), 1);  // default: one shard
  cfg.num_shards = 1000;
  EXPECT_EQ(SimDomain::resolve_shards(cfg, 0), 64);
  EXPECT_EQ(SimDomain::resolve_shards(cfg, 4), 4);
  cfg.num_shards = 0;
  EXPECT_THROW(SimDomain dom(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------
// FramePool
// ---------------------------------------------------------------------

TEST(FramePool, RecyclesSizeClasses) {
  FramePool pool;
  void* a = pool.allocate(100);  // rounds to 128
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.deallocate(a, 100);
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_EQ(pool.stats().bytes_retained, 128u);
  void* b = pool.allocate(120);  // same 128-byte class -> free-list hit
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().bytes_retained, 0u);
  pool.deallocate(b, 120);
}

TEST(FramePool, OversizeFramesPassThrough) {
  FramePool pool;
  void* p = pool.allocate(FramePool::kMaxPooledBytes + 1);
  ASSERT_NE(p, nullptr);
  pool.deallocate(p, FramePool::kMaxPooledBytes + 1);
  EXPECT_EQ(pool.stats().oversize, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().bytes_retained, 0u);
}

TEST(FramePool, TrimReleasesRetainedBytes) {
  FramePool pool;
  void* a = pool.allocate(64);
  pool.deallocate(a, 64);
  EXPECT_GT(pool.stats().bytes_retained, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().bytes_retained, 0u);
}

// ---------------------------------------------------------------------
// Fifo
// ---------------------------------------------------------------------

/// Pushes a burst of values, one per cycle.
class Producer : public Component {
 public:
  Producer(Scheduler& s, Fifo<int>& f, int n)
      : Component(s, "prod"), fifo(f), remaining(n) {
    f.set_producer(this);
  }
  void tick(Cycle) override {
    if (remaining > 0 && fifo.can_push()) {
      fifo.push(next++);
      --remaining;
    }
    if (remaining > 0) wake();
  }
  Fifo<int>& fifo;
  int remaining;
  int next = 0;
};

/// Pops everything available each tick and records (cycle, value).
class Consumer : public Component {
 public:
  Consumer(Scheduler& s, Fifo<int>& f) : Component(s, "cons"), fifo(f) {
    f.set_consumer(this);
  }
  void tick(Cycle now) override {
    while (!fifo.empty()) got.emplace_back(now, fifo.pop());
  }
  Fifo<int>& fifo;
  std::vector<std::pair<Cycle, int>> got;
};

TEST(Fifo, PushVisibleNextCycle) {
  Scheduler sched;
  Fifo<int> f(sched, "f", 4);
  Producer p(sched, f, 1);
  Consumer c(sched, f);
  sched.wake_at(p, 0);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(c.got.size(), 1u);
  EXPECT_EQ(c.got[0].first, 1u);  // pushed at 0, consumed at 1
  EXPECT_EQ(c.got[0].second, 0);
}

TEST(Fifo, DeliversInOrderAtFullThroughput) {
  Scheduler sched;
  Fifo<int> f(sched, "f", 2);
  Producer p(sched, f, 50);
  Consumer c(sched, f);
  sched.wake_at(p, 0);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(c.got.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(c.got[static_cast<std::size_t>(i)].second, i);
    // one value per cycle, first arrives at cycle 1
    EXPECT_EQ(c.got[static_cast<std::size_t>(i)].first,
              static_cast<Cycle>(i + 1));
  }
}

/// Consumer that pops only every `period` cycles, to exercise producer
/// back-pressure and the blocked-producer wakeup path.
class SlowConsumer : public Component {
 public:
  SlowConsumer(Scheduler& s, Fifo<int>& f, Cycle period)
      : Component(s, "slow"), fifo(f), period_(period) {
    f.set_consumer(this);
  }
  void tick(Cycle now) override {
    if (now >= next_pop_ && !fifo.empty()) {
      got.push_back(fifo.pop());
      next_pop_ = now + period_;
    }
    if (!fifo.empty()) scheduler().wake_at(*this, std::max(now + 1, next_pop_));
  }
  Fifo<int>& fifo;
  Cycle period_;
  Cycle next_pop_ = 0;
  std::vector<int> got;
};

TEST(Fifo, BackpressureBlocksAndResumesProducer) {
  Scheduler sched;
  Fifo<int> f(sched, "f", 2);
  Producer p(sched, f, 20);
  SlowConsumer c(sched, f, 5);
  sched.wake_at(p, 0);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(c.got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(c.got[static_cast<std::size_t>(i)], i);
}

TEST(Fifo, CapacityZeroIsUnbounded) {
  Scheduler sched;
  Fifo<int> f(sched, "f", 0);
  Producer p(sched, f, 1000);
  sched.wake_at(p, 0);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(f.size(), 1000u);
}

TEST(Fifo, PopFreesSpaceOnlyNextCycle) {
  Scheduler sched;
  Fifo<int> f(sched, "f", 1);
  // Hand-drive: producer pushes at 0; consumer pops at 1; producer sees
  // space again only at 2.
  struct Driver : Component {
    Driver(Scheduler& s, Fifo<int>& f) : Component(s, "drv"), fifo(f) {}
    void tick(Cycle now) override {
      if (now == 0) {
        EXPECT_TRUE(fifo.can_push());
        fifo.push(42);
        wake();
      } else if (now == 1) {
        EXPECT_EQ(fifo.pop(), 42);
        EXPECT_FALSE(fifo.can_push());  // slot frees at commit
        wake();
      } else if (now == 2) {
        EXPECT_TRUE(fifo.can_push());
      }
    }
    Fifo<int>& fifo;
  } d(sched, f);
  sched.wake_at(d, 0);
  EXPECT_TRUE(sched.run());
}

TEST(Fifo, PushOnFullFifoThrows) {
  // Release builds strip asserts; the overflow check must survive them,
  // since a push past capacity would overwrite a live ring slot.
  Scheduler sched;
  Fifo<int> f(sched, "link(0,0)E", 2);
  f.push(1);
  f.push(2);
  try {
    f.push(3);
    FAIL() << "push on a full FIFO did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("link(0,0)E"), std::string::npos) << what;
    EXPECT_NE(what.find("capacity 2"), std::string::npos) << what;
  }
  f.commit();
  EXPECT_THROW(f.push_committed(3), std::logic_error);
  // A pop frees its slot only at commit, so the FIFO stays full for the
  // producer until then.
  EXPECT_EQ(f.pop(), 1);
  EXPECT_THROW(f.push(3), std::logic_error);
  f.commit();
  f.push(3);
  f.commit();
  EXPECT_EQ(f.pop(), 2);
  EXPECT_EQ(f.pop(), 3);
}

// ---------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------

TEST(Ring, WrapsInOrderWithoutGrowingAtItsCapacity) {
  Ring<int> r(3);  // rounds up to 4 slots
  EXPECT_EQ(r.capacity(), 4u);
  int next_in = 0;
  int next_out = 0;
  // Keep 3 entries live while the indices run many times round the
  // slot array: every pop sees the oldest entry, and nothing grows.
  for (int step = 0; step < 100; ++step) {
    while (r.size() < 3) r.push_back(next_in++);
    EXPECT_EQ(r.front(), next_out);
    EXPECT_EQ(r.back(), next_in - 1);
    // Indexed access (the FIFO's peek) across the wrap point.
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(r[i], next_out + static_cast<int>(i));
    }
    r.pop_front();
    ++next_out;
  }
  EXPECT_EQ(r.capacity(), 4u);
}

TEST(Ring, CapacityZeroGrowsAndKeepsOrderAcrossTheWrap) {
  Ring<int> r;
  EXPECT_EQ(r.capacity(), 0u);
  // Offset the head so the first growth copies a wrapped run.
  r.push_back(-2);
  r.push_back(-1);
  r.pop_front();
  r.pop_front();
  // Fill all 4 slots with a wrapped run, then grow to 8 slots from the
  // front and to 32 from the back.
  for (int i = 0; i < 4; ++i) r.push_back(i);
  r.push_front(-1);
  for (int i = 4; i < 20; ++i) r.push_back(i);
  EXPECT_EQ(r.capacity(), 32u);
  ASSERT_EQ(r.size(), 21u);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i], static_cast<int>(i) - 1);
  }
}

TEST(Fifo, PeekSeesCommittedEntriesAcrossTheRingWrap) {
  Scheduler sched;
  Fifo<int> f(sched, "f", 4);
  // Walk the ring's head round its 4 slots so the committed run wraps.
  for (int i = 0; i < 3; ++i) {
    f.push(i);
    f.commit();
    EXPECT_EQ(f.pop(), i);
    f.commit();
  }
  f.push(10);
  f.push(11);
  f.push(12);
  f.commit();
  f.push(13);  // staged: invisible to size() and peek()
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f.peek(0), 10);
  EXPECT_EQ(f.peek(1), 11);
  EXPECT_EQ(f.peek(2), 12);
  EXPECT_EQ(f.producer_occupancy(), 4u);
  f.commit();
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f.peek(3), 13);
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

TEST(Stats, CountersStartAtZeroAndAccumulate) {
  StatSet s;
  EXPECT_EQ(s.get("x"), 0u);
  s.inc("x");
  s.inc("x", 4);
  EXPECT_EQ(s.get("x"), 5u);
}

TEST(Stats, AccumulatorTracksMinMeanMax) {
  StatSet s;
  s.sample("lat", 10.0);
  s.sample("lat", 20.0);
  s.sample("lat", 30.0);
  EXPECT_DOUBLE_EQ(s.acc("lat").mean(), 20.0);
  EXPECT_DOUBLE_EQ(s.acc("lat").min(), 10.0);
  EXPECT_DOUBLE_EQ(s.acc("lat").max(), 30.0);
  EXPECT_EQ(s.acc("lat").count(), 3u);
}

TEST(Stats, MergeAddsCountersAndAccumulators) {
  StatSet a;
  StatSet b;
  a.inc("x", 2);
  b.inc("x", 3);
  b.inc("y", 1);
  a.sample("v", 1.0);
  b.sample("v", 3.0);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 5u);
  EXPECT_EQ(a.get("y"), 1u);
  EXPECT_EQ(a.acc("v").count(), 2u);
  EXPECT_DOUBLE_EQ(a.acc("v").mean(), 2.0);
}

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 r(99);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_below(7);
    EXPECT_LT(v, 7u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 r(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---------------------------------------------------------------------
// Task (coroutines)
// ---------------------------------------------------------------------

Task<int> make_value_task(int v) { co_return v; }

Task<int> nested_sum(int a, int b) {
  const int x = co_await make_value_task(a);
  const int y = co_await make_value_task(b);
  co_return x + y;
}

TEST(Task, LazyStartAndResult) {
  auto t = make_value_task(42);
  EXPECT_FALSE(t.done());
  t.start();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.result(), 42);
}

TEST(Task, NestedCoAwaitWithSymmetricTransfer) {
  auto t = nested_sum(20, 22);
  t.start();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.result(), 42);
}

Task<> throwing_task() {
  throw std::runtime_error("boom");
  co_return;
}

TEST(Task, ExceptionPropagatesToOwner) {
  auto t = throwing_task();
  t.start();
  EXPECT_TRUE(t.done());
  EXPECT_THROW(t.rethrow_if_error(), std::runtime_error);
}

TEST(Task, OnDoneFires) {
  bool fired = false;
  auto t = make_value_task(1);
  t.set_on_done([](void* flag) { *static_cast<bool*>(flag) = true; }, &fired);
  t.start();
  EXPECT_TRUE(fired);
}

TEST(Task, CoroutineFramesComeFromTheThreadLocalPool) {
  // Warm-up: the first task of a given frame size is a miss; every
  // subsequent one of the same shape must be served from the free list.
  {
    auto t = make_value_task(1);
    t.start();
  }
  const FramePool::Stats warm = FramePool::tls().stats();
  for (int i = 0; i < 100; ++i) {
    auto t = make_value_task(i);
    t.start();
    EXPECT_EQ(t.result(), i);
  }
  const FramePool::Stats after = FramePool::tls().stats();
  EXPECT_EQ(after.misses, warm.misses) << "warm frames must not hit malloc";
  EXPECT_GE(after.hits, warm.hits + 100);
}

}  // namespace
}  // namespace medea::sim
