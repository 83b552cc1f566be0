/// Unit tests for the memory subsystem: map, backing store, L1 cache.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "mem/backing_store.h"
#include "mem/cache.h"
#include "mem/ddr.h"
#include "mem/memory_map.h"
#include "sim/rng.h"

namespace medea::mem {
namespace {

// ---------------------------------------------------------------------
// Address helpers / memory map
// ---------------------------------------------------------------------

TEST(AddrHelpers, Alignment) {
  EXPECT_EQ(word_align(0x1003), 0x1000u);
  EXPECT_EQ(line_align(0x1017), 0x1010u);
  EXPECT_EQ(word_in_line(0x1010), 0);
  EXPECT_EQ(word_in_line(0x1014), 1);
  EXPECT_EQ(word_in_line(0x101C), 3);
}

TEST(MemoryMap, PrivateSegmentsAreDisjointAndOwned) {
  MemoryMapConfig c;
  c.num_cores = 4;
  MemoryMap m(c);
  for (int k = 0; k < 4; ++k) {
    const Addr base = m.private_base(k);
    EXPECT_TRUE(m.is_private(base));
    EXPECT_TRUE(m.is_private_of(base, k));
    EXPECT_EQ(m.private_owner(base), k);
    EXPECT_EQ(m.private_owner(base + m.private_size() - 4), k);
  }
  EXPECT_FALSE(m.is_private_of(m.private_base(1), 0));
}

TEST(MemoryMap, SharedSegmentBoundaries) {
  MemoryMapConfig c;
  c.num_cores = 2;
  MemoryMap m(c);
  EXPECT_TRUE(m.is_shared(m.shared_base()));
  EXPECT_TRUE(m.is_shared(m.shared_base() + m.shared_size() - 4));
  EXPECT_FALSE(m.is_shared(m.shared_base() + m.shared_size()));
  EXPECT_FALSE(m.is_shared(0));
  EXPECT_EQ(m.private_owner(m.shared_base()), -1);
}

TEST(MemoryMap, UnmappedHole) {
  MemoryMapConfig c;
  c.num_cores = 1;
  MemoryMap m(c);
  const Addr hole = c.private_segment_size + 0x1000;
  EXPECT_FALSE(m.is_mapped(hole));
}

TEST(DoubleWords, RoundTrip) {
  for (double v : {0.0, 1.0, -3.25, 1e300, -1e-300, 0.1}) {
    EXPECT_EQ(make_double(double_lo(v), double_hi(v)), v);
  }
}

// ---------------------------------------------------------------------
// Backing store
// ---------------------------------------------------------------------

TEST(BackingStore, ColdReadsAreZero) {
  BackingStore s;
  EXPECT_EQ(s.read_word(0x12345678 & ~3u), 0u);
}

TEST(BackingStore, WordReadWrite) {
  BackingStore s;
  s.write_word(0x100, 0xCAFEBABE);
  EXPECT_EQ(s.read_word(0x100), 0xCAFEBABEu);
  s.write_word(0x100, 1);
  EXPECT_EQ(s.read_word(0x100), 1u);
}

TEST(BackingStore, LineReadWrite) {
  BackingStore s;
  LineData line{1, 2, 3, 4};
  s.write_line(0x200, line);
  EXPECT_EQ(s.read_line(0x200), line);
  EXPECT_EQ(s.read_word(0x208), 3u);
}

TEST(BackingStore, DoubleReadWrite) {
  BackingStore s;
  s.write_double(0x300, 2.5);
  EXPECT_DOUBLE_EQ(s.read_double(0x300), 2.5);
}

TEST(BackingStore, SparsePagesOnlyWhereTouched) {
  BackingStore s;
  s.write_word(0x0, 1);
  s.write_word(0x40000000, 2);
  EXPECT_EQ(s.touched_pages(), 2u);
}

// ---------------------------------------------------------------------
// DDR timing
// ---------------------------------------------------------------------

TEST(Ddr, BurstCycles) {
  DdrConfig d;
  d.access_latency = 20;
  d.per_word_latency = 2;
  EXPECT_EQ(d.burst_cycles(1), 20u);
  EXPECT_EQ(d.burst_cycles(4), 26u);
}

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

CacheConfig small_wb() {
  return CacheConfig{2 * 1024, kLineBytes, 2, WritePolicy::kWriteBack};
}

TEST(Cache, ConfigDerivedSizes) {
  Cache c(small_wb());
  EXPECT_EQ(c.config().num_lines(), 128u);
  EXPECT_EQ(c.config().num_sets(), 64u);
}

TEST(Cache, ReadMissThenHitAfterFill) {
  Cache c(small_wb());
  EXPECT_FALSE(c.read_word(0x100).has_value());
  c.fill_line(0x100, {10, 11, 12, 13});
  auto v = c.read_word(0x104);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 11u);
  EXPECT_EQ(c.stats().get("cache.read_misses"), 1u);
  EXPECT_EQ(c.stats().get("cache.read_hits"), 1u);
}

TEST(Cache, WriteBackDirtiesLineAndFlushReturnsData) {
  Cache c(small_wb());
  c.fill_line(0x100, {0, 0, 0, 0});
  EXPECT_TRUE(c.write_word(0x104, 99));
  EXPECT_TRUE(c.line_dirty(0x100));
  auto wb = c.flush_line(0x100);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(wb->line_addr, 0x100u);
  EXPECT_EQ(wb->data[1], 99u);
  EXPECT_FALSE(c.line_dirty(0x100));
  // Second flush: clean, nothing to do.
  EXPECT_FALSE(c.flush_line(0x100).has_value());
  // Data still readable (flush keeps the line).
  EXPECT_EQ(*c.read_word(0x104), 99u);
}

TEST(Cache, WriteBackMissReturnsFalseForWriteAllocate) {
  Cache c(small_wb());
  EXPECT_FALSE(c.write_word(0x100, 5));
  EXPECT_EQ(c.stats().get("cache.write_misses"), 1u);
}

TEST(Cache, WriteThroughNeverDirty) {
  CacheConfig cfg = small_wb();
  cfg.policy = WritePolicy::kWriteThrough;
  Cache c(cfg);
  c.fill_line(0x100, {1, 2, 3, 4});
  EXPECT_TRUE(c.write_word(0x100, 42));  // hit: updates
  EXPECT_FALSE(c.line_dirty(0x100));
  EXPECT_EQ(*c.read_word(0x100), 42u);
  EXPECT_TRUE(c.write_word(0x2000, 7));  // miss: no-allocate
  EXPECT_FALSE(c.contains(0x2000));
}

TEST(Cache, EvictionWritesBackDirtyVictim) {
  CacheConfig cfg = small_wb();
  cfg.ways = 1;  // direct-mapped makes conflict addresses easy
  Cache c(cfg);
  const Addr a = 0x000;
  const Addr b = a + cfg.size_bytes;  // same set, different tag
  c.fill_line(a, {1, 1, 1, 1});
  c.write_word(a, 77);
  auto wb = c.fill_line(b, {2, 2, 2, 2});
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(wb->line_addr, a);
  EXPECT_EQ(wb->data[0], 77u);
  EXPECT_FALSE(c.contains(a));
  EXPECT_TRUE(c.contains(b));
}

TEST(Cache, CleanEvictionNeedsNoWriteback) {
  CacheConfig cfg = small_wb();
  cfg.ways = 1;
  Cache c(cfg);
  c.fill_line(0x000, {1, 1, 1, 1});
  auto wb = c.fill_line(0x000 + cfg.size_bytes, {2, 2, 2, 2});
  EXPECT_FALSE(wb.has_value());
  EXPECT_EQ(c.stats().get("cache.evictions"), 1u);
}

TEST(Cache, LruPrefersLeastRecentlyUsedVictim) {
  CacheConfig cfg = small_wb();
  cfg.ways = 2;
  Cache c(cfg);
  const Addr set_stride = cfg.size_bytes / cfg.ways;
  const Addr a = 0x0, b = a + set_stride, d = b + set_stride;
  c.fill_line(a, {});
  c.fill_line(b, {});
  ASSERT_TRUE(c.contains(a));
  ASSERT_TRUE(c.contains(b));
  (void)c.read_word(a);  // a is now MRU
  c.fill_line(d, {});    // evicts b
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
  EXPECT_TRUE(c.contains(d));
}

TEST(Cache, InvalidateDropsDirtyDataSilently) {
  Cache c(small_wb());
  c.fill_line(0x100, {5, 5, 5, 5});
  c.write_word(0x100, 9);
  c.invalidate_line(0x100);
  EXPECT_FALSE(c.contains(0x100));
  EXPECT_FALSE(c.flush_line(0x100).has_value());
}

TEST(Cache, InvalidateAllEmptiesCache) {
  Cache c(small_wb());
  c.fill_line(0x100, {});
  c.fill_line(0x200, {});
  c.invalidate_all();
  EXPECT_FALSE(c.contains(0x100));
  EXPECT_FALSE(c.contains(0x200));
}

TEST(Cache, FlushAllReturnsEveryDirtyLine) {
  Cache c(small_wb());
  c.fill_line(0x100, {});
  c.fill_line(0x200, {});
  c.fill_line(0x300, {});
  c.write_word(0x100, 1);
  c.write_word(0x300, 3);
  auto wbs = c.flush_all();
  EXPECT_EQ(wbs.size(), 2u);
  EXPECT_FALSE(c.line_dirty(0x100));
  EXPECT_FALSE(c.line_dirty(0x300));
}

TEST(Cache, HitRateReflectsAccesses) {
  Cache c(small_wb());
  c.fill_line(0x0, {});
  (void)c.read_word(0x0);
  (void)c.read_word(0x4);
  (void)c.read_word(0x4000);  // miss
  EXPECT_NEAR(c.hit_rate(), 2.0 / 3.0, 1e-9);
}

/// Working-set sweep: a set that fits is hit after warm-up; one that
/// doesn't fit (with LRU and a sequential scan) thrashes.
class CacheCapacity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheCapacity, SequentialWorkingSetFitsOrThrashes) {
  const std::uint32_t cache_bytes = GetParam();
  CacheConfig cfg{cache_bytes, kLineBytes, 2, WritePolicy::kWriteBack};
  Cache c(cfg);
  const std::uint32_t ws_bytes = 8 * 1024;
  auto touch_all = [&] {
    int misses = 0;
    for (Addr a = 0; a < ws_bytes; a += kLineBytes) {
      if (!c.read_word(a).has_value()) {
        c.fill_line(a, {});
        ++misses;
      }
    }
    return misses;
  };
  touch_all();  // warm-up
  const int steady_misses = touch_all();
  if (cache_bytes >= ws_bytes) {
    EXPECT_EQ(steady_misses, 0) << "working set should fit";
  } else {
    EXPECT_GT(steady_misses, 0) << "working set cannot fit";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheCapacity,
                         ::testing::Values(2048u, 4096u, 8192u, 16384u,
                                           32768u));

// ---------------------------------------------------------------------
// Eviction-free size dominance: the exactness argument behind the DSE
// sweep's pruning (dse/sweep.h)
// ---------------------------------------------------------------------

/// One cache with the owner behaviour a PE gives it (fill on a read or
/// write-back write miss, write-through stores and writebacks land in a
/// private memory), logging every outcome the owner observes.
struct OwnedCache {
  explicit OwnedCache(CacheConfig cfg) : cache(cfg) {}

  void log_writeback(const std::optional<Writeback>& wb) {
    log.push_back(wb.has_value() ? wb->line_addr : ~0ull);
    if (!wb.has_value()) return;
    log.insert(log.end(), wb->data.begin(), wb->data.end());
    memory[wb->line_addr] = wb->data;
  }
  void fill(Addr a) {
    log_writeback(cache.fill_line(a, memory[line_align(a)]));
  }

  void read(Addr a) {
    const auto v = cache.read_word(a);
    log.push_back(v.has_value() ? *v : ~0ull);
    if (!v.has_value()) {
      fill(a);
      log.push_back(cache.peek_word(a));
    }
  }
  void write(Addr a, std::uint32_t v) {
    const bool done = cache.write_word(a, v);
    log.push_back(done ? 1 : 0);
    if (cache.config().policy == WritePolicy::kWriteThrough) {
      memory[line_align(a)][static_cast<std::size_t>(word_in_line(a))] = v;
    } else if (!done) {
      fill(a);
      cache.poke_word(a, v, /*mark_dirty=*/true);
    }
  }
  void fill_if_absent(Addr a) {
    log.push_back(cache.contains(a) ? 1 : 0);
    if (!cache.contains(a)) fill(a);
  }
  void flush(Addr a) { log_writeback(cache.flush_line(a)); }
  void invalidate(Addr a) {
    log.push_back(cache.contains(a) ? 1 : 0);
    cache.invalidate_line(a);
  }

  Cache cache;
  std::map<Addr, LineData> memory;
  std::vector<std::uint64_t> log;
};

TEST(CacheSizes, EvictionFreeRunIsIdenticalAtTwoAndFourTimesTheSize) {
  // Random streams drive 2-way caches of S, 2S and 4S in lockstep.  A
  // set of the larger cache only ever holds lines of one set of S, so a
  // stream that never evicts at S never evicts at 2S or 4S either, and
  // every outcome, writeback, counter and resident line must match.
  constexpr std::uint32_t kS = 128;  // 8 lines in 4 sets
  sim::Xoshiro256 rng(20260418);
  int eviction_free = 0;
  int evicting = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const WritePolicy policy =
        trial % 2 == 0 ? WritePolicy::kWriteBack : WritePolicy::kWriteThrough;
    std::vector<OwnedCache> caches;
    for (std::uint32_t mult : {1u, 2u, 4u}) {
      caches.emplace_back(CacheConfig{kS * mult, kLineBytes, 2, policy});
    }
    // A footprint of 1-10 lines scattered over 64 line slots.
    std::vector<Addr> lines(1 + rng.next_below(10));
    for (Addr& l : lines) l = rng.next_below(64) * kLineBytes;
    for (int op = 0; op < 80; ++op) {
      const auto line =
          rng.next_below(static_cast<std::uint32_t>(lines.size()));
      const Addr a = lines[line] + rng.next_below(kWordsPerLine) * kWordBytes;
      const std::uint32_t kind = rng.next_below(10);
      const auto v = static_cast<std::uint32_t>(rng.next());
      for (OwnedCache& c : caches) {
        if (kind < 4) {
          c.read(a);
        } else if (kind < 7) {
          c.write(a, v);
        } else if (kind < 8) {
          c.fill_if_absent(a);
        } else if (kind < 9) {
          c.flush(a);
        } else {
          c.invalidate(a);
        }
      }
    }
    if (caches[0].cache.stats().get("cache.evictions") != 0) {
      ++evicting;
      continue;
    }
    ++eviction_free;
    for (std::size_t k = 1; k < caches.size(); ++k) {
      const Cache& big = caches[k].cache;
      ASSERT_EQ(caches[k].log, caches[0].log)
          << "trial " << trial << ", " << big.config().size_bytes << " B";
      EXPECT_EQ(big.stats().counters(), caches[0].cache.stats().counters())
          << "trial " << trial;
      for (Addr l : lines) {
        EXPECT_EQ(big.contains(l), caches[0].cache.contains(l));
        EXPECT_EQ(big.line_dirty(l), caches[0].cache.line_dirty(l));
      }
    }
  }
  // Both branches must occur, or the property was never exercised.
  EXPECT_GT(eviction_free, 50);
  EXPECT_GT(evicting, 50);
}

}  // namespace
}  // namespace medea::mem
