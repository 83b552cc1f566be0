/// Steady-state allocation guard: once a run has warmed up, simulating
/// more cycles must not touch the heap.  This binary replaces the global
/// operator new with one that counts calls inside a window.  Both runs
/// below are deterministic, so the counts are exact and the assertions
/// are equalities, not timing bounds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "apps/jacobi.h"
#include "core/system.h"
#include "dse/sweep.h"
#include "noc/network.h"
#include "noc/traffic.h"
#include "sim/domain.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void count_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

// The replaceable allocation functions.  The array and nothrow forms
// forward to these in libstdc++ and libc++, so they are counted too.
void* operator new(std::size_t n) {
  count_allocation();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t al) {
  count_allocation();
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace medea {
namespace {

/// Heap allocations made, on any thread, while `fn` runs.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

// Uniform random traffic at 0.3 flits/node/cycle on an 8x8 deflection
// torus, well below saturation.  By cycle 200 every queue has reached
// its high-water mark; cycles 200-1000 route thousands of flits through
// link FIFOs, route-set sorts and the kernel's batches without a single
// allocation.
TEST(SteadyStateAlloc, UniformTorusAllocatesNothingAfterWarmUp) {
  sim::SimDomain dom{sim::SchedulerConfig{}};
  noc::Network net(dom, noc::TorusGeometry(8, 8));
  noc::TrafficConfig tc;
  tc.injection_rate = 0.3;
  tc.flits_per_node = -1;  // keep injecting through the whole window
  std::vector<std::unique_ptr<noc::TrafficEndpoint<noc::Network>>> eps;
  for (int i = 0; i < net.num_nodes(); ++i) {
    eps.push_back(std::make_unique<noc::TrafficEndpoint<noc::Network>>(
        net.sched_of(i), net, i, tc));
  }
  ASSERT_FALSE(dom.run(200));  // the cycle limit stops it
  const std::uint64_t delivered_before = net.stats().get("noc.flits_delivered");
  bool stopped_at_limit = false;
  const std::uint64_t allocs =
      allocations_during([&] { stopped_at_limit = !dom.run(1000); });
  ASSERT_TRUE(stopped_at_limit);
  EXPECT_EQ(allocs, 0u);
  // The window carried real traffic: about 0.3 * 64 flits per cycle.
  EXPECT_GT(net.stats().get("noc.flits_delivered") - delivered_before, 10000u);
}

/// Allocations made by run_jacobi on a fresh 30x30, 8-core, 16 kB,
/// write-through, pure shared-memory system, after two warm-up
/// iterations.  Jacobi alternates between two grid buffers, so the
/// first warm-cache pass over each buffer is the second and the third
/// iteration.  The third still reaches new high-water marks: the
/// kernel's spill-node pool grows, and most PEs stall on a full write
/// buffer for the first time, which inserts the
/// "pe.write_buffer_stalls" counter.  Two warm-up iterations put both
/// passes ahead of the timed ones.
std::uint64_t wt_jacobi_allocations(int timed_iterations) {
  core::MedeaSystem sys(
      dse::make_design_config(8, 16, mem::WritePolicy::kWriteThrough));
  apps::JacobiParams p;
  p.n = 30;
  p.variant = apps::JacobiVariant::kPureSharedMemory;
  p.warmup_iterations = 2;
  p.timed_iterations = timed_iterations;
  return allocations_during([&] { apps::run_jacobi(sys, p); });
}

// Write-through stores keep the PE's write buffer, bridge and arbiter
// queues and the MPMMU busy every cycle.  Two more timed iterations
// (hundreds of thousands of cycles) must add no allocation: whatever a
// run allocates, it allocates while setting up or warming up.
TEST(SteadyStateAlloc, WtJacobiIterationsAllocateNothing) {
  // Warm the thread-local coroutine frame pool, so that both measured
  // runs start from the same pool state.
  wt_jacobi_allocations(1);
  const std::uint64_t one = wt_jacobi_allocations(1);
  const std::uint64_t three = wt_jacobi_allocations(3);
  EXPECT_EQ(one, three);
}

}  // namespace
}  // namespace medea
