/// producer_consumer — the two synchronization styles side by side.
///
/// A producer streams items to a consumer in two ways:
///  1. a shared-memory ring buffer guarded by the MPMMU lock/unlock
///     protocol (§II-C), with the §II-E flush/invalidate discipline, and
///  2. the eMPI message-passing path over the TIE port (§II-E).
///
/// Prints the cycles per item for both, demonstrating why the paper moves
/// synchronization off the memory hierarchy.
///
/// Usage: ./examples/producer_consumer [items >= 1, default 64]

#include <cstdio>
#include <limits>
#include <stdexcept>

#include "cli_flags.h"
#include "core/medea.h"

using namespace medea;

namespace {

constexpr int kSlots = 4;  // ring capacity

struct Ring {
  mem::Addr lock_word;  // protects head/tail
  mem::Addr head;       // next write index (producer)
  mem::Addr tail;       // next read index (consumer)
  mem::Addr slots;      // kSlots data words
};

sim::Task<> sm_producer(pe::ProcessingElement& pe, Ring r, int items) {
  for (int i = 0; i < items;) {
    co_await pe.lock(r.lock_word);
    auto h = co_await pe.load_uncached(r.head);
    auto t = co_await pe.load_uncached(r.tail);
    if (h.value - t.value < kSlots) {  // space available
      const mem::Addr slot = r.slots + (h.value % kSlots) * 4;
      co_await pe.store_uncached(slot, static_cast<std::uint32_t>(100 + i));
      co_await pe.store_uncached(r.head,
                                 static_cast<std::uint32_t>(h.value) + 1);
      ++i;
    }
    co_await pe.unlock(r.lock_word);
  }
}

sim::Task<> sm_consumer(pe::ProcessingElement& pe, Ring r, int items,
                        sim::Cycle* done) {
  for (int i = 0; i < items;) {
    co_await pe.lock(r.lock_word);
    auto h = co_await pe.load_uncached(r.head);
    auto t = co_await pe.load_uncached(r.tail);
    if (t.value < h.value) {  // item available
      const mem::Addr slot = r.slots + (t.value % kSlots) * 4;
      auto v = co_await pe.load_uncached(slot);
      (void)v;
      co_await pe.store_uncached(r.tail,
                                 static_cast<std::uint32_t>(t.value) + 1);
      ++i;
    }
    co_await pe.unlock(r.lock_word);
  }
  *done = pe.now();
}

sim::Task<> mp_producer(pe::ProcessingElement& pe, int consumer, int items) {
  std::vector<std::uint32_t> item(1);
  for (int i = 0; i < items; ++i) {
    item[0] = static_cast<std::uint32_t>(100 + i);
    co_await pe.mp_send(consumer, item);
  }
}

sim::Task<> mp_consumer(pe::ProcessingElement& pe, int producer, int items,
                        sim::Cycle* done) {
  for (int i = 0; i < items; ++i) {
    auto r = co_await pe.mp_recv(producer);
    (void)r;
  }
  *done = pe.now();
}

}  // namespace

int main(int argc, char** argv) {
  int items = 0;
  try {
    items = cli::positional(argc, argv, 1, "items", 64, 1,
                            std::numeric_limits<int>::max());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  core::MedeaConfig cfg;
  cfg.num_compute_cores = 2;

  sim::Cycle sm_done = 0;
  {
    core::MedeaSystem sys(cfg);
    Ring r;
    r.lock_word = sys.alloc_shared(16, 16);
    r.head = r.lock_word + 4;
    r.tail = r.lock_word + 8;
    r.slots = sys.alloc_shared(kSlots * 4, 16);
    sys.set_program(0, sm_producer(sys.core(0), r, items));
    sys.set_program(1, sm_consumer(sys.core(1), r, items, &sm_done));
    sys.run();
  }

  sim::Cycle mp_done = 0;
  {
    core::MedeaSystem sys(cfg);
    sys.set_program(0, mp_producer(sys.core(0), sys.node_of_rank(1), items));
    sys.set_program(1, mp_consumer(sys.core(1), sys.node_of_rank(0), items,
                                   &mp_done));
    sys.run();
  }

  std::printf("producer/consumer, %d items:\n", items);
  std::printf("  shared-memory ring + MPMMU locks: %8llu cycles "
              "(%.1f cycles/item)\n",
              static_cast<unsigned long long>(sm_done),
              static_cast<double>(sm_done) / items);
  std::printf("  eMPI message passing:             %8llu cycles "
              "(%.1f cycles/item)\n",
              static_cast<unsigned long long>(mp_done),
              static_cast<double>(mp_done) / items);
  std::printf("  message passing advantage:        %8.1fx\n",
              static_cast<double>(sm_done) / static_cast<double>(mp_done));
  return 0;
}
