#include "mem/cache.h"

#include <cassert>

namespace medea::mem {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  assert(cfg_.line_bytes == kLineBytes && "model is fixed at 16-byte lines");
  assert(cfg_.size_bytes % cfg_.line_bytes == 0);
  assert(cfg_.ways >= 1 && cfg_.num_lines() % cfg_.ways == 0);
  assert((cfg_.num_sets() & (cfg_.num_sets() - 1)) == 0 &&
         "number of sets must be a power of two");
  lines_.resize(cfg_.num_lines());
}

const Cache::Line* Cache::find(Addr addr) const {
  const Addr tag = line_align(addr);
  const std::uint32_t set = set_index(addr);
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    const Line& l = lines_[set * cfg_.ways + w];
    if (l.valid && l.tag == tag) return &l;
  }
  return nullptr;
}

Cache::Line* Cache::find(Addr addr) {
  return const_cast<Line*>(static_cast<const Cache*>(this)->find(addr));
}

Cache::Line& Cache::victim(Addr addr) {
  const std::uint32_t set = set_index(addr);
  Line* best = &lines_[set * cfg_.ways];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& l = lines_[set * cfg_.ways + w];
    if (!l.valid) return l;  // prefer empty ways
    if (l.lru < best->lru) best = &l;
  }
  return *best;
}

std::optional<std::uint32_t> Cache::read_word(Addr addr) {
  ++access_clock_;
  if (Line* l = find(addr)) {
    l->lru = access_clock_;
    ++st_read_hits_;
    return l->data[static_cast<std::size_t>(word_in_line(addr))];
  }
  ++st_read_misses_;
  return std::nullopt;
}

bool Cache::write_word(Addr addr, std::uint32_t value) {
  ++access_clock_;
  Line* l = find(addr);
  if (cfg_.policy == WritePolicy::kWriteBack) {
    if (l == nullptr) {
      ++st_write_misses_;
      return false;  // write-allocate: owner fills then retries
    }
    l->lru = access_clock_;
    l->data[static_cast<std::size_t>(word_in_line(addr))] = value;
    l->dirty = true;
    ++st_write_hits_;
    return true;
  }
  // Write-through, no-allocate: update on hit, never dirty.
  if (l != nullptr) {
    l->lru = access_clock_;
    l->data[static_cast<std::size_t>(word_in_line(addr))] = value;
    ++st_write_hits_;
  } else {
    ++st_write_misses_;
  }
  return true;
}

std::optional<Writeback> Cache::fill_line(Addr line_addr,
                                          const LineData& data) {
  line_addr = line_align(line_addr);
  assert(find(line_addr) == nullptr && "fill of a line already present");
  ++access_clock_;
  Line& v = victim(line_addr);
  std::optional<Writeback> wb;
  if (v.valid && v.dirty) {
    wb = Writeback{v.tag, v.data};
    ++st_writebacks_;
  }
  if (v.valid) ++st_evictions_;
  v.valid = true;
  v.dirty = false;
  v.tag = line_addr;
  v.lru = access_clock_;
  v.data = data;
  ++st_fills_;
  return wb;
}

std::uint32_t Cache::peek_word(Addr addr) {
  Line* l = find(addr);
  assert(l != nullptr && "peek_word requires a resident line");
  l->lru = ++access_clock_;
  return l->data[static_cast<std::size_t>(word_in_line(addr))];
}

void Cache::poke_word(Addr addr, std::uint32_t value, bool mark_dirty) {
  Line* l = find(addr);
  assert(l != nullptr && "poke_word requires a resident line");
  l->lru = ++access_clock_;
  l->data[static_cast<std::size_t>(word_in_line(addr))] = value;
  if (mark_dirty) l->dirty = true;
}

std::optional<Writeback> Cache::flush_line(Addr addr) {
  Line* l = find(addr);
  if (l == nullptr || !l->dirty) return std::nullopt;
  l->dirty = false;
  stats_.inc("cache.flush_writebacks");
  return Writeback{l->tag, l->data};
}

void Cache::invalidate_line(Addr addr) {
  if (Line* l = find(addr)) {
    l->valid = false;
    l->dirty = false;
    stats_.inc("cache.invalidates");
  }
}

std::vector<Writeback> Cache::flush_all() {
  std::size_t dirty = 0;
  for (const Line& l : lines_) dirty += l.valid && l.dirty ? 1 : 0;
  std::vector<Writeback> out;
  out.reserve(dirty);  // one allocation, not one per doubling
  for (Line& l : lines_) {
    if (l.valid && l.dirty) {
      out.push_back(Writeback{l.tag, l.data});
      l.dirty = false;
    }
  }
  return out;
}

void Cache::invalidate_all() {
  for (Line& l : lines_) {
    l.valid = false;
    l.dirty = false;
  }
}

double Cache::hit_rate() const {
  const auto hits =
      stats_.get("cache.read_hits") + stats_.get("cache.write_hits");
  const auto misses =
      stats_.get("cache.read_misses") + stats_.get("cache.write_misses");
  const auto total = hits + misses;
  if (total == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace medea::mem
