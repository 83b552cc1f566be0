#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

/// \file ring.h
/// Power-of-two ring buffer: the storage behind every per-cycle queue of
/// the model (sim::Fifo, the PE's write buffer and interface registers,
/// the arbiter, bridge, TIE and MPMMU queues, the XY router's buffers).
///
/// A deque allocates a chunk whenever its back crosses a chunk
/// boundary and frees one whenever its front does, so a queue that only
/// ever holds a few entries still allocates once every few hundred
/// pushes, forever.  A Ring owns one slot array whose length is a power
/// of two, so an index wraps with a mask.  A queue bounded by design is
/// sized at construction and never allocates again; a push on a full
/// ring doubles the array, so an unbounded queue allocates only while it
/// climbs to a new high-water mark.
///
/// Slots are plain values: pop_front() moves the head index and leaves
/// the old value in its slot until a later push overwrites it.
/// Every queue in the model holds trivially copyable records (flits,
/// transaction descriptors), for which that costs nothing.

namespace medea::sim {

template <typename T>
class Ring {
 public:
  Ring() = default;

  /// Room for `n` entries, rounded up to a power of two, before the
  /// first growth (n == 0: no slots until the first push).  Throws
  /// std::length_error when no slot array can hold `n` (a negative
  /// depth cast to std::size_t lands here).
  explicit Ring(std::size_t n) {
    if (n > slots_.max_size()) {
      throw std::length_error("sim::Ring: more slots than memory can hold");
    }
    if (n > 0) reallocate(std::bit_ceil(n));
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots allocated (a power of two, or 0 before the first push).
  std::size_t capacity() const { return slots_.size(); }

  /// Entry `i`, counted from the front.
  T& operator[](std::size_t i) {
    assert(i < size_);
    return slots_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) & mask_];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T v) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask_] = std::move(v);
    ++size_;
  }

  void push_front(T v) {
    if (size_ == slots_.size()) grow();
    head_ = (head_ - 1) & mask_;  // unsigned wrap: 0 - 1 -> mask_
    slots_[head_] = std::move(v);
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

 private:
  /// Slots a ring built empty gets on its first push.
  static constexpr std::size_t kFirstSlots = 4;

  void grow() { reallocate(slots_.empty() ? kFirstSlots : 2 * slots_.size()); }

  /// Move the live entries, in order, to the front of `n` fresh slots.
  void reallocate(std::size_t n) {
    std::vector<T> next(n);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    slots_.swap(next);
    head_ = 0;
    mask_ = n - 1;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;  ///< slot of the front entry
  std::size_t size_ = 0;
  std::size_t mask_ = 0;  ///< slots_.size() - 1 once allocated
};

}  // namespace medea::sim
