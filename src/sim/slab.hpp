#pragma once
// A slab: slot-indexed storage in fixed chunks with a free list.  Chunks
// never move, so a slot's address is stable while others are taken (a
// caller may hold a slot's object across takes that append a chunk);
// take() and free() are O(1), and the storage follows the peak number
// of slots in use, one chunk at a time, where a doubling vector would
// keep up to twice that.  std::deque is no substitute: it keeps only a
// few large objects per node and pays for its index arithmetic on every
// access.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace gridfed::sim {

template <typename T, std::uint32_t kChunk>
class Slab {
 public:
  /// A free slot: the most recently freed one, else a never-used one
  /// (appending a chunk when the last is full).  Its object keeps
  /// whatever the slot last held; a never-used slot's is
  /// value-initialized.
  [[nodiscard]] std::uint32_t take() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    const std::uint32_t slot = slots_++;
    if (slot % kChunk == 0) chunks_.push_back(std::make_unique<T[]>(kChunk));
    return slot;
  }

  /// Returns `slot` to the free list.
  void free(std::uint32_t slot) { free_.push_back(slot); }

  [[nodiscard]] T& operator[](std::uint32_t slot) {
    return chunks_[slot / kChunk][slot % kChunk];
  }

  /// Slots taken and not freed.
  [[nodiscard]] std::size_t in_use() const noexcept {
    return slots_ - free_.size();
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::uint32_t slots_ = 0;  ///< slots ever taken
  std::vector<std::uint32_t> free_;
};

}  // namespace gridfed::sim
