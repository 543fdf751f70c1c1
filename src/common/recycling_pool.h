// Recycling block cache for allocate_shared.
//
// std::make_shared<T> performs one heap allocation per object (the combined
// object + control block). For an object that really is shared — the
// fan-out counter a workload's N sub-call continuations all hold (see
// src/workload/fanout_counter.h) — RecyclingBlockCache keeps freed combined
// blocks on a free list and hands them back to the next allocate_shared of
// the same type, so steady-state fan-outs touch the allocator zero times.
// (Single-owner hot-path objects use src/common/object_pool.h instead.)
//
// The cache is intentionally dumb: it caches blocks of exactly one size (the
// first size it ever sees — for a cache dedicated to one T, that is always
// sizeof(combined block of T)). Other sizes pass through to operator
// new/delete. Not thread-safe: give each thread its own cache. The cache
// must outlive every shared_ptr allocated from it, because the final
// reference drop returns the block to the cache.

#ifndef SRC_COMMON_RECYCLING_POOL_H_
#define SRC_COMMON_RECYCLING_POOL_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace actop {

class RecyclingBlockCache {
 public:
  // `max_cached` bounds the free list so a one-off burst does not pin its
  // high-water mark of memory forever.
  explicit RecyclingBlockCache(size_t max_cached = 8192) : max_cached_(max_cached) {}

  RecyclingBlockCache(const RecyclingBlockCache&) = delete;
  RecyclingBlockCache& operator=(const RecyclingBlockCache&) = delete;

  ~RecyclingBlockCache() {
    for (void* block : free_) ::operator delete(block);
  }

  void* Allocate(size_t bytes) {
    if (block_bytes_ == 0) block_bytes_ = bytes;
    if (bytes == block_bytes_ && !free_.empty()) {
      void* block = free_.back();
      free_.pop_back();
      recycled_++;
      return block;
    }
    fresh_++;
    return ::operator new(bytes);
  }

  void Release(void* block, size_t bytes) {
    if (bytes == block_bytes_ && free_.size() < max_cached_) {
      free_.push_back(block);
      return;
    }
    ::operator delete(block);
  }

  // Introspection for tests and the engine benchmark.
  uint64_t fresh_allocations() const { return fresh_; }
  uint64_t recycled_allocations() const { return recycled_; }
  size_t cached_blocks() const { return free_.size(); }

 private:
  std::vector<void*> free_;
  size_t block_bytes_ = 0;
  size_t max_cached_;
  uint64_t fresh_ = 0;
  uint64_t recycled_ = 0;
};

}  // namespace actop

#endif  // SRC_COMMON_RECYCLING_POOL_H_
