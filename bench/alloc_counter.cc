// The counting allocator: the one replacement of global operator new/delete
// in bench/ and tests/. Every allocation in a binary that links it is counted
// (count and requested bytes), including the over-aligned forms that
// alignas(64) types such as Network::Lane and TreeBarrier::Node take. Benches
// reset or snapshot the totals around a measured phase (see bench/harness.h).
//
// Built as a CMake OBJECT library so the static linker cannot drop the
// replacement: link actop_alloc_counter only into binaries that count.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench/harness.h"

// The replaced operators pair malloc with free by construction, but GCC
// reports -Wmismatched-new-delete when it sees them against inlined library
// deallocations (a known false positive for counting allocators).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void Count(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* AlignedAlloc(std::size_t size, std::align_val_t align) {
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a nonzero size that is a multiple of the alignment.
  if (size > SIZE_MAX - alignment) {
    return nullptr;
  }
  const std::size_t blocks = size == 0 ? 1 : (size + alignment - 1) / alignment;
  return std::aligned_alloc(alignment, blocks * alignment);
}

}  // namespace

namespace actop::bench {

uint64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }
uint64_t AllocBytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }

void ResetAllocCounters() {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_bytes.store(0, std::memory_order_relaxed);
}

}  // namespace actop::bench

void* operator new(std::size_t size) {
  Count(size);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  Count(size);
  return std::malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  Count(size);
  void* p = AlignedAlloc(size, align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  Count(size);
  return AlignedAlloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
