// Retained-object pool: one owner per pooled object.
//
// Objects that are created and dropped once per message (the runtime's
// Envelope, the server's per-call context) are not destroyed when their
// owner lets go. The pool's deleter calls T::ResetForReuse() — every field
// back to its default, heap capacity kept — and parks the object on a
// bounded free list for the next Acquire. Recycling the *object* rather than
// raw memory is what keeps capacity across messages (an envelope's
// partition-exchange vectors), and steady-state traffic touches the
// allocator zero times.
//
// Ownership is a std::unique_ptr with the pool's deleter (Pooled<T>): a
// handoff is a move, and exactly one owner releases each object.
//
// The free list is a function-local thread_local. A serial run uses the main
// thread's pool; under the sharded engine each shard worker owns a private
// pool, and an object released on another thread than the one that acquired
// it parks in the *releasing* thread's pool — no lock, no sharing, and each
// pool stays bounded by kMaxCached. Pools outlive every simulation object and
// free their parked objects at thread exit.
//
// Under AddressSanitizer every parked object is poisoned until its next
// Acquire, so a dangling pointer into a recycled object is reported as a
// use-after-poison instead of silently reading the next owner's state.

#ifndef SRC_COMMON_OBJECT_POOL_H_
#define SRC_COMMON_OBJECT_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#define ACTOP_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define ACTOP_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define ACTOP_POOL_POISON(p, n) ((void)(p), (void)(n))
#define ACTOP_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace actop {

// Lifetime counts of one thread's pool (tests and diagnostics).
struct PoolStats {
  uint64_t fresh = 0;     // objects constructed with operator new
  uint64_t recycled = 0;  // objects handed back out from the free list
  size_t cached = 0;      // objects currently parked on the free list
};

template <typename T>
class ObjectPool {
 public:
  // Bounds the free list so a one-off burst does not pin its high-water mark
  // of objects (and their retained capacity) forever.
  static constexpr size_t kMaxCached = 8192;

  // The calling thread's pool.
  static ObjectPool& Instance() {
    thread_local ObjectPool pool;
    return pool;
  }

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  // A default-constructed object, or a parked one after ResetForReuse —
  // indistinguishable except for retained heap capacity.
  T* Acquire() {
    if (free_.empty()) {
      fresh_++;
      return new T();
    }
    T* obj = free_.back();
    free_.pop_back();
    recycled_++;
    ACTOP_POOL_UNPOISON(obj, sizeof(T));
    return obj;
  }

  void Release(T* obj) noexcept {
    if (free_.size() >= kMaxCached) {
      delete obj;
      return;
    }
    obj->ResetForReuse();
    ACTOP_POOL_POISON(obj, sizeof(T));
    free_.push_back(obj);
  }

  PoolStats stats() const { return PoolStats{fresh_, recycled_, free_.size()}; }

 private:
  ObjectPool() = default;
  ~ObjectPool() {
    for (T* obj : free_) {
      ACTOP_POOL_UNPOISON(obj, sizeof(T));
      delete obj;
    }
  }

  std::vector<T*> free_;
  uint64_t fresh_ = 0;
  uint64_t recycled_ = 0;
};

// Returns the object to the releasing thread's pool.
template <typename T>
struct PoolDeleter {
  void operator()(T* obj) const noexcept { ObjectPool<T>::Instance().Release(obj); }
};

// Sole owner of a pooled object; the size of a raw pointer.
template <typename T>
using Pooled = std::unique_ptr<T, PoolDeleter<T>>;

template <typename T>
Pooled<T> AcquirePooled() {
  return Pooled<T>(ObjectPool<T>::Instance().Acquire());
}

}  // namespace actop

#endif  // SRC_COMMON_OBJECT_POOL_H_
