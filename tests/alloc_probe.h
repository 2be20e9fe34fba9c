// Test-only global operator new/delete counting hook.
//
// Include this header in EXACTLY ONE translation unit per test binary: it
// defines the global allocation operators, so a second inclusion in the
// same binary is an ODR violation the linker will reject. Binaries that
// include it count every heap allocation in the process, which is what the
// zero-alloc steady-state assertions need — a hidden allocation anywhere
// (solver, journal, std container rehash) is caught, not just ones behind
// an instrumented interface.
//
// Counters are atomics so multi-threaded tests read coherent totals, and
// the hooks never allocate themselves. Besides the allocation count and the
// requested bytes, the probe keeps the live heap: malloc_usable_size of
// every block added on allocation and taken off on free, so a test can ask
// how much an object still holds after a workload has come and gone.
// Sized, array, nothrow, and aligned variants all funnel through the same
// two counting functions; the alignment overloads exist because the
// arena's aligned growth path would otherwise bypass the probe.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <malloc.h>

namespace bass::testing {

struct AllocCounters {
  std::atomic<std::int64_t> allocations{0};
  std::atomic<std::int64_t> deallocations{0};
  std::atomic<std::int64_t> bytes{0};
  std::atomic<std::int64_t> live_bytes{0};
};

inline AllocCounters& alloc_counters() {
  static AllocCounters counters;
  return counters;
}

// Snapshot for before/after deltas around a region of interest.
struct AllocSnapshot {
  std::int64_t allocations = 0;
  std::int64_t bytes = 0;
};

inline AllocSnapshot take_alloc_snapshot() {
  auto& c = alloc_counters();
  return {c.allocations.load(std::memory_order_relaxed),
          c.bytes.load(std::memory_order_relaxed)};
}

inline std::int64_t allocations_since(const AllocSnapshot& snap) {
  return alloc_counters().allocations.load(std::memory_order_relaxed) -
         snap.allocations;
}

inline std::int64_t bytes_since(const AllocSnapshot& snap) {
  return alloc_counters().bytes.load(std::memory_order_relaxed) - snap.bytes;
}

// Heap bytes allocated through operator new and not yet freed.
inline std::int64_t live_bytes() {
  return alloc_counters().live_bytes.load(std::memory_order_relaxed);
}

namespace detail {

inline void* counted_alloc(std::size_t size, std::size_t align) {
  auto& c = alloc_counters();
  c.allocations.fetch_add(1, std::memory_order_relaxed);
  c.bytes.fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  c.live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

inline void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  auto& c = alloc_counters();
  c.deallocations.fetch_add(1, std::memory_order_relaxed);
  c.live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace detail
}  // namespace bass::testing

// ---- Global operator replacements (one TU per binary) ----

void* operator new(std::size_t size) {
  return bass::testing::detail::counted_alloc(size, 0);
}
void* operator new[](std::size_t size) {
  return bass::testing::detail::counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return bass::testing::detail::counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return bass::testing::detail::counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return bass::testing::detail::counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return bass::testing::detail::counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { bass::testing::detail::counted_free(p); }
void operator delete[](void* p) noexcept { bass::testing::detail::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  bass::testing::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  bass::testing::detail::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  bass::testing::detail::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  bass::testing::detail::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  bass::testing::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  bass::testing::detail::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  bass::testing::detail::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  bass::testing::detail::counted_free(p);
}
