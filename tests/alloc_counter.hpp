#pragma once
// Allocation counting for the zero-allocation contract tests: replaces
// the global operator new/delete so a test can assert the heap traffic
// of a region instead of assuming it.  g_allocations only ever
// increments, so tests measure deltas around the region of interest;
// g_live_bytes follows the heap bytes held (malloc's usable size of each
// block, so new and delete agree), so a delta bounds what a structure
// keeps.
//
// Include from exactly one translation unit of a test executable (every
// test_*.cpp is its own executable): the replacements are ordinary
// definitions.  They are never inlined, so GCC does not pair an inlined
// malloc with a library call site's delete and warn about a mismatch
// (-Wmismatched-new-delete).

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* count_allocation(void* p) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void release(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = count_allocation(std::malloc(size))) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  return count_allocation(std::malloc(size));
}

// Over-aligned types (EventQueue's cache-line Slot) allocate through the
// align_val_t forms; they count the same way.
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t al) {
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc wants a multiple of the alignment.
  if (void* p = count_allocation(
          std::aligned_alloc(align, (size + align - 1) / align * align))) {
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { release(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  release(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  release(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  release(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  release(p);
}
