#pragma once
// Allocation counting for the zero-allocation contract tests: replaces
// the global operator new/delete so a test can assert the heap traffic
// of a region instead of assuming it.  The counter only ever increments,
// so tests measure deltas around the region of interest.
//
// Include from exactly one translation unit of a test executable (every
// test_*.cpp is its own executable): the replacements are ordinary
// definitions.  They are never inlined, so GCC does not pair an inlined
// malloc with a library call site's delete and warn about a mismatch
// (-Wmismatched-new-delete).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
