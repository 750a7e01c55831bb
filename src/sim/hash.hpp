#pragma once
// FNV-1a-style 64-bit hashing: the tree transport's shape and edge keys,
// the benchmark's outcome digest, and core::outcome_digest, which the
// golden-digest test suites pin per-job outcomes with.

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gridfed::sim {

/// Not the standard FNV-64 offset basis (14695981039346656037): its last
/// decimal digit was dropped.  Kept as is, because every golden digest
/// was recorded from it.
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Folds `n` bytes into the running hash `h` (seed with kFnvOffsetBasis).
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t h, const void* data,
                                         std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Folds one trivially copyable value's object bytes into `h`.
template <typename T>
[[nodiscard]] std::uint64_t fnv1a_mix(std::uint64_t h, T value) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  return fnv1a(h, bytes, sizeof(T));
}

}  // namespace gridfed::sim
