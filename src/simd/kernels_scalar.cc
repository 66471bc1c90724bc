// Portable scalar reference kernels. The AVX2 tier is differential-tested
// against these.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd/kernels_internal.h"

namespace setint::simd::scalar {

std::size_t intersect_merge(const std::uint64_t* a, std::size_t na,
                            const std::uint64_t* b, std::size_t nb,
                            std::uint64_t* out) {
  std::size_t i = 0, j = 0, c = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out[c++] = a[i];
      ++i;
      ++j;
    }
  }
  return c;
}

namespace {

// First index >= start with arr[index] >= key (n if none): exponential
// probe doubling from start, then binary search inside the bracket.
inline std::size_t gallop_lower_bound(const std::uint64_t* arr, std::size_t n,
                                      std::size_t start, std::uint64_t key) {
  if (start >= n || arr[start] >= key) return start;
  std::size_t offset = 1;
  while (start + offset < n && arr[start + offset] < key) offset <<= 1;
  std::size_t lo = start + (offset >> 1);       // arr[lo] < key
  std::size_t hi = std::min(n, start + offset); // arr[hi] >= key, or hi == n
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (arr[mid] < key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace

std::size_t intersect_gallop(const std::uint64_t* small, std::size_t ns,
                             const std::uint64_t* large, std::size_t nl,
                             std::uint64_t* out) {
  std::size_t pos = 0, c = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    pos = gallop_lower_bound(large, nl, pos, small[i]);
    if (pos == nl) break;
    if (large[pos] == small[i]) out[c++] = small[i];
  }
  return c;
}

std::uint64_t bitmap_and_count(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n) {
  std::uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
    c1 += static_cast<std::uint64_t>(std::popcount(a[i + 1] & b[i + 1]));
    c2 += static_cast<std::uint64_t>(std::popcount(a[i + 2] & b[i + 2]));
    c3 += static_cast<std::uint64_t>(std::popcount(a[i + 3] & b[i + 3]));
  }
  for (; i < n; ++i) {
    c0 += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return c0 + c1 + c2 + c3;
}

void bitmap_and(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] & b[i];
}

}  // namespace setint::simd::scalar
