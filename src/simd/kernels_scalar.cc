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

namespace {

// Output words per pass of the scalar Toeplitz kernel: the block of
// 128-bit partial products lives on the stack.
constexpr std::size_t kToeplitzBlock = 32;

struct Clmul128 {
  std::uint64_t lo = 0, hi = 0;
};

// The carry-less products of a with every polynomial of degree < 4.
void clmul_table(std::uint64_t a, Clmul128 (&t)[16]) {
  t[0] = {};
  t[1] = {a, 0};
  for (int i = 2; i < 16; i += 2) {
    const Clmul128& half = t[i / 2];
    t[i] = {half.lo << 1, (half.hi << 1) | (half.lo >> 63)};
    t[i + 1] = {t[i].lo ^ a, t[i].hi};
  }
}

// a * b over GF(2)[x], given a's table: Horner over b's nibbles, high
// nibble first.
Clmul128 clmul(const Clmul128 (&t)[16], std::uint64_t b) {
  Clmul128 p;
  for (int shift = 60; shift >= 0; shift -= 4) {
    p.hi = (p.hi << 4) | (p.lo >> 60);
    p.lo <<= 4;
    const Clmul128& e = t[(b >> shift) & 15];
    p.lo ^= e.lo;
    p.hi ^= e.hi;
  }
  return p;
}

}  // namespace

// With P_s = XOR_{w+v=s} m[w] * r[v] (carry-less, 128 bits each), the
// full product m * r has bits 64 s .. 64 s + 127 of P_s at its position
// 64 s. Output word o is the product's bits 64 (nm + o) - 1 onward:
// bits 63..126 of P_{nm-1+o} and bits 0..62 of P_{nm+o}, so out[o] =
// P_{nm-1+o} >> 63 ^ lo(P_{nm+o}) << 1. The AVX2 tier computes the same
// products with PCLMULQDQ. Here each message word's nibble table is built
// once per block of output words and reused across the block.
void toeplitz_hash(const std::uint64_t* m, std::size_t nm,
                   const std::uint64_t* r, std::uint64_t* out, std::size_t no) {
  for (std::size_t o0 = 0; o0 < no; o0 += kToeplitzBlock) {
    const std::size_t n = std::min(kToeplitzBlock, no - o0);
    Clmul128 acc[kToeplitzBlock + 1];  // acc[j] = P_{nm-1+o0+j}
    for (std::size_t w = 0; w < nm; ++w) {
      Clmul128 table[16];
      clmul_table(m[w], table);
      const std::uint64_t* key = r + (nm - 1 - w) + o0;
      for (std::size_t j = 0; j <= n; ++j) {
        const Clmul128 p = clmul(table, key[j]);
        acc[j].lo ^= p.lo;
        acc[j].hi ^= p.hi;
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      out[o0 + j] = (acc[j].lo >> 63) ^ (acc[j].hi << 1) ^ (acc[j + 1].lo << 1);
    }
  }
}

}  // namespace setint::simd::scalar
