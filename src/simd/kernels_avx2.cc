// AVX2 tier: 4-wide 64-bit kernels and the PCLMULQDQ Toeplitz product.
// This translation unit is compiled with -mavx2 -mpopcnt -mpclmul
// (per-file flags in src/CMakeLists.txt) and must only be entered when
// the dispatcher has confirmed those features via cpuid — nothing here
// may be called from generic code paths directly.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd/kernels_internal.h"

namespace setint::simd::avx2 {

// NOTE: no namespace-scope __m256i constants in this TU — their dynamic
// initializers would execute AVX2 instructions at program startup even on
// hardware the dispatcher would never route here. All vector constants
// are materialized inside the functions (hoisted by the compiler).

namespace {

// Compress-store LUT: for each 4-bit match mask, the permutevar8x32
// indices that pack the selected 64-bit lanes (as 32-bit pairs) to the
// front. Unselected tail lanes are don't-care (the output padding
// contract absorbs the full-vector store).
struct PermLut {
  alignas(32) std::uint32_t idx[16][8];
};

constexpr PermLut make_perm_lut() {
  PermLut lut{};
  for (int mask = 0; mask < 16; ++mask) {
    int c = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane) & 1) {
        lut.idx[mask][2 * c] = static_cast<std::uint32_t>(2 * lane);
        lut.idx[mask][2 * c + 1] = static_cast<std::uint32_t>(2 * lane + 1);
        ++c;
      }
    }
  }
  return lut;
}

constexpr PermLut kPermLut = make_perm_lut();

}  // namespace

std::size_t intersect_block(const std::uint64_t* a, std::size_t na,
                            const std::uint64_t* b, std::size_t nb,
                            std::uint64_t* out) {
  std::size_t i = 0, j = 0, c = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    // Compare va against vb and its three lane rotations: every a-lane
    // meets every b-lane once.
    const __m256i r1 = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(0, 3, 2, 1));
    const __m256i r2 = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(1, 0, 3, 2));
    const __m256i r3 = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(2, 1, 0, 3));
    const __m256i eq = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpeq_epi64(va, vb),
                        _mm256_cmpeq_epi64(va, r1)),
        _mm256_or_si256(_mm256_cmpeq_epi64(va, r2),
                        _mm256_cmpeq_epi64(va, r3)));
    const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kPermLut.idx[mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c),
                        _mm256_permutevar8x32_epi32(va, perm));
    c += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(mask)));
    const std::uint64_t a_max = a[i + 3];
    const std::uint64_t b_max = b[j + 3];
    if (a_max <= b_max) i += 4;
    if (b_max <= a_max) j += 4;
  }
  return c + scalar::intersect_merge(a + i, na - i, b + j, nb - j, out + c);
}

std::size_t intersect_block_gallop(const std::uint64_t* small, std::size_t ns,
                                   const std::uint64_t* large, std::size_t nl,
                                   std::uint64_t* out) {
  const std::size_t nblocks = nl / 4;
  std::size_t c = 0, blk = 0, k = 0;
  for (; k < ns && blk < nblocks; ++k) {
    const std::uint64_t x = small[k];
    if (large[blk * 4 + 3] < x) {
      // Gallop over 4-element blocks by block max, then binary search.
      std::size_t offset = 1;
      while (blk + offset < nblocks && large[(blk + offset) * 4 + 3] < x) {
        offset <<= 1;
      }
      std::size_t lo = blk + (offset >> 1);        // block max < x
      std::size_t hi = std::min(nblocks, blk + offset);
      while (lo + 1 < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (large[mid * 4 + 3] < x) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      blk = hi;
      if (blk >= nblocks) break;  // x beyond every full block: tail below
    }
    const __m256i vx = _mm256_set1_epi64x(static_cast<long long>(x));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(large + blk * 4));
    const __m256i eq = _mm256_cmpeq_epi64(vx, vb);
    if (_mm256_movemask_pd(_mm256_castsi256_pd(eq)) != 0) out[c++] = x;
  }
  // Remaining small elements can only match in the ragged tail of large.
  return c + scalar::intersect_gallop(small + k, ns - k, large + nblocks * 4,
                                      nl - nblocks * 4, out + c);
}

namespace {

// Mula nibble-LUT popcount: per-byte counts via two PSHUFB lookups,
// horizontally summed into the four 64-bit lanes by SAD against zero.
inline __m256i popcount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                      _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

}  // namespace

std::uint64_t bitmap_and_count(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, popcount256(_mm256_and_si256(va, vb)));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

void bitmap_and(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_and_si256(va, vb));
  }
  for (; i < n; ++i) out[i] = a[i] & b[i];
}

namespace {

// XOR_w m[w] * key[-w]: with key = r + nm - 1 + j this is the product
// P_{nm-1+j} that kernels_scalar.cc derives the output words from. Two
// PCLMULQDQs per pair of 128-bit loads, accumulated in registers.
inline __m128i toeplitz_product(const std::uint64_t* m, std::size_t nm,
                                const std::uint64_t* key) {
  __m128i even = _mm_setzero_si128();
  __m128i odd = _mm_setzero_si128();
  std::size_t w = 0;
  for (; w + 2 <= nm; w += 2) {
    // mw = (m[w], m[w+1]), kw = (key[-w-1], key[-w]).
    const __m128i mw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(m + w));
    const __m128i kw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(key - w - 1));
    even = _mm_xor_si128(even, _mm_clmulepi64_si128(mw, kw, 0x10));
    odd = _mm_xor_si128(odd, _mm_clmulepi64_si128(mw, kw, 0x01));
  }
  if (w < nm) {
    const __m128i mw = _mm_cvtsi64_si128(static_cast<long long>(m[w]));
    const __m128i kw = _mm_cvtsi64_si128(static_cast<long long>(*(key - w)));
    even = _mm_xor_si128(even, _mm_clmulepi64_si128(mw, kw, 0x00));
  }
  return _mm_xor_si128(even, odd);
}

}  // namespace

// The scalar tier's output words from no + 1 products, each product
// accumulated over the whole message before the next one starts.
void toeplitz_hash(const std::uint64_t* m, std::size_t nm,
                   const std::uint64_t* r, std::uint64_t* out, std::size_t no) {
  const std::uint64_t* key = r + nm - 1;
  __m128i cur = toeplitz_product(m, nm, key);
  for (std::size_t o = 0; o < no; ++o) {
    const __m128i next = toeplitz_product(m, nm, key + o + 1);
    const auto lo = static_cast<std::uint64_t>(_mm_cvtsi128_si64(cur));
    const auto hi = static_cast<std::uint64_t>(_mm_extract_epi64(cur, 1));
    const auto next_lo = static_cast<std::uint64_t>(_mm_cvtsi128_si64(next));
    out[o] = (lo >> 63) ^ (hi << 1) ^ (next_lo << 1);
    cur = next;
  }
}

}  // namespace setint::simd::avx2

#endif  // x86-64
