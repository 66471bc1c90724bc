// Per-tier kernel entry points, shared between the dispatch layer
// (kernels.cc) and the tier translation units. Internal to src/simd/ —
// callers use simd/kernels.h.
//
// The AVX2 TU is compiled with exactly the ISA flags its tier needs (see
// src/CMakeLists.txt); code outside that TU must never call into it
// unless cpuid says the instructions exist. The scalar namespace is the
// reference implementation the AVX2 tier is differential-tested against
// (tests/simd_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"

namespace setint::simd {

namespace scalar {

// Two-pointer merge; accepts the operands in either order.
std::size_t intersect_merge(const std::uint64_t* a, std::size_t na,
                            const std::uint64_t* b, std::size_t nb,
                            std::uint64_t* out);

// Exponential + binary search of each element of the SMALL set in the
// large one; callers pass the smaller operand first.
std::size_t intersect_gallop(const std::uint64_t* small, std::size_t ns,
                             const std::uint64_t* large, std::size_t nl,
                             std::uint64_t* out);

std::uint64_t bitmap_and_count(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n);
void bitmap_and(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out, std::size_t n);

// Every output word of the Toeplitz product (simd::toeplitz_hash) of the
// nm-word message m with key r (nm + no words) into out[0, no), the last
// word unmasked.
void toeplitz_hash(const std::uint64_t* m, std::size_t nm,
                   const std::uint64_t* r, std::uint64_t* out, std::size_t no);

}  // namespace scalar

#if defined(__x86_64__) || defined(_M_X64)

namespace avx2 {

std::size_t intersect_block(const std::uint64_t* a, std::size_t na,
                            const std::uint64_t* b, std::size_t nb,
                            std::uint64_t* out);
std::size_t intersect_block_gallop(const std::uint64_t* small, std::size_t ns,
                                   const std::uint64_t* large, std::size_t nl,
                                   std::uint64_t* out);
std::uint64_t bitmap_and_count(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n);
void bitmap_and(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out, std::size_t n);
void toeplitz_hash(const std::uint64_t* m, std::size_t nm,
                   const std::uint64_t* r, std::uint64_t* out, std::size_t no);

}  // namespace avx2

#endif  // x86-64

}  // namespace setint::simd
