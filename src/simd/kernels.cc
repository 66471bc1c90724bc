// Dispatch layer of the SIMD engine: validates arguments, consults the
// tier ladder (simd/dispatch.h), and routes each kernel-family call to
// the best implementation the active tier allows. This is the only file
// that knows which tiers implement which family.

#include "simd/kernels.h"

#include <algorithm>
#include <stdexcept>

#include "simd/kernels_internal.h"

namespace setint::simd {

const char* intersect_algo_name(IntersectAlgo algo) {
  switch (algo) {
    case IntersectAlgo::kScalarMerge:
      return "scalar_merge";
    case IntersectAlgo::kGallop:
      return "gallop";
    case IntersectAlgo::kBlock:
      return "block";
    case IntersectAlgo::kBlockGallop:
      return "block_gallop";
  }
  return "unknown";
}

IntersectAlgo plan_intersect(std::size_t na, std::size_t nb, Tier tier) {
  if (na > nb) std::swap(na, nb);
  if (na == 0) return IntersectAlgo::kScalarMerge;  // nothing to intersect
  const std::size_t ratio = nb / na;
  if (ratio >= kBlockGallopRatio) {
    return tier == Tier::kAvx2 ? IntersectAlgo::kBlockGallop
                               : IntersectAlgo::kGallop;
  }
  if (ratio >= kGallopRatio) return IntersectAlgo::kGallop;
  if (tier == Tier::kAvx2 && na >= kBlockMinSmall) {
    return IntersectAlgo::kBlock;
  }
  return IntersectAlgo::kScalarMerge;
}

namespace {

std::size_t run_intersect(IntersectAlgo algo, Tier tier,
                          const std::uint64_t* a, std::size_t na,
                          const std::uint64_t* b, std::size_t nb,
                          std::uint64_t* out) {
  // The gallop family wants (small, large); intersection is symmetric.
  const std::uint64_t* s = a;
  const std::uint64_t* l = b;
  std::size_t ns = na, nl = nb;
  if (ns > nl) {
    std::swap(s, l);
    std::swap(ns, nl);
  }
  switch (algo) {
    case IntersectAlgo::kScalarMerge:
      return scalar::intersect_merge(a, na, b, nb, out);
    case IntersectAlgo::kGallop:
      return scalar::intersect_gallop(s, ns, l, nl, out);
    case IntersectAlgo::kBlock:
#if defined(__x86_64__) || defined(_M_X64)
      if (tier == Tier::kAvx2) return avx2::intersect_block(a, na, b, nb, out);
#endif
      // Scalar tier: the block kernel's natural degradation is the merge.
      return scalar::intersect_merge(a, na, b, nb, out);
    case IntersectAlgo::kBlockGallop:
#if defined(__x86_64__) || defined(_M_X64)
      if (tier == Tier::kAvx2) {
        return avx2::intersect_block_gallop(s, ns, l, nl, out);
      }
#endif
      return scalar::intersect_gallop(s, ns, l, nl, out);
  }
  return scalar::intersect_merge(a, na, b, nb, out);
}

void check_out_capacity(std::size_t na, std::size_t nb, std::size_t out_size) {
  const std::size_t bound = std::min(na, nb) + kIntersectPadding;
  if (out_size < bound) {
    throw std::invalid_argument(
        "simd::intersect_sorted: output smaller than min(na, nb) + padding");
  }
}

}  // namespace

std::size_t intersect_sorted(std::span<const std::uint64_t> a,
                             std::span<const std::uint64_t> b,
                             std::span<std::uint64_t> out) {
  check_out_capacity(a.size(), b.size(), out.size());
  const Tier tier = active_tier();
  const IntersectAlgo algo = plan_intersect(a.size(), b.size(), tier);
  return run_intersect(algo, tier, a.data(), a.size(), b.data(), b.size(),
                       out.data());
}

std::size_t intersect_sorted_with(IntersectAlgo algo, Tier tier,
                                  std::span<const std::uint64_t> a,
                                  std::span<const std::uint64_t> b,
                                  std::span<std::uint64_t> out) {
  check_out_capacity(a.size(), b.size(), out.size());
  // Clamp to the hardware: forcing avx2 on a box without it must degrade,
  // never fault. (Deliberately detected_tier, not active_tier: the forced
  // entry exists to reach every real tier even under SETINT_FORCE_SCALAR.)
  const Tier hw = detected_tier();
  if (tier > hw) tier = hw;
  return run_intersect(algo, tier, a.data(), a.size(), b.data(), b.size(),
                       out.data());
}

std::uint64_t bitmap_and_count(std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("simd::bitmap_and_count: length mismatch");
  }
#if defined(__x86_64__) || defined(_M_X64)
  if (active_tier() == Tier::kAvx2) {
    return avx2::bitmap_and_count(a.data(), b.data(), a.size());
  }
#endif
  return scalar::bitmap_and_count(a.data(), b.data(), a.size());
}

void bitmap_and(std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b,
                std::span<std::uint64_t> out) {
  if (a.size() != b.size() || out.size() < a.size()) {
    throw std::invalid_argument("simd::bitmap_and: length mismatch");
  }
#if defined(__x86_64__) || defined(_M_X64)
  if (active_tier() == Tier::kAvx2) {
    avx2::bitmap_and(a.data(), b.data(), out.data(), a.size());
    return;
  }
#endif
  scalar::bitmap_and(a.data(), b.data(), out.data(), a.size());
}

void toeplitz_hash(std::span<const std::uint64_t> message,
                   std::span<const std::uint64_t> key, std::size_t bits,
                   std::span<std::uint64_t> out) {
  const std::size_t no = (bits + 63) / 64;
  if (key.size() < toeplitz_key_words(message.size(), bits) ||
      out.size() < no) {
    throw std::invalid_argument("simd::toeplitz_hash: span too short");
  }
  if (no == 0) return;
#if defined(__x86_64__) || defined(_M_X64)
  if (active_tier() == Tier::kAvx2) {
    avx2::toeplitz_hash(message.data(), message.size(), key.data(),
                        out.data(), no);
  } else
#endif
  {
    scalar::toeplitz_hash(message.data(), message.size(), key.data(),
                          out.data(), no);
  }
  if (bits % 64 != 0) out[no - 1] &= (std::uint64_t{1} << (bits % 64)) - 1;
}

}  // namespace setint::simd
