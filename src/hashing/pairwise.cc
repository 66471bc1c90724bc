#include "hashing/pairwise.h"

#include <algorithm>
#include <stdexcept>

#include "hashing/primes.h"
#include "util/iterated_log.h"

namespace setint::hashing {

PairwiseHash::PairwiseHash(std::uint64_t p, std::uint64_t a, std::uint64_t b,
                           std::uint64_t t)
    : p_(p), a_(a), b_(b), t_(t), red_p_(p), red_t_(t) {
  if ((p & 1) != 0 && p >= 3 && p < (std::uint64_t{1} << 63)) {
    mont_.emplace(p);
    a_mont_ = mont_->to_mont(a);
  }
}

PairwiseHash PairwiseHash::sample(util::Rng& rng, std::uint64_t universe,
                                  std::uint64_t range) {
  if (range == 0) throw std::invalid_argument("PairwiseHash: range == 0");
  const std::uint64_t floor = std::max<std::uint64_t>({universe, range, 2});
  if (floor > (std::uint64_t{1} << 62)) {
    throw std::invalid_argument("PairwiseHash: universe too large");
  }
  // A prime in [floor, 2*floor] always exists (Bertrand).
  const std::uint64_t p = random_prime_in(rng, floor, 2 * floor + 1);
  const std::uint64_t a = 1 + rng.below(p - 1);
  const std::uint64_t b = rng.below(p);
  return PairwiseHash(p, a, b, range);
}

void PairwiseHash::hash_many(std::span<const std::uint64_t> xs,
                             std::span<std::uint64_t> out) const {
  if (out.size() < xs.size()) {
    throw std::invalid_argument("PairwiseHash::hash_many: output too small");
  }
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = (*this)(xs[i]);
}

void PairwiseHash::append_seed(util::BitBuffer& out) const {
  out.append_gamma64(p_);
  const unsigned w = util::ceil_log2(p_ + 1);
  out.append_bits(a_, w);
  out.append_bits(b_, w);
}

PairwiseHash PairwiseHash::read_seed(util::BitReader& in,
                                     std::uint64_t range) {
  const std::uint64_t p = in.read_gamma64();
  const unsigned w = util::ceil_log2(p + 1);
  const std::uint64_t a = in.read_bits(w);
  const std::uint64_t b = in.read_bits(w);
  if (p < 2 || a == 0 || a >= p || b >= p || range == 0) {
    throw std::invalid_argument("PairwiseHash: malformed seed");
  }
  return PairwiseHash(p, a, b, range);
}

std::size_t PairwiseHash::seed_bits() const {
  return util::gamma64_cost_bits(p_) + 2 * util::ceil_log2(p_ + 1);
}

double PairwiseHash::collision_probability() const {
  // (a*x+b) mod p is a pairwise-uniform injection into [p); folding mod t
  // makes at most ceil(p/t) values coincide per residue.
  const double buckets_per_residue =
      static_cast<double>((p_ + t_ - 1) / t_);
  return buckets_per_residue / static_cast<double>(p_);
}

}  // namespace setint::hashing
