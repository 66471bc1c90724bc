#include "hashing/fks.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "hashing/primes.h"
#include "util/iterated_log.h"

namespace setint::hashing {

FksCompressor FksCompressor::sample(util::Rng& rng, std::uint64_t universe,
                                    std::uint64_t max_elements,
                                    int strength) {
  if (max_elements == 0 || strength < 3) {
    throw std::invalid_argument("FksCompressor: bad parameters");
  }
  // x mod q collides for x != y iff q divides |x - y| < universe. A value
  // below universe has at most log2(universe)/log2(M) prime factors >= M,
  // so with q uniform among primes in [M, 2M] (>= M/(2 ln M) of them) the
  // pairwise collision probability is O(log universe * log M / M). Choose
  // M = max_elements^strength * log2(universe)^2 to push the union over
  // <= max_elements^2 pairs below 1/max_elements^(strength-2).
  const double lg_u =
      std::max(2.0, std::log2(static_cast<double>(universe) + 1.0));
  double m = std::pow(static_cast<double>(max_elements),
                      static_cast<double>(strength)) *
             lg_u * lg_u;
  m = std::max(m, 16.0);
  if (m > 0x1p62) throw std::invalid_argument("FksCompressor: range overflow");
  const auto lo = static_cast<std::uint64_t>(m);
  const std::uint64_t q = random_prime_in(rng, lo, 2 * lo + 1);
  return FksCompressor(q);
}

void FksCompressor::hash_many(std::span<const std::uint64_t> xs,
                              std::span<std::uint64_t> out) const {
  if (out.size() < xs.size()) {
    throw std::invalid_argument("FksCompressor::hash_many: output too small");
  }
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = red_q_.mod(xs[i]);
}

bool FksCompressor::injective_on(util::SetView s) const {
  // Sort-and-scan beats a hash set for the small sets this sees, and does
  // no per-element allocation.
  std::vector<std::uint64_t> images(s.size());
  hash_many(s, images);
  std::sort(images.begin(), images.end());
  return std::adjacent_find(images.begin(), images.end()) == images.end();
}

void FksCompressor::append_seed(util::BitBuffer& out) const {
  out.append_gamma64(q_);
}

FksCompressor FksCompressor::read_seed(util::BitReader& in) {
  const std::uint64_t q = in.read_gamma64();
  if (q < 2) throw std::invalid_argument("FksCompressor: malformed seed");
  return FksCompressor(q);
}

std::size_t FksCompressor::seed_bits() const {
  return util::gamma64_cost_bits(q_);
}

}  // namespace setint::hashing
