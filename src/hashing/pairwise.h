// Carter-Wegman pairwise-independent hashing h(x) = ((a*x + b) mod p) mod t.
//
// This is the h: [n] -> [t] the paper invokes in Fact 2.2 and throughout:
// for any x != y, Pr[h(x) = h(y)] <= 2/t (the extra factor of <= 2 comes
// from the final mod t; range sizing in callers accounts for it). The seed
// is O(log p) bits, which is what makes the constructive private-coin
// variant (Section 3.1) cheap.
//
// Evaluation is division-free: construction precomputes a Montgomery
// context for the a*x product and Lemire reducers for the two folds
// (hashing/barrett.h), so the per-element cost is a handful of multiplies.
// The values produced are bit-identical to the plain (a*x + b) % p % t
// formula — golden transcripts pin this (docs/PERFORMANCE.md).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "hashing/barrett.h"
#include "hashing/modmath.h"
#include "util/bitio.h"
#include "util/rng.h"

namespace setint::hashing {

class PairwiseHash {
 public:
  // Hash from [universe) onto [range). Draws a prime p >= max(universe,
  // range, 2) and uniform a in [1, p), b in [0, p).
  static PairwiseHash sample(util::Rng& rng, std::uint64_t universe,
                             std::uint64_t range);

  std::uint64_t operator()(std::uint64_t x) const {
    const std::uint64_t xr = red_p_.mod(x);
    const std::uint64_t ax =
        mont_ ? mont_->mul(a_mont_, xr) : mulmod(a_, xr, p_);
    // addmod without overflow: both operands are < p.
    const std::uint64_t space = p_ - ax;
    const std::uint64_t v = b_ >= space ? b_ - space : ax + b_;
    return red_t_.mod(v);
  }

  // Array-batched evaluation: out[i] = (*this)(xs[i]). Requires
  // out.size() >= xs.size(). Same values as the scalar loop (pinned by
  // tests/bitio_property_test.cc).
  void hash_many(std::span<const std::uint64_t> xs,
                 std::span<std::uint64_t> out) const;

  std::uint64_t range() const { return t_; }
  std::uint64_t prime() const { return p_; }
  // Seed constants (already public via append_seed); reference baselines
  // in tests and the CPU bench recompute ((a*x + b) % p) % t from these.
  std::uint64_t multiplier() const { return a_; }
  std::uint64_t offset() const { return b_; }

  // Seed serialization: lets one party sample the function privately and
  // ship it to the peer (private-coin protocols). The universe/range are
  // protocol constants and are not re-transmitted.
  void append_seed(util::BitBuffer& out) const;
  static PairwiseHash read_seed(util::BitReader& in, std::uint64_t range);
  std::size_t seed_bits() const;

  // Pairwise collision bound for this instance: Pr[h(x)=h(y)] for x != y.
  double collision_probability() const;

 private:
  PairwiseHash(std::uint64_t p, std::uint64_t a, std::uint64_t b,
               std::uint64_t t);

  std::uint64_t p_;
  std::uint64_t a_;
  std::uint64_t b_;
  std::uint64_t t_;

  // Precomputed reduction state (derived from p_, a_, t_; never
  // serialized). mont_ is absent only for p == 2, where the plain mulmod
  // fallback runs (a prime that small never reaches a hot path).
  Reducer64 red_p_;
  Reducer64 red_t_;
  std::optional<Montgomery64> mont_;
  std::uint64_t a_mont_ = 0;  // a in Montgomery form, when mont_ is set
};

}  // namespace setint::hashing
