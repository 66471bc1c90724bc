// Division-free modular reduction with precomputed constants.
//
// Every hash evaluation in the library is "(a*x + b) mod p mod t" or
// "x mod q" with a modulus that is FIXED for the lifetime of the hash
// function, yet the original paths paid a hardware divide (u128 `%`) per
// element. The two engines here hoist all division into construction:
//
//   * Reducer64 — Lemire-Kaser direct remainder ("fastmod") for a fixed
//     64-bit divisor d: precompute M = ceil(2^128 / d) once; then
//     a % d == mulhi_128x64(M * a, d) exactly for every 64-bit a. Two
//     multiplies per reduction, no divide.
//   * Montgomery64 — Montgomery multiplication for a fixed odd modulus
//     m < 2^63: (a * b) mod m via one wide multiply plus one REDC step.
//     Used for the pairwise-hash product a*x mod p and for the modular
//     exponentiation inside Miller-Rabin.
//
// Both are EXACT drop-in replacements for `%` — the compute engine
// changes how bits are computed, never which bits are sent (the golden
// transcripts in tests/golden_test.cc and tests/transcript_digest_test.cc
// pin this). Equivalence against the plain-division reference is tested
// over randomized inputs in tests/hashing_test.cc and gated again at
// bench time by `exp_cpu` (docs/PERFORMANCE.md).
#pragma once

#include <cstdint>

namespace setint::hashing {

// a % d for a fixed divisor d >= 1, division-free at evaluation time.
class Reducer64 {
 public:
  // Identity-free default so containers can hold reducers; mod() on a
  // default-constructed instance reduces mod 1 (always 0).
  Reducer64() : m_(0), d_(1) {}

  explicit Reducer64(std::uint64_t d);

  std::uint64_t divisor() const { return d_; }

  // Exact a % d for any 64-bit a (Lemire & Kaser 2019, Theorem 1 with
  // N = 64, F = 2^128).
  std::uint64_t mod(std::uint64_t a) const {
    const unsigned __int128 low = m_ * a;  // M * a mod 2^128
    // mulhi of the 128-bit product with the 64-bit divisor.
    const std::uint64_t lo = static_cast<std::uint64_t>(low);
    const std::uint64_t hi = static_cast<std::uint64_t>(low >> 64);
    const unsigned __int128 bottom =
        (static_cast<unsigned __int128>(lo) * d_) >> 64;
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(hi) * d_ + bottom) >> 64);
  }

 private:
  unsigned __int128 m_;  // ceil(2^128 / d), wrapped (0 when d == 1)
  std::uint64_t d_;
};

// (a * b) mod m for a fixed odd modulus 3 <= m < 2^63.
class Montgomery64 {
 public:
  explicit Montgomery64(std::uint64_t m);

  std::uint64_t modulus() const { return m_; }

  // a * R mod m (R = 2^64): enter the Montgomery domain.
  std::uint64_t to_mont(std::uint64_t a) const {
    return redc(static_cast<unsigned __int128>(a) * r2_);
  }

  // a * R^-1 mod m: leave the Montgomery domain.
  std::uint64_t from_mont(std::uint64_t a) const {
    return redc(static_cast<unsigned __int128>(a));
  }

  // REDC(a_mont * b): with a_mont = to_mont(a) and plain b < 2^64 this is
  // exactly (a * b) mod m — the mixed-domain product the pairwise hash
  // uses (one REDC per element, no conversion of x).
  std::uint64_t mul(std::uint64_t a_mont, std::uint64_t b) const {
    return redc(static_cast<unsigned __int128>(a_mont) * b);
  }

  // x * R^-1 mod m for x < m * 2^64; result < m.
  std::uint64_t redc(unsigned __int128 x) const {
    const std::uint64_t q = static_cast<std::uint64_t>(x) * neg_inv_;
    const std::uint64_t t = static_cast<std::uint64_t>(
        (x + static_cast<unsigned __int128>(q) * m_) >> 64);
    return t >= m_ ? t - m_ : t;
  }

 private:
  std::uint64_t m_;
  std::uint64_t neg_inv_;  // -m^-1 mod 2^64
  std::uint64_t r2_;       // 2^128 mod m
};

}  // namespace setint::hashing
