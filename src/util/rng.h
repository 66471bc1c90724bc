// Deterministic pseudo-randomness for protocol simulation.
//
// All randomness in the library flows through Rng so that every protocol
// run is reproducible from a single 64-bit seed. Substreams derived by
// label make "the shared hash function used at stage i" a pure function of
// (master seed, label) — exactly how a common random string is consumed by
// both parties without communication.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace setint::util {

// xoshiro256** seeded via SplitMix64. Not cryptographic; statistically
// strong enough for the hash families and sampling used here.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Inline: the mask hash draws hundreds of thousands of words a session.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Uniform value in [0, bound) via rejection sampling; bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  // Uniform double in [0, 1) with 53 bits of precision.
  double unit();

  bool coin() { return next() & 1; }

  // A fresh, statistically independent generator determined by this
  // generator's seed and the given label (the generator's own state is not
  // advanced). Both parties holding the same seed derive identical
  // substreams — the mechanism behind shared randomness.
  Rng substream(std::uint64_t label) const;
  Rng substream(std::string_view label, std::uint64_t a = 0,
                std::uint64_t b = 0) const;

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::uint64_t s_[4];
};

// SplitMix64 single step; exposed because hash derivations elsewhere use it
// as a cheap 64-bit mixer.
std::uint64_t splitmix64(std::uint64_t& state);

// Stateless 64-bit mix of two words (used for label hashing).
std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

}  // namespace setint::util
