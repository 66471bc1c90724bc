// Shared vs. private randomness sources.
//
// SharedRandomness models the common random string: both parties derive
// identical hash functions from it at zero communication cost. In the
// private-coin model (core/private_coin.h) one party samples seeds locally
// and ships them explicitly, paying the bits the paper's Section 3.1
// accounts for.
#pragma once

#include <cstdint>

#include "util/rng.h"

namespace setint::sim {

class SharedRandomness {
 public:
  explicit SharedRandomness(std::uint64_t seed) : master_(seed) {}

  // Named substream: a fresh generator fully determined by (seed, label,
  // a, b). Both parties calling with identical arguments get identical
  // streams — the common-random-string access pattern.
  util::Rng stream(util::StreamLabel label, std::uint64_t a = 0,
                   std::uint64_t b = 0) const {
    return master_.substream(label, a, b);
  }

  std::uint64_t seed() const { return master_.seed(); }

 private:
  util::Rng master_;
};

}  // namespace setint::sim
