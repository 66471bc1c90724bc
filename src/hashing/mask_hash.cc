#include "hashing/mask_hash.h"

#include <bit>
#include <stdexcept>

namespace setint::hashing {

std::uint64_t mask_hash(const util::BitBuffer& data, unsigned bits,
                        util::Rng stream) {
  if (bits > 64) throw std::invalid_argument("mask_hash: bits > 64");
  const auto& words = data.words();
  const std::size_t nbits = data.size_bits();
  const std::size_t full = nbits / 64;
  const unsigned tail = static_cast<unsigned>(nbits % 64);
  const std::uint64_t tail_mask =
      tail == 0 ? 0 : ((tail == 64) ? ~std::uint64_t{0}
                                    : ((std::uint64_t{1} << tail) - 1));
  std::uint64_t out = 0;
  if (nbits > 0 && nbits <= 64) {
    // Single-word fast path (the common case: bucketed element payloads
    // fit one word). Exactly two stream draws per hash bit, in the same
    // order as the generic loop below, so the output is bit-identical.
    const std::uint64_t word =
        tail == 0 ? words[0] : (words[0] & tail_mask);
    for (unsigned b = 0; b < bits; ++b) {
      std::uint64_t acc = stream.next() & nbits;
      acc ^= stream.next() & word;
      out |= static_cast<std::uint64_t>(std::popcount(acc) & 1) << b;
    }
    return out;
  }
  for (unsigned b = 0; b < bits; ++b) {
    // Parity of AND between data and a fresh mask. Length information is
    // folded in via an extra mask word keyed on nbits so that messages that
    // are prefixes of one another still hash independently. The parity of
    // a XOR of words is the XOR of their parities, so the masked words
    // fold into one accumulator and one popcount per output bit.
    std::uint64_t acc = stream.next() & nbits;
    for (std::size_t w = 0; w < full; ++w) acc ^= stream.next() & words[w];
    if (tail != 0) acc ^= stream.next() & words[full] & tail_mask;
    out |= static_cast<std::uint64_t>(std::popcount(acc) & 1) << b;
  }
  return out;
}

void mask_hash_wide(const util::BitBuffer& data, std::size_t bits,
                    const util::Rng& stream, util::BitBuffer& out) {
  std::size_t emitted = 0;
  std::uint64_t chunk_index = 0;
  while (emitted < bits) {
    const unsigned chunk =
        static_cast<unsigned>(std::min<std::size_t>(64, bits - emitted));
    out.append_bits(mask_hash(data, chunk, stream.substream(chunk_index)),
                    chunk);
    emitted += chunk;
    ++chunk_index;
  }
}

}  // namespace setint::hashing
