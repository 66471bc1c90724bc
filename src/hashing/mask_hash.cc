#include "hashing/mask_hash.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "simd/kernels.h"

namespace setint::hashing {

namespace {

// Words for one hash's message, key and output. A message of up to five
// words hashed to at most 64 bits (the bucket-EQ^k and tree-stage shapes)
// fits the inline array; the 2k-bit certificate goes to the heap.
class ToeplitzScratch {
 public:
  std::uint64_t* get(std::size_t words) {
    if (words <= kInline) return inline_;
    heap_.resize(words);
    return heap_.data();
  }

 private:
  static constexpr std::size_t kInline = 16;
  std::uint64_t inline_[kInline];
  std::vector<std::uint64_t> heap_;
};

// Hashes `data` to `bits` >= 1 bits; the result lives in `scratch`.
std::span<const std::uint64_t> toeplitz(const util::BitBuffer& data,
                                        std::size_t bits, util::Rng stream,
                                        ToeplitzScratch& scratch) {
  const std::size_t nbits = data.size_bits();
  const std::size_t data_words = (nbits + 63) / 64;
  const std::size_t nm = 1 + data_words;
  const std::size_t drawn = (64 * nm + bits - 1 + 63) / 64;
  const std::size_t key_words = simd::toeplitz_key_words(nm, bits);
  const std::size_t out_words = (bits + 63) / 64;

  std::uint64_t* message = scratch.get(nm + key_words + out_words);
  std::uint64_t* key = message + nm;
  std::uint64_t* out = key + key_words;
  message[0] = nbits;
  std::copy_n(data.words().begin(), data_words, message + 1);
  for (std::size_t i = 0; i < drawn; ++i) key[i] = stream.next();
  std::fill(key + drawn, key + key_words, 0);
  simd::toeplitz_hash({message, nm}, {key, key_words}, bits,
                      {out, out_words});
  return {out, out_words};
}

}  // namespace

std::uint64_t mask_hash(const util::BitBuffer& data, unsigned bits,
                        util::Rng stream) {
  if (bits > 64) throw std::invalid_argument("mask_hash: bits > 64");
  if (bits == 0) return 0;
  ToeplitzScratch scratch;
  return toeplitz(data, bits, stream, scratch)[0];
}

void mask_hash_wide(const util::BitBuffer& data, std::size_t bits,
                    const util::Rng& stream, util::BitBuffer& out) {
  if (bits == 0) return;
  ToeplitzScratch scratch;
  const std::span<const std::uint64_t> hashed =
      toeplitz(data, bits, stream, scratch);
  for (std::size_t i = 0; i < hashed.size(); ++i) {
    out.append_bits(hashed[i],
                    static_cast<unsigned>(std::min<std::size_t>(
                        64, bits - 64 * i)));
  }
}

}  // namespace setint::hashing
