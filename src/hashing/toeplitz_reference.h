// The Toeplitz hash of hashing/mask_hash.h written bit at a time, straight
// from its definition: the oracle that tests/hashing_test.cc,
// tests/bitio_property_test.cc and bench/exp_cpu.cc check the carry-less
// kernels against. Quadratic and slow on purpose; no protocol calls it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bitio.h"
#include "util/rng.h"

namespace setint::hashing {

// Output bit a < bits is XOR_j m_j r_{N-1+a-j} over the N = 64 *
// message.size() message bits, packed LSB-first. `key` must hold
// ceil((N + bits - 1) / 64) words.
inline std::vector<std::uint64_t> toeplitz_reference(
    std::span<const std::uint64_t> message, std::span<const std::uint64_t> key,
    std::size_t bits) {
  const auto bit = [](std::span<const std::uint64_t> w, std::size_t i) {
    return (w[i / 64] >> (i % 64)) & 1u;
  };
  const std::size_t n = 64 * message.size();
  std::vector<std::uint64_t> out((bits + 63) / 64, 0);
  for (std::size_t a = 0; a < bits; ++a) {
    std::uint64_t parity = 0;
    for (std::size_t j = 0; j < n; ++j) {
      parity ^= bit(message, j) & bit(key, n - 1 + a - j);
    }
    out[a / 64] |= parity << (a % 64);
  }
  return out;
}

// mask_hash_wide's bits for `data`: the message is [nbits] followed by
// the data bits, the key the first ceil((64 nm + bits - 1) / 64) words of
// `stream`.
inline util::BitBuffer mask_hash_reference(const util::BitBuffer& data,
                                           std::size_t bits, util::Rng stream) {
  std::vector<std::uint64_t> message{data.size_bits()};
  for (std::size_t i = 0; i < data.size_bits(); ++i) {
    if (i % 64 == 0) message.push_back(0);
    message.back() |= std::uint64_t{data.bit(i)} << (i % 64);
  }
  std::vector<std::uint64_t> key((64 * message.size() + bits - 1 + 63) / 64);
  for (auto& word : key) word = stream.next();
  const std::vector<std::uint64_t> hashed =
      toeplitz_reference(message, key, bits);
  util::BitBuffer out;
  for (std::size_t a = 0; a < bits; ++a) {
    out.append_bit((hashed[a / 64] >> (a % 64)) & 1u);
  }
  return out;
}

}  // namespace setint::hashing
