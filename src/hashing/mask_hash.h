// Toeplitz GF(2) hashing (carry-less multiply): the hash family behind the
// equality test of Fact 3.5, the universal family of Mansour–Nisan–Tiwari
// and Krawczyk.
//
// The message is m = [nbits as one 64-bit word] ‖ the data words: nm =
// 1 + ceil(nbits / 64) words, N = 64 nm bits, zero past nbits. The key r
// is the first ceil((N + b - 1) / 64) words of the shared stream. Output
// bit a < b is h_a = XOR_j m_j r_{N-1+a-j}: m times the b x N Toeplitz
// matrix with entry (a, j) = r_{N-1+a-j}, which is the middle of the
// carry-less product m * r (simd::toeplitz_hash: PCLMULQDQ or portable
// scalar, bit-identical).
//
// Why x != y collide with probability exactly 2^-b: d = m_x ^ m_y is
// nonzero, since the length word or the data differ. If d's highest set
// bit is J, row a reads r_{N-1+a-J} and no later row does, so each row of
// the difference is a fair coin given all later rows. Equal inputs always
// hash equal, which keeps Fact 3.5's error one-sided.
//
// The entry points keep their historical "mask hash" names: the protocol
// code and the repository benchmark (perfbench) call them by these names.
#pragma once

#include <cstdint>

#include "util/bitio.h"
#include "util/rng.h"

namespace setint::hashing {

// b-bit hash of `data` keyed by `stream` (the stream is consumed; both
// parties must pass identically-seeded streams). b <= 64.
std::uint64_t mask_hash(const util::BitBuffer& data, unsigned bits,
                        util::Rng stream);

// Arbitrary-width hash: appends exactly `bits` hash bits to `out`, the
// same bits mask_hash would return for widths up to 64. Used where the
// error budget calls for more than 64 bits, e.g. the 2k-bit certificate
// and the top levels of the amortized equality tree.
void mask_hash_wide(const util::BitBuffer& data, std::size_t bits,
                    const util::Rng& stream, util::BitBuffer& out);

}  // namespace setint::hashing
