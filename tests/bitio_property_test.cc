// Property-based round-trip tests for the codecs: randomized
// encode -> decode across widths and edge values, complementing the
// fixed fuzz corpus in tests/fuzz/. Also pins the equivalence of the
// word-wise append fast paths with the bit-at-a-time reference, and the
// BufferPool recycling contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hashing/fks.h"
#include "hashing/mask_hash.h"
#include "hashing/pairwise.h"
#include "util/bitio.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint::util {
namespace {

// ---------- append_bits / read_bits ----------

TEST(BitioProperty, AppendBitsRoundTripRandomWidths) {
  Rng rng(0x1B17);
  for (int trial = 0; trial < 2000; ++trial) {
    const unsigned width = static_cast<unsigned>(rng.below(65));  // 0..64
    const std::uint64_t value =
        width == 0 ? 0
        : width == 64 ? rng.next()
                      : rng.next() & ((std::uint64_t{1} << width) - 1);
    // Random preceding offset so the word boundary lands everywhere.
    const unsigned prefix = static_cast<unsigned>(rng.below(130));
    BitBuffer b;
    for (unsigned i = 0; i < prefix; ++i) b.append_bit(rng.coin());
    b.append_bits(value, width);
    ASSERT_EQ(b.size_bits(), prefix + width);
    BitReader r(b);
    for (unsigned i = 0; i < prefix; ++i) r.read_bit();
    EXPECT_EQ(r.read_bits(width), value) << "width " << width;
  }
}

TEST(BitioProperty, AppendBitsEdgeValues) {
  for (unsigned width : {1u, 2u, 31u, 32u, 33u, 63u, 64u}) {
    const std::uint64_t max =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    for (std::uint64_t value : {std::uint64_t{0}, std::uint64_t{1}, max}) {
      BitBuffer b;
      b.append_bits(value, width);
      BitReader r(b);
      EXPECT_EQ(r.read_bits(width), value) << width;
      EXPECT_TRUE(r.exhausted());
    }
  }
}

// The word-wise fast path must build the exact same buffer (bits, words,
// fingerprint) as the bit-at-a-time reference.
TEST(BitioProperty, WordWiseAppendMatchesBitAtATimeReference) {
  Rng rng(0x2B17);
  for (int trial = 0; trial < 500; ++trial) {
    BitBuffer fast;
    BitBuffer reference;
    for (int op = 0; op < 20; ++op) {
      const unsigned width = static_cast<unsigned>(rng.below(65));
      const std::uint64_t value =
          width == 0 ? 0
          : width == 64 ? rng.next()
                        : rng.next() & ((std::uint64_t{1} << width) - 1);
      fast.append_bits(value, width);
      for (unsigned i = 0; i < width; ++i) {
        reference.append_bit((value >> i) & 1);
      }
    }
    ASSERT_EQ(fast, reference);
    EXPECT_EQ(fast.fingerprint(), reference.fingerprint());
    EXPECT_EQ(fast.words(), reference.words());
  }
}

TEST(BitioProperty, AppendBufferMatchesBitCopy) {
  Rng rng(0x3B17);
  for (int trial = 0; trial < 300; ++trial) {
    BitBuffer src;
    const std::size_t n = rng.below(200);
    for (std::size_t i = 0; i < n; ++i) src.append_bit(rng.coin());
    BitBuffer fast;
    BitBuffer reference;
    const std::size_t prefix = rng.below(70);
    for (std::size_t i = 0; i < prefix; ++i) {
      const bool bit = rng.coin();
      fast.append_bit(bit);
      reference.append_bit(bit);
    }
    fast.append_buffer(src);
    for (std::size_t i = 0; i < src.size_bits(); ++i) {
      reference.append_bit(src.bit(i));
    }
    ASSERT_EQ(fast, reference);
    EXPECT_EQ(fast.words(), reference.words());
  }
}

// ---------- truncate ----------

TEST(BitioProperty, TruncateNormalizesStorage) {
  Rng rng(0x4B17);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.below(300);
    std::vector<bool> bits(n);
    BitBuffer full;
    for (std::size_t i = 0; i < n; ++i) {
      bits[i] = rng.coin();
      full.append_bit(bits[i]);
    }
    const std::size_t cut = rng.below(n + 1);
    full.truncate(cut);
    // Reference: a buffer built at the shorter size from scratch.
    BitBuffer reference;
    for (std::size_t i = 0; i < cut; ++i) reference.append_bit(bits[i]);
    ASSERT_EQ(full, reference);
    EXPECT_EQ(full.fingerprint(), reference.fingerprint());
    EXPECT_EQ(full.words(), reference.words());
    // Appending after a truncate behaves like appending to the reference.
    full.append_bits(0x2D, 6);
    reference.append_bits(0x2D, 6);
    EXPECT_EQ(full, reference);
    EXPECT_EQ(full.words(), reference.words());
  }
}

TEST(BitioProperty, TruncatePastEndIsANoop) {
  BitBuffer b;
  b.append_bits(0b1011, 4);
  b.truncate(10);
  EXPECT_EQ(b.size_bits(), 4u);
  b.truncate(4);
  EXPECT_EQ(b.size_bits(), 4u);
}

// ---------- gamma ----------

TEST(BitioProperty, GammaRoundTripRandomAndEdges) {
  Rng rng(0x5B17);
  std::vector<std::uint64_t> values = {0, 1, 2, 3, 62, 63, 64, 65,
                                       (std::uint64_t{1} << 32) - 1,
                                       std::uint64_t{1} << 32,
                                       (std::uint64_t{1} << 63) - 1,
                                       std::uint64_t{1} << 63,
                                       ~std::uint64_t{0} - 1};
  for (int trial = 0; trial < 2000; ++trial) {
    values.push_back(rng.next() >> rng.below(64));
  }
  BitBuffer b;
  for (std::uint64_t v : values) {
    const std::size_t before = b.size_bits();
    b.append_gamma64(v);
    EXPECT_EQ(b.size_bits() - before, gamma64_cost_bits(v)) << v;
  }
  BitReader r(b);
  for (std::uint64_t v : values) {
    ASSERT_EQ(r.read_gamma64(), v);
  }
  EXPECT_TRUE(r.exhausted());
}

// ---------- word-at-a-time codec pins ----------

// Bit-at-a-time reference encodings, straight from the definitions.
void reference_gamma(BitBuffer& b, std::uint64_t v) {
  const unsigned n = 63u - static_cast<unsigned>(std::countl_zero(v));
  for (unsigned i = 0; i < n; ++i) b.append_bit(false);
  for (unsigned i = 0; i <= n; ++i) b.append_bit((v >> (n - i)) & 1);
}

void reference_rice(BitBuffer& b, std::uint64_t v, unsigned param) {
  for (std::uint64_t i = 0; i < (v >> param); ++i) b.append_bit(true);
  b.append_bit(false);
  for (unsigned i = 0; i < param; ++i) b.append_bit((v >> i) & 1);
}

// `offset` seeded random bits, written one at a time.
BitBuffer random_prefix(Rng& rng, unsigned offset) {
  BitBuffer b;
  for (unsigned i = 0; i < offset; ++i) b.append_bit(rng.coin());
  return b;
}

TEST(CodecPins, GammaAtEveryOffsetMatchesBitReference) {
  std::vector<std::uint64_t> values = {~std::uint64_t{0}};
  for (unsigned j = 0; j < 64; ++j) {
    const std::uint64_t p = std::uint64_t{1} << j;
    if (p - 1 != 0) values.push_back(p - 1);
    values.push_back(p);
    values.push_back(p + 1);
  }
  Rng rng(0xC0DE);
  for (unsigned offset = 0; offset < 64; ++offset) {
    for (std::uint64_t v : values) {
      BitBuffer fast = random_prefix(rng, offset);
      BitBuffer reference = fast;
      fast.append_elias_gamma(v);
      reference_gamma(reference, v);
      ASSERT_EQ(fast, reference) << v << " at offset " << offset;
      ASSERT_EQ(fast.words(), reference.words());
      // Decoded flush against the end of the buffer and with bits after.
      for (const bool trailer : {false, true}) {
        BitBuffer b = fast;
        if (trailer) b.append_bits(0x5, 3);
        BitReader r(b);
        r.read_bits(offset);
        ASSERT_EQ(r.read_elias_gamma(), v) << v << " at offset " << offset;
        ASSERT_EQ(r.position(), fast.size_bits());
      }
    }
  }
  EXPECT_THROW(BitBuffer{}.append_elias_gamma(0), std::invalid_argument);
}

TEST(CodecPins, RiceAcrossWordBoundariesMatchesBitReference) {
  Rng rng(0xC0DF);
  for (unsigned param = 0; param < 64; ++param) {
    const std::uint64_t max_q = ~std::uint64_t{0} >> param;
    for (std::uint64_t q : {0u, 1u, 2u, 62u, 63u, 64u, 65u, 127u, 128u,
                            129u, 200u}) {
      if (q > max_q) continue;
      const std::uint64_t rem =
          param == 0 ? 0 : rng.next() >> (64 - param);
      const std::uint64_t v = (q << param) | rem;
      for (unsigned offset : {0u, 1u, 31u, 63u}) {
        BitBuffer fast = random_prefix(rng, offset);
        BitBuffer reference = fast;
        fast.append_rice(v, param);
        reference_rice(reference, v, param);
        ASSERT_EQ(fast, reference) << "b=" << param << " q=" << q;
        ASSERT_EQ(fast.words(), reference.words());
        BitReader r(fast);
        r.read_bits(offset);
        ASSERT_EQ(r.read_rice(param), v) << "b=" << param << " q=" << q;
        ASSERT_TRUE(r.exhausted());
      }
    }
  }
}

TEST(CodecPins, ReadBitsEveryWidthAtEveryOffset) {
  Rng rng(0xC0E0);
  const BitBuffer b = random_prefix(rng, 200);
  for (unsigned offset = 0; offset < 64; ++offset) {
    for (unsigned width = 0; width <= 64; ++width) {
      std::uint64_t expected = 0;
      for (unsigned i = 0; i < width; ++i) {
        expected |= static_cast<std::uint64_t>(b.bit(offset + i)) << i;
      }
      BitReader r(b);
      for (unsigned i = 0; i < offset; ++i) r.read_bit();
      ASSERT_EQ(r.read_bits(width), expected)
          << "width " << width << " at offset " << offset;
      ASSERT_EQ(r.position(), offset + width);
    }
  }
  // At the end: width 0 reads nothing, anything wider is past the end.
  for (unsigned size = 0; size < 130; ++size) {
    const BitBuffer tail = random_prefix(rng, size);
    BitReader r(tail);
    r.read_bits(size % 65);
    while (r.remaining() > 0) {
      const std::size_t step = std::min<std::size_t>(64, r.remaining());
      r.read_bits(static_cast<unsigned>(step));
    }
    EXPECT_EQ(r.read_bits(0), 0u);
    EXPECT_THROW(r.read_bits(1), std::out_of_range);
  }
  BitReader r(b);
  EXPECT_THROW(r.read_bits(65), std::invalid_argument);
}

TEST(CodecPins, DecoderErrorsKeepTheirTypes) {
  Rng rng(0xC0E1);
  for (unsigned offset : {0u, 1u, 37u, 63u, 64u}) {
    // 64 zero bits cannot start a gamma codeword.
    BitBuffer zeros = random_prefix(rng, offset);
    zeros.append_bits(0, 64);
    zeros.append_bit(true);
    BitReader r64(zeros);
    r64.read_bits(offset);
    try {
      r64.read_elias_gamma();
      FAIL() << "64 zeros decoded";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'gamma'"), std::string::npos);
    }
    // 63 zeros, then the end of the buffer.
    BitBuffer short_run = random_prefix(rng, offset);
    short_run.append_bits(0, 63);
    BitReader r63(short_run);
    r63.read_bits(offset);
    EXPECT_THROW(r63.read_elias_gamma(), std::out_of_range);
    // A gamma payload cut short, on both sides of the one-word fast path.
    for (std::uint64_t v : {std::uint64_t{2}, std::uint64_t{12345},
                            std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
      BitBuffer gamma = random_prefix(rng, offset);
      gamma.append_elias_gamma(v);
      gamma.truncate(gamma.size_bits() - 1);
      BitReader rg(gamma);
      rg.read_bits(offset);
      EXPECT_THROW(rg.read_elias_gamma(), std::out_of_range) << v;
    }
    // A Rice remainder cut short, and a unary run that meets the end.
    BitBuffer rice = random_prefix(rng, offset);
    rice.append_rice((std::uint64_t{70} << 9) | 0x1FF, 9);
    rice.truncate(rice.size_bits() - 1);
    BitReader rr(rice);
    rr.read_bits(offset);
    EXPECT_THROW(rr.read_rice(9), std::out_of_range);
    BitBuffer ones = random_prefix(rng, offset);
    ones.append_bits(~std::uint64_t{0}, 64);
    ones.append_bits(0x7, 3);
    BitReader ro(ones);
    ro.read_bits(offset);
    EXPECT_THROW(ro.read_rice(3), std::out_of_range);
  }
  // The Rice quotient caps: 2^20 for any parameter, and q << b must fit.
  BitBuffer at_cap;
  for (int i = 0; i < (1 << 20) / 64; ++i) {
    at_cap.append_bits(~std::uint64_t{0}, 64);
  }
  BitBuffer past_cap = at_cap;
  at_cap.append_bit(false);
  BitReader rc(at_cap);
  EXPECT_EQ(rc.read_rice(0), std::uint64_t{1} << 20);
  past_cap.append_bits(0x1, 2);
  BitReader rp(past_cap);
  EXPECT_THROW(rp.read_rice(0), std::invalid_argument);
  BitBuffer wide;
  wide.append_bits(0b011, 3);  // q = 2 does not fit b = 63
  BitReader rw(wide);
  try {
    rw.read_rice(63);
    FAIL() << "q = 2 decoded at b = 63";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'rice'"), std::string::npos);
  }
}

TEST(CodecPins, EqualityIgnoresBitsDroppedByTruncate) {
  Rng rng(0xC0E2);
  for (unsigned size = 0; size < 200; ++size) {
    const BitBuffer base = random_prefix(rng, size);
    BitBuffer a = base;
    BitBuffer b = base;
    a.append_bits(rng.next(), 64);
    b.append_bits(~rng.next(), 64);
    a.truncate(size);
    b.truncate(size);
    ASSERT_EQ(a, b) << size;
    ASSERT_EQ(a, base) << size;
    if (size > 0) {
      b.toggle_bit(size - 1);
      ASSERT_FALSE(a == b) << size;
    }
    BitBuffer longer = base;
    longer.append_bit(false);
    ASSERT_FALSE(longer == base) << size;
  }
}

// ---------- Rice ----------

TEST(BitioProperty, RiceRoundTripAcrossParameters) {
  Rng rng(0x6B17);
  for (unsigned param : {0u, 1u, 5u, 13u, 31u, 47u, 63u}) {
    BitBuffer b;
    std::vector<std::uint64_t> values;
    for (int trial = 0; trial < 300; ++trial) {
      // Quotient bounded (the encoder refuses > 2^20 unary runs);
      // remainder spans the full parameter width including all-ones.
      const std::uint64_t q = rng.below(100);
      const std::uint64_t rem =
          param == 0 ? 0
                     : (trial % 3 == 0 ? (std::uint64_t{1} << param) - 1
                                       : rng.below(std::uint64_t{1} << param));
      values.push_back((q << param) | rem);
    }
    values.push_back(0);  // all-zeros codeword shape
    for (std::uint64_t v : values) {
      const std::size_t before = b.size_bits();
      b.append_rice(v, param);
      EXPECT_EQ(b.size_bits() - before, rice_cost_bits(v, param));
    }
    BitReader r(b);
    for (std::uint64_t v : values) {
      ASSERT_EQ(r.read_rice(param), v) << "param " << param;
    }
    EXPECT_TRUE(r.exhausted());
  }
}

// ---------- canonical set codecs ----------

TEST(BitioProperty, CanonicalSetRoundTripRandom) {
  Rng rng(0x7B17);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint64_t universe = 2 + (std::uint64_t{1} << rng.below(40));
    const std::size_t size = static_cast<std::size_t>(
        rng.below(std::min<std::uint64_t>(universe, 200) + 1));
    const Set s = random_set(rng, universe, size);
    {
      BitBuffer b;
      append_set(b, s);
      EXPECT_EQ(b.size_bits(), set_encoding_cost_bits(s));
      BitReader r(b);
      EXPECT_EQ(read_set(r), s);
      EXPECT_TRUE(r.exhausted());
    }
    {
      BitBuffer b;
      append_set_rice(b, s, universe);
      EXPECT_EQ(b.size_bits(), set_rice_cost_bits(s, universe));
      BitReader r(b);
      EXPECT_EQ(read_set_rice(r, universe), s);
      EXPECT_TRUE(r.exhausted());
    }
  }
}

TEST(BitioProperty, CanonicalSetEdgeShapes) {
  const std::uint64_t top = (std::uint64_t{1} << 40) - 1;
  std::vector<std::pair<Set, std::uint64_t>> shapes;
  shapes.push_back({Set{}, 16});            // empty
  shapes.push_back({Set{0}, 1});            // minimal universe
  shapes.push_back({Set{top}, top + 1});    // single max element
  shapes.push_back({Set{0, top}, top + 1});  // extremes only
  {
    Set dense;  // all-consecutive run: deltas all zero after -1 shift
    for (std::uint64_t i = 0; i < 128; ++i) dense.push_back(i);
    shapes.push_back({dense, 128});
    Set even;  // constant gap 2
    for (std::uint64_t i = 0; i < 128; ++i) even.push_back(2 * i);
    shapes.push_back({even, 256});
  }
  for (const auto& [s, universe] : shapes) {
    BitBuffer b;
    append_set(b, s);
    BitReader r(b);
    EXPECT_EQ(read_set(r), s);
    BitBuffer br;
    append_set_rice(br, s, universe);
    BitReader rr(br);
    EXPECT_EQ(read_set_rice(rr, universe), s);
  }
}

// Round-trips survive concatenation: many mixed records in one buffer,
// decoded in order — the access pattern protocol messages actually use.
TEST(BitioProperty, MixedRecordStreamRoundTrip) {
  Rng rng(0x8B17);
  for (int trial = 0; trial < 100; ++trial) {
    BitBuffer b;
    struct Record {
      int kind = 0;
      std::uint64_t value = 0;
      unsigned width = 0;
      Set set;
    };
    std::vector<Record> records;
    for (int i = 0; i < 30; ++i) {
      Record rec;
      rec.kind = static_cast<int>(rng.below(4));
      switch (rec.kind) {
        case 0:
          rec.width = 1 + static_cast<unsigned>(rng.below(64));
          rec.value = rec.width == 64
                          ? rng.next()
                          : rng.next() & ((std::uint64_t{1} << rec.width) - 1);
          b.append_bits(rec.value, rec.width);
          break;
        case 1:
          rec.value = rng.next() >> rng.below(64);
          b.append_gamma64(rec.value);
          break;
        case 2:
          rec.width = static_cast<unsigned>(rng.below(20));
          rec.value = rng.below(1000) << rec.width >> rng.below(4);
          b.append_rice(rec.value, rec.width);
          break;
        default:
          rec.set = random_set(rng, 1u << 24, rng.below(40));
          append_set(b, rec.set);
          break;
      }
      records.push_back(std::move(rec));
    }
    BitReader r(b);
    for (const Record& rec : records) {
      switch (rec.kind) {
        case 0:
          ASSERT_EQ(r.read_bits(rec.width), rec.value);
          break;
        case 1:
          ASSERT_EQ(r.read_gamma64(), rec.value);
          break;
        case 2:
          ASSERT_EQ(r.read_rice(rec.width), rec.value);
          break;
        default:
          ASSERT_EQ(read_set(r), rec.set);
          break;
      }
    }
    EXPECT_TRUE(r.exhausted());
  }
}

// ---------- batched hash paths ----------
//
// The array-batched entry points (hash_many) are the hot-path engine's
// public contract: same values as the scalar operator() applied element
// by element, across random seeds, array sizes (including empty), and
// inputs both inside and outside the nominal universe.

TEST(BatchedHash, PairwiseHashManyMatchesScalarLoop) {
  Rng rng(0x9A7C);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t universe = 2 + rng.below(std::uint64_t{1} << 40);
    const std::uint64_t range = 1 + rng.below(1 << 16);
    const auto h = hashing::PairwiseHash::sample(rng, universe, range);
    const std::size_t n = static_cast<std::size_t>(rng.below(257));
    std::vector<std::uint64_t> xs(n);
    for (auto& x : xs) {
      // Mostly in-universe, occasionally arbitrary 64-bit values: the
      // scalar path reduces mod p first, and the batch must match there
      // too.
      x = rng.below(8) == 0 ? rng.next() : rng.below(universe);
    }
    std::vector<std::uint64_t> batched(n);
    h.hash_many(xs, batched);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batched[i], h(xs[i])) << "trial " << trial << " i " << i;
      ASSERT_LT(batched[i], range);
    }
  }
}

TEST(BatchedHash, FksHashManyMatchesScalarLoop) {
  Rng rng(0xF457);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t universe = 2 + rng.below(std::uint64_t{1} << 44);
    const std::uint64_t max_elements = 2 + rng.below(1 << 10);
    const auto f = hashing::FksCompressor::sample(rng, universe, max_elements);
    const std::size_t n = static_cast<std::size_t>(rng.below(129));
    std::vector<std::uint64_t> xs(n);
    for (auto& x : xs) x = rng.next();
    std::vector<std::uint64_t> batched(n);
    f.hash_many(xs, batched);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batched[i], f(xs[i])) << "trial " << trial << " i " << i;
      ASSERT_EQ(batched[i], xs[i] % f.range()) << "x=" << xs[i];
      ASSERT_LT(batched[i], f.range());
    }
  }
}

TEST(BatchedHash, HashManyRejectsShortOutput) {
  Rng rng(0x0E0E);
  const auto h = hashing::PairwiseHash::sample(rng, 1 << 20, 1 << 10);
  const auto f = hashing::FksCompressor::sample(rng, 1 << 20, 64);
  const std::vector<std::uint64_t> xs(8, 5);
  std::vector<std::uint64_t> out(7);
  EXPECT_THROW(h.hash_many(xs, out), std::invalid_argument);
  EXPECT_THROW(f.hash_many(xs, out), std::invalid_argument);
}

// Seed round-trip composed with batching: serialize the seed, read it
// back, and require the reconstructed function to produce the identical
// batched image. This is exactly what the private-coin protocols rely on
// when one party samples and ships the hash.
TEST(BatchedHash, SeedRoundTripPreservesBatchedImage) {
  Rng rng(0x5EED);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t universe = 2 + rng.below(std::uint64_t{1} << 32);
    const std::uint64_t range = 1 + rng.below(1 << 12);
    const auto h = hashing::PairwiseHash::sample(rng, universe, range);
    BitBuffer seed;
    h.append_seed(seed);
    BitReader r(seed);
    const auto h2 = hashing::PairwiseHash::read_seed(r, range);
    std::vector<std::uint64_t> xs(64);
    for (auto& x : xs) x = rng.below(universe);
    std::vector<std::uint64_t> a(xs.size()), b(xs.size());
    h.hash_many(xs, a);
    h2.hash_many(xs, b);
    EXPECT_EQ(a, b);
  }
}

// Bit-at-a-time reference for mask_hash: one stream draw for the length
// word, then one per data word, per output bit — no single-word shortcut.
std::uint64_t mask_hash_reference(const BitBuffer& data, unsigned bits,
                                  Rng stream) {
  const auto& words = data.words();
  const std::size_t nbits = data.size_bits();
  const std::size_t full = nbits / 64;
  const unsigned tail = static_cast<unsigned>(nbits % 64);
  const std::uint64_t tail_mask =
      tail == 0 ? 0 : (std::uint64_t{1} << tail) - 1;
  std::uint64_t out = 0;
  for (unsigned b = 0; b < bits; ++b) {
    unsigned parity = std::popcount(stream.next() & nbits) & 1u;
    for (std::size_t w = 0; w < full; ++w) {
      parity ^= std::popcount(stream.next() & words[w]) & 1u;
    }
    if (tail != 0) {
      parity ^= std::popcount(stream.next() & words[full] & tail_mask) & 1u;
    }
    out |= static_cast<std::uint64_t>(parity) << b;
  }
  return out;
}

TEST(BatchedHash, MaskHashSingleWordFastPathMatchesReference) {
  Rng rng(0x3A5C);
  for (int trial = 0; trial < 400; ++trial) {
    // Lengths straddling the single-word fast-path boundary (0..130 bits).
    const std::size_t nbits = rng.below(131);
    BitBuffer data;
    for (std::size_t i = 0; i < nbits; ++i) data.append_bit(rng.coin());
    const unsigned bits = 1 + static_cast<unsigned>(rng.below(64));
    const Rng stream = Rng(0xC0FFEE).substream(trial);
    EXPECT_EQ(hashing::mask_hash(data, bits, stream),
              mask_hash_reference(data, bits, stream))
        << "nbits " << nbits << " bits " << bits;
  }
}

// ---------- BufferPool ----------

TEST(BufferPool, RecyclesReleasedStorage) {
  BufferPool pool;
  BitBuffer a = pool.acquire();
  EXPECT_TRUE(a.empty());
  a.append_bits(0x1234, 16);
  pool.release(std::move(a));
  EXPECT_EQ(pool.acquired(), 1u);
  EXPECT_EQ(pool.recycled(), 0u);
  BitBuffer b = pool.acquire();
  // Recycled buffers come back empty — contents never leak between users.
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(pool.recycled(), 1u);
  pool.release(std::move(b));
}

TEST(BufferPool, PooledBufferLeaseReturnsOnScopeExit) {
  BufferPool pool;
  {
    PooledBuffer lease(pool);
    lease->append_bit(true);
    EXPECT_EQ(lease->size_bits(), 1u);
  }
  EXPECT_EQ(pool.acquired(), 1u);
  {
    PooledBuffer lease(pool);
    EXPECT_TRUE(lease->empty());
  }
  EXPECT_EQ(pool.recycled(), 1u);
}

}  // namespace
}  // namespace setint::util
