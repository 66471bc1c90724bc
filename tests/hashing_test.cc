// Tests for the hashing substrate: modular arithmetic, Miller-Rabin,
// random primes, the Carter-Wegman pairwise family, FKS compression, and
// GF(2) mask hashing.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "hashing/barrett.h"
#include "hashing/fks.h"
#include "hashing/mask_hash.h"
#include "hashing/modmath.h"
#include "hashing/pairwise.h"
#include "hashing/primes.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

// ---------- modular arithmetic ----------

TEST(ModMath, MulmodSmall) {
  EXPECT_EQ(hashing::mulmod(7, 8, 13), 56 % 13);
  EXPECT_EQ(hashing::mulmod(0, 123, 7), 0u);
  EXPECT_EQ(hashing::mulmod(12, 12, 13), 144 % 13);
}

TEST(ModMath, MulmodLargeOperands) {
  const std::uint64_t p = 0xffff'ffff'ffff'ffc5ull;  // largest 64-bit prime
  // (p-1)^2 mod p == 1.
  EXPECT_EQ(hashing::mulmod(p - 1, p - 1, p), 1u);
  EXPECT_EQ(hashing::mulmod(p - 1, 2, p), p - 2);
}

TEST(ModMath, AddmodWrapsWithoutOverflow) {
  const std::uint64_t m = ~std::uint64_t{0} - 1;
  EXPECT_EQ(hashing::addmod(m - 1, m - 1, m), m - 2);
  EXPECT_EQ(hashing::addmod(5, 6, 7), 4u);
}

TEST(ModMath, PowmodMatchesFermat) {
  // a^(p-1) = 1 mod p for prime p, a not divisible by p.
  for (std::uint64_t p : {13ull, 104729ull, 2147483647ull}) {
    for (std::uint64_t a : {2ull, 3ull, 12345ull}) {
      EXPECT_EQ(hashing::powmod(a, p - 1, p), 1u) << a << " " << p;
    }
  }
  EXPECT_EQ(hashing::powmod(2, 10, 1), 0u);
  EXPECT_THROW(hashing::powmod(2, 2, 0), std::invalid_argument);
}

// ---------- primality ----------

TEST(Primes, AgreesWithSieveUpTo100000) {
  const int limit = 100000;
  std::vector<bool> sieve(limit, true);
  sieve[0] = sieve[1] = false;
  for (int i = 2; i * i < limit; ++i) {
    if (sieve[static_cast<std::size_t>(i)]) {
      for (int j = i * i; j < limit; j += i) {
        sieve[static_cast<std::size_t>(j)] = false;
      }
    }
  }
  for (int i = 0; i < limit; ++i) {
    ASSERT_EQ(hashing::is_prime(static_cast<std::uint64_t>(i)),
              sieve[static_cast<std::size_t>(i)])
        << i;
  }
}

TEST(Primes, KnownCarmichaelNumbersAreComposite) {
  for (std::uint64_t c : {561ull, 1105ull, 1729ull, 2465ull, 6601ull,
                          8911ull, 825265ull, 321197185ull}) {
    EXPECT_FALSE(hashing::is_prime(c)) << c;
  }
}

TEST(Primes, KnownLargePrimes) {
  EXPECT_TRUE(hashing::is_prime(2147483647ull));            // 2^31 - 1
  EXPECT_TRUE(hashing::is_prime(2305843009213693951ull));   // 2^61 - 1
  EXPECT_TRUE(hashing::is_prime(0xffff'ffff'ffff'ffc5ull));
  EXPECT_FALSE(hashing::is_prime(2305843009213693951ull * 3));
}

TEST(Primes, NextPrimeAtLeast) {
  EXPECT_EQ(hashing::next_prime_at_least(0), 2u);
  EXPECT_EQ(hashing::next_prime_at_least(2), 2u);
  EXPECT_EQ(hashing::next_prime_at_least(3), 3u);
  EXPECT_EQ(hashing::next_prime_at_least(4), 5u);
  EXPECT_EQ(hashing::next_prime_at_least(90), 97u);
}

TEST(Primes, RandomPrimeInRange) {
  util::Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t p = hashing::random_prime_in(rng, 1000, 2000);
    EXPECT_GE(p, 1000u);
    EXPECT_LT(p, 2000u);
    EXPECT_TRUE(hashing::is_prime(p));
  }
  EXPECT_THROW(hashing::random_prime_in(rng, 10, 10), std::invalid_argument);
  EXPECT_THROW(hashing::random_prime_in(rng, 24, 29), std::invalid_argument);
}

// The 12-witness Miller-Rabin that is_prime used before its size-keyed
// witness sets: trial division by the primes up to 37, then every witness
// on every survivor (Montgomery ladder below 2^63, u128 `%` above).
bool reference_mr_witness(std::uint64_t n, std::uint64_t a, std::uint64_t d,
                          unsigned r) {
  if (n < (std::uint64_t{1} << 63)) {
    const hashing::Montgomery64 mont(n);
    const std::uint64_t one = mont.to_mont(1);
    const std::uint64_t minus_one = mont.to_mont(n - 1);
    std::uint64_t base = mont.to_mont(a % n);
    std::uint64_t x = one;
    for (std::uint64_t exp = d; exp > 0; exp >>= 1) {
      if (exp & 1) x = mont.mul(x, base);
      base = mont.mul(base, base);
    }
    if (x == one || x == minus_one) return false;
    for (unsigned i = 1; i < r; ++i) {
      x = mont.mul(x, x);
      if (x == minus_one) return false;
    }
    return true;
  }
  std::uint64_t x = hashing::powmod(a % n, d, n);
  if (x == 1 || x == n - 1) return false;
  for (unsigned i = 1; i < r; ++i) {
    x = hashing::mulmod(x, x, n);
    if (x == n - 1) return false;
  }
  return true;
}

// True iff odd n > 2 is a strong probable prime to every base in `bases`.
bool strong_probable_prime(std::uint64_t n,
                           const std::vector<std::uint64_t>& bases) {
  std::uint64_t d = n - 1;
  unsigned r = 0;
  for (; (d & 1) == 0; d >>= 1) ++r;
  for (std::uint64_t a : bases) {
    if (reference_mr_witness(n, a, d, r)) return false;
  }
  return true;
}

bool reference_is_prime(std::uint64_t n) {
  static const std::vector<std::uint64_t> kWitnesses = {
      2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};
  if (n < 2) return false;
  for (std::uint64_t p : kWitnesses) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  return strong_probable_prime(n, kWitnesses);
}

std::uint64_t reference_next_prime(std::uint64_t n) {
  if (n <= 2) return 2;
  std::uint64_t c = n | 1;
  while (!reference_is_prime(c)) c += 2;
  return c;
}

// Random odd n with exactly `bits` significant bits.
std::vector<std::uint64_t> random_odd(util::Rng& rng, unsigned bits,
                                      std::size_t count) {
  std::vector<std::uint64_t> out(count);
  for (auto& n : out) {
    n = (rng.next() >> (64 - bits)) | (std::uint64_t{1} << (bits - 1)) | 1;
  }
  return out;
}

TEST(Primes, SizeKeyedWitnessesMatchTwelveWitnessReference) {
  util::Rng rng(0x5eed'9121);
  for (unsigned bits : {31u, 32u, 33u, 48u, 62u, 63u, 64u}) {
    for (std::uint64_t n : random_odd(rng, bits, 100000)) {
      ASSERT_EQ(hashing::is_prime(n), reference_is_prime(n))
          << n << " (" << bits << " bits)";
    }
  }
}

TEST(Primes, MatchesReferenceAcrossTheMontgomerySwitch) {
  // Montgomery ladder below 2^63, u128 ladder from 2^63 up.
  const std::uint64_t pivot = std::uint64_t{1} << 63;
  for (std::uint64_t n = pivot - 20001; n < pivot + 20001; n += 2) {
    ASSERT_EQ(hashing::is_prime(n), reference_is_prime(n)) << n;
  }
}

TEST(Primes, StrongPseudoprimesAreComposite) {
  // Strong pseudoprime to bases 2, 3, 5 and 7.
  EXPECT_FALSE(hashing::is_prime(3215031751ull));
  // The first composite that passes {2, 7, 61}: where the small witness
  // set stops being exact.
  EXPECT_TRUE(strong_probable_prime(4759123141ull, {2, 7, 61}));
  EXPECT_FALSE(hashing::is_prime(4759123141ull));
  // Strong pseudoprime to bases 2, 13, 23 and 1662803.
  EXPECT_FALSE(hashing::is_prime(1122004669633ull));
  // Strong pseudoprime to the nine prime bases 2..23.
  EXPECT_TRUE(strong_probable_prime(3825123056546413051ull,
                                    {2, 3, 5, 7, 11, 13, 17, 19, 23}));
  EXPECT_FALSE(hashing::is_prime(3825123056546413051ull));
}

TEST(Primes, NextPrimeMatchesReference) {
  util::Rng rng(0x5eed'9121);  // the samples of the is_prime diff above
  for (unsigned bits : {31u, 32u, 33u, 48u, 62u, 63u}) {
    for (std::uint64_t n : random_odd(rng, bits, 100000)) {
      ASSERT_EQ(hashing::next_prime_at_least(n), reference_next_prime(n))
          << n << " (" << bits << " bits)";
    }
  }
  for (std::uint64_t n : random_odd(rng, 64, 100000)) {
    if (n > 0xffff'ffff'ffff'ffc5ull) continue;  // no 64-bit prime above
    ASSERT_EQ(hashing::next_prime_at_least(n), reference_next_prime(n)) << n;
  }
  hashing::prime_cache_clear();
}

// ---------- pairwise hashing ----------

TEST(PairwiseHash, OutputsInRange) {
  util::Rng rng(5);
  const auto h = hashing::PairwiseHash::sample(rng, 1u << 20, 97);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(h(rng.below(1u << 20)), 97u);
  }
}

TEST(PairwiseHash, DeterministicForFixedSeedStream) {
  util::Rng r1(5);
  util::Rng r2(5);
  const auto h1 = hashing::PairwiseHash::sample(r1, 1u << 20, 1024);
  const auto h2 = hashing::PairwiseHash::sample(r2, 1u << 20, 1024);
  for (std::uint64_t x = 0; x < 100; ++x) EXPECT_EQ(h1(x), h2(x));
}

TEST(PairwiseHash, EmpiricalCollisionRateNearPairwiseBound) {
  // For random distinct pairs, collisions should occur at rate about
  // collision_probability() (<= 2/t); allow generous slack.
  util::Rng rng(13);
  const std::uint64_t range = 256;
  int collisions = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    auto h = hashing::PairwiseHash::sample(rng, 1u << 30, range);
    const std::uint64_t x = rng.below(1u << 30);
    std::uint64_t y = rng.below(1u << 30);
    if (y == x) y = (y + 1) % (1u << 30);
    collisions += (h(x) == h(y));
  }
  const double rate = static_cast<double>(collisions) / trials;
  EXPECT_LT(rate, 3.0 / static_cast<double>(range));
}

TEST(PairwiseHash, RoughlyUniformOverRange) {
  util::Rng rng(19);
  const auto h = hashing::PairwiseHash::sample(rng, 1u << 24, 16);
  std::vector<int> counts(16, 0);
  const int trials = 64000;
  for (int i = 0; i < trials; ++i) {
    counts[h(rng.below(1u << 24))]++;
  }
  for (int c : counts) EXPECT_NEAR(c, trials / 16, trials / 80);
}

TEST(PairwiseHash, SeedRoundtrip) {
  util::Rng rng(7);
  const auto h = hashing::PairwiseHash::sample(rng, 1u << 22, 555);
  util::BitBuffer buf;
  h.append_seed(buf);
  EXPECT_EQ(buf.size_bits(), h.seed_bits());
  util::BitReader reader(buf);
  const auto h2 = hashing::PairwiseHash::read_seed(reader, 555);
  for (std::uint64_t x = 0; x < 2000; x += 7) EXPECT_EQ(h(x), h2(x));
}

TEST(PairwiseHash, RejectsBadParameters) {
  util::Rng rng(7);
  EXPECT_THROW(hashing::PairwiseHash::sample(rng, 100, 0),
               std::invalid_argument);
}

// ---------- FKS compression ----------

TEST(Fks, InjectiveOnSmallSetsWithHighProbability) {
  util::Rng rng(3);
  int failures = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const util::Set s = util::random_set(rng, std::uint64_t{1} << 40, 64);
    const auto fks =
        hashing::FksCompressor::sample(rng, std::uint64_t{1} << 40, 64);
    failures += !fks.injective_on(s);
  }
  // Strength 3 with 64 elements: failure well below 1/64 per trial.
  EXPECT_LE(failures, 3);
}

TEST(Fks, RangeIsPolynomiallySmall) {
  util::Rng rng(3);
  const std::uint64_t universe = std::uint64_t{1} << 40;
  const auto fks = hashing::FksCompressor::sample(rng, universe, 64);
  // q ~ O(k^3 log^2 n) << n.
  EXPECT_LT(fks.range(), universe >> 8);
  EXPECT_GT(fks.range(), std::uint64_t{64} * 64 * 64);
}

TEST(Fks, DetectsCollisions) {
  util::Rng rng(9);
  const auto fks = hashing::FksCompressor::sample(rng, 1u << 20, 4);
  const std::uint64_t q = fks.range();
  const util::Set colliding{5, 5 + q};
  EXPECT_FALSE(fks.injective_on(colliding));
}

TEST(Fks, SeedRoundtrip) {
  util::Rng rng(9);
  const auto fks = hashing::FksCompressor::sample(rng, 1u << 20, 16);
  util::BitBuffer buf;
  fks.append_seed(buf);
  EXPECT_EQ(buf.size_bits(), fks.seed_bits());
  util::BitReader reader(buf);
  const auto fks2 = hashing::FksCompressor::read_seed(reader);
  EXPECT_EQ(fks.range(), fks2.range());
}

TEST(Fks, SeedCostIsLogarithmic) {
  // O(log k + log log n) bits: tiny even for a 2^60 universe.
  util::Rng rng(9);
  const auto fks =
      hashing::FksCompressor::sample(rng, std::uint64_t{1} << 60, 256);
  EXPECT_LT(fks.seed_bits(), 100u);
}

// ---------- mask hashing ----------

TEST(MaskHash, EqualInputsAlwaysHashEqual) {
  util::Rng stream(42);
  util::BitBuffer a;
  a.append_bits(0xdeadbeef, 32);
  util::BitBuffer b;
  b.append_bits(0xdeadbeef, 32);
  for (int i = 0; i < 50; ++i) {
    util::Rng s = stream.substream(i);
    EXPECT_EQ(hashing::mask_hash(a, 16, s), hashing::mask_hash(b, 16, s));
  }
}

TEST(MaskHash, UnequalInputsDisagreePerBitAboutHalfTheTime) {
  util::Rng stream(42);
  util::BitBuffer a;
  a.append_bits(0x1111, 16);
  util::BitBuffer b;
  b.append_bits(0x1112, 16);
  int disagreements = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    util::Rng s = stream.substream(i);
    disagreements +=
        (hashing::mask_hash(a, 1, s) != hashing::mask_hash(b, 1, s));
  }
  EXPECT_NEAR(disagreements, trials / 2, trials / 10);
}

TEST(MaskHash, MultiBitCollisionRateIsGeometric) {
  util::Rng stream(7);
  util::BitBuffer a;
  a.append_bits(123456, 24);
  util::BitBuffer b;
  b.append_bits(654321, 24);
  const unsigned bits = 6;  // expected collision rate 1/64
  int collisions = 0;
  const int trials = 64000;
  for (int i = 0; i < trials; ++i) {
    util::Rng s = stream.substream(i);
    collisions +=
        (hashing::mask_hash(a, bits, s) == hashing::mask_hash(b, bits, s));
  }
  EXPECT_NEAR(collisions, trials / 64, trials / 200);
}

TEST(MaskHash, PrefixInputsStillSeparate) {
  // One message a strict bit-prefix of the other (same leading content).
  util::Rng stream(21);
  util::BitBuffer a;
  a.append_bits(0xff, 8);
  util::BitBuffer b;
  b.append_bits(0xff, 8);
  b.append_bit(false);
  int collisions = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    util::Rng s = stream.substream(i);
    collisions +=
        (hashing::mask_hash(a, 8, s) == hashing::mask_hash(b, 8, s));
  }
  EXPECT_LT(collisions, trials / 50);
}

TEST(MaskHash, WideMatchesRequestedWidth) {
  util::Rng stream(33);
  util::BitBuffer data;
  data.append_bits(0xabcdef, 24);
  for (std::size_t bits : {1u, 63u, 64u, 65u, 130u, 200u}) {
    util::BitBuffer out;
    hashing::mask_hash_wide(data, bits, stream, out);
    EXPECT_EQ(out.size_bits(), bits);
  }
}

TEST(MaskHash, WideIsDeterministicAndContentSensitive) {
  util::Rng stream(33);
  util::BitBuffer d1;
  d1.append_bits(111, 32);
  util::BitBuffer d2;
  d2.append_bits(222, 32);
  util::BitBuffer o1;
  util::BitBuffer o1again;
  util::BitBuffer o2;
  hashing::mask_hash_wide(d1, 100, stream, o1);
  hashing::mask_hash_wide(d1, 100, stream, o1again);
  hashing::mask_hash_wide(d2, 100, stream, o2);
  EXPECT_TRUE(o1 == o1again);
  EXPECT_FALSE(o1 == o2);
}

TEST(MaskHash, RejectsOverwideSingle) {
  util::BitBuffer data;
  util::Rng stream(1);
  EXPECT_THROW(hashing::mask_hash(data, 65, stream), std::invalid_argument);
}

// --- The division-free reduction engine (hashing/barrett.h) -----------------
// Exactness over the full 64-bit domain is the whole contract: these
// reducers replace `%` inside hash evaluation, and golden transcripts pin
// that the replacement changes no computed value.

TEST(Reducer64, MatchesHardwareRemainderRandomized) {
  util::Rng rng(0xbad5eed);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::uint64_t d = rng.next() | 1;  // random odd divisor
    const std::uint64_t a = rng.next();
    const hashing::Reducer64 red(d);
    ASSERT_EQ(red.mod(a), a % d) << "a=" << a << " d=" << d;
  }
}

TEST(Reducer64, EdgeDivisorsAndValues) {
  const std::uint64_t max64 = ~std::uint64_t{0};
  const std::uint64_t divisors[] = {1,       2,        3,          4,
                                    5,       (1u << 16), (1ull << 32), (1ull << 62),
                                    max64 - 1, max64};
  const std::uint64_t values[] = {0, 1, 2, 3, (1ull << 32) - 1, (1ull << 32),
                                  (1ull << 63), max64 - 1, max64};
  for (std::uint64_t d : divisors) {
    const hashing::Reducer64 red(d);
    for (std::uint64_t a : values) {
      ASSERT_EQ(red.mod(a), a % d) << "a=" << a << " d=" << d;
    }
  }
}

TEST(Reducer64, RejectsZeroDivisor) {
  EXPECT_THROW(hashing::Reducer64(0), std::invalid_argument);
}

TEST(Montgomery64, MulMatchesMulmodRandomized) {
  util::Rng rng(0x5ca1ab1e);
  for (int trial = 0; trial < 20000; ++trial) {
    // Random odd modulus in [3, 2^63).
    const std::uint64_t m = (rng.below((std::uint64_t{1} << 62) - 2) * 2) + 3;
    const std::uint64_t a = rng.below(m);
    const std::uint64_t b = rng.below(m);
    const hashing::Montgomery64 mont(m);
    // Mixed-domain product: mul(to_mont(a), b) == a*b mod m.
    const std::uint64_t am = mont.to_mont(a);
    ASSERT_EQ(mont.mul(am, b), hashing::mulmod(a, b, m))
        << "a=" << a << " b=" << b << " m=" << m;
    ASSERT_EQ(mont.from_mont(am), a);
  }
}

TEST(Montgomery64, RejectsUnusableModuli) {
  EXPECT_THROW(hashing::Montgomery64(0), std::invalid_argument);
  EXPECT_THROW(hashing::Montgomery64(1), std::invalid_argument);
  EXPECT_THROW(hashing::Montgomery64(4), std::invalid_argument);  // even
  EXPECT_THROW(hashing::Montgomery64(std::uint64_t{1} << 63),
               std::invalid_argument);
}

TEST(PairwiseHash, EngineMatchesPlainFormula) {
  util::Rng rng(7331);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t universe = 2 + rng.below(std::uint64_t{1} << 40);
    const std::uint64_t range = 2 + rng.below(1u << 20);
    const auto h = hashing::PairwiseHash::sample(rng, universe, range);
    const std::uint64_t p = h.prime();
    // In-universe draws, then out-of-universe ones around the modulus and
    // the top of the 64-bit range (the engine reduces mod p first).
    std::vector<std::uint64_t> xs;
    for (int i = 0; i < 200; ++i) xs.push_back(rng.below(universe));
    for (int i = 0; i < 20; ++i) xs.push_back(rng.next());
    for (const std::uint64_t x :
         {p - 1, p, p + 1, 2 * p, ~std::uint64_t{0}, ~std::uint64_t{0} - 1}) {
      xs.push_back(x);
    }
    std::vector<std::uint64_t> batched(xs.size());
    h.hash_many(xs, batched);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const std::uint64_t x = xs[i];
      const std::uint64_t expected =
          (hashing::mulmod(h.multiplier(), x % p, p) + h.offset()) % p %
          h.range();
      ASSERT_EQ(h(x), expected) << "x=" << x << " p=" << p;
      ASSERT_EQ(batched[i], expected) << "x=" << x << " p=" << p;
    }
  }
}

// --- The next-prime memo (hashing/primes.h) ---------------------------------

TEST(PrimeCache, WarmLookupsHitAndAgree) {
  hashing::prime_cache_clear();
  const auto before = hashing::prime_cache_stats();
  EXPECT_EQ(before.entries, 0u);
  EXPECT_EQ(before.hits, 0u);

  util::Rng rng(99);
  std::vector<std::uint64_t> candidates(64);
  for (auto& c : candidates) c = 100 + rng.below(1u << 26);

  std::vector<std::uint64_t> cold;
  for (std::uint64_t c : candidates) {
    cold.push_back(hashing::next_prime_at_least(c));
  }
  const auto after_cold = hashing::prime_cache_stats();
  EXPECT_EQ(after_cold.misses, candidates.size());
  EXPECT_EQ(after_cold.entries, candidates.size());

  std::vector<std::uint64_t> warm;
  for (std::uint64_t c : candidates) {
    warm.push_back(hashing::next_prime_at_least(c));
  }
  EXPECT_EQ(warm, cold);
  const auto after_warm = hashing::prime_cache_stats();
  EXPECT_EQ(after_warm.hits, candidates.size());
  EXPECT_EQ(after_warm.entries, candidates.size());
}

TEST(PrimeCache, DoesNotChangeWhichPrimeASessionPicks) {
  // The satellite contract: caching must preserve seed-determinism of
  // WHICH prime a session samples — cold and warm runs of the same seeded
  // stream agree.
  hashing::prime_cache_clear();
  std::vector<std::uint64_t> cold_primes;
  {
    util::Rng rng(4242);
    for (int i = 0; i < 32; ++i) {
      cold_primes.push_back(
          hashing::random_prime_in(rng, 1u << 16, 1u << 22));
    }
  }
  std::vector<std::uint64_t> warm_primes;
  {
    util::Rng rng(4242);
    for (int i = 0; i < 32; ++i) {
      warm_primes.push_back(
          hashing::random_prime_in(rng, 1u << 16, 1u << 22));
    }
  }
  EXPECT_EQ(warm_primes, cold_primes);
}

}  // namespace
}  // namespace setint
