#include "hashing/primes.h"

#include <array>
#include <atomic>
#include <bit>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "hashing/barrett.h"
#include "hashing/modmath.h"

namespace setint::hashing {

namespace {

// Trial divisors: every prime up to 131. About 85% of odd composites have
// a factor this small and never reach the Miller-Rabin rounds.
constexpr std::uint64_t kSmallPrimes[] = {
    2,  3,  5,  7,  11, 13, 17, 19, 23, 29,  31,  37,  41,  43,  47,  53,
    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131};

// Size-keyed deterministic witness sets: {2, 7, 61} is exact below
// 4,759,123,141 (Jaeschke); Sinclair's seven bases are exact for every
// 64-bit n once a base that is 0 mod n is skipped.
constexpr std::uint64_t kSmallWitnessBound = 4759123141ull;
constexpr std::uint64_t kSmallWitnesses[] = {2, 7, 61};
constexpr std::uint64_t kWideWitnesses[] = {
    2, 325, 9375, 28178, 450775, 9780504, 1795265022};

// Miller-Rabin witness check in the Montgomery domain: all the squarings
// of the powmod ladder run division-free. Exact for any odd n in [3, 2^63).
// `a` is already reduced mod n and nonzero.
bool miller_rabin_witness_mont(const Montgomery64& mont, std::uint64_t n,
                               std::uint64_t a, std::uint64_t d, unsigned r) {
  const std::uint64_t one = mont.to_mont(1);
  const std::uint64_t minus_one = mont.to_mont(n - 1);
  std::uint64_t base = mont.to_mont(a);
  std::uint64_t x = one;
  std::uint64_t exp = d;
  while (exp > 0) {
    if (exp & 1) x = mont.mul(x, base);
    base = mont.mul(base, base);
    exp >>= 1;
  }
  if (x == one || x == minus_one) return false;  // not a witness
  for (unsigned i = 1; i < r; ++i) {
    x = mont.mul(x, x);
    if (x == minus_one) return false;
  }
  return true;  // witnesses compositeness
}

// Reference ladder via u128 `%` for the rare n >= 2^63 (outside the
// Montgomery domain's modulus range).
bool miller_rabin_witness_wide(std::uint64_t n, std::uint64_t a,
                               std::uint64_t d, unsigned r) {
  std::uint64_t x = powmod(a, d, n);
  if (x == 1 || x == n - 1) return false;
  for (unsigned i = 1; i < r; ++i) {
    x = mulmod(x, x, n);
    if (x == n - 1) return false;
  }
  return true;
}

// Next-prime memo, sharded by candidate bit-width (the satellite contract:
// one thread-safe table per magnitude class, so concurrent batch sessions
// probing different size regimes never contend on one lock). Bounded per
// shard; a full shard stops inserting but stays correct.
struct CacheShard {
  std::shared_mutex mu;
  std::unordered_map<std::uint64_t, std::uint64_t> next_prime;
};

constexpr std::size_t kMaxEntriesPerShard = 1 << 14;

std::array<CacheShard, 64>& cache_shards() {
  static std::array<CacheShard, 64> shards;
  return shards;
}

CacheShard& shard_for(std::uint64_t n) {
  return cache_shards()[63 - static_cast<unsigned>(std::countl_zero(n | 1))];
}

std::atomic<std::uint64_t> g_cache_hits{0};
std::atomic<std::uint64_t> g_cache_misses{0};

std::uint64_t next_prime_uncached(std::uint64_t n) {
  std::uint64_t c = n | 1;  // first odd >= n
  while (true) {
    if (is_prime(c)) return c;
    if (c > std::numeric_limits<std::uint64_t>::max() - 2) {
      throw std::overflow_error("next_prime_at_least: no 64-bit prime");
    }
    c += 2;
  }
}

}  // namespace

bool is_prime(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : kSmallPrimes) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  // n is odd here (even n were divisible by 2 above).
  const unsigned r = static_cast<unsigned>(std::countr_zero(n - 1));
  const std::uint64_t d = (n - 1) >> r;
  const std::span<const std::uint64_t> witnesses =
      n < kSmallWitnessBound ? std::span<const std::uint64_t>(kSmallWitnesses)
                             : std::span<const std::uint64_t>(kWideWitnesses);
  if (n < (std::uint64_t{1} << 63)) {
    const Montgomery64 mont(n);
    for (std::uint64_t a : witnesses) {
      a %= n;
      if (a != 0 && miller_rabin_witness_mont(mont, n, a, d, r)) return false;
    }
    return true;
  }
  for (std::uint64_t a : witnesses) {
    a %= n;
    if (a != 0 && miller_rabin_witness_wide(n, a, d, r)) return false;
  }
  return true;
}

std::uint64_t next_prime_at_least(std::uint64_t n) {
  if (n <= 2) return 2;
  CacheShard& shard = shard_for(n);
  bool full = false;
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    const auto it = shard.next_prime.find(n);
    if (it != shard.next_prime.end()) {
      g_cache_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
    full = shard.next_prime.size() >= kMaxEntriesPerShard;
  }
  g_cache_misses.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t p = next_prime_uncached(n);
  // A full shard stays full until prime_cache_clear, so a miss on it
  // skips the exclusive lock instead of serializing threads on it.
  if (full) return p;
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    if (shard.next_prime.size() < kMaxEntriesPerShard) {
      shard.next_prime.emplace(n, p);
    }
  }
  return p;
}

std::uint64_t random_prime_in(util::Rng& rng, std::uint64_t lo,
                              std::uint64_t hi) {
  if (lo >= hi) throw std::invalid_argument("random_prime_in: empty range");
  for (int attempt = 0; attempt < 4096; ++attempt) {
    const std::uint64_t candidate = lo + rng.below(hi - lo);
    const std::uint64_t p = next_prime_at_least(candidate);
    if (p < hi) return p;
  }
  // Range may still contain a prime near its start even if sampling missed.
  const std::uint64_t p = next_prime_at_least(lo);
  if (p < hi) return p;
  throw std::invalid_argument("random_prime_in: no prime in range");
}

PrimeCacheStats prime_cache_stats() {
  PrimeCacheStats stats;
  stats.hits = g_cache_hits.load(std::memory_order_relaxed);
  stats.misses = g_cache_misses.load(std::memory_order_relaxed);
  for (CacheShard& shard : cache_shards()) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    stats.entries += shard.next_prime.size();
  }
  return stats;
}

void prime_cache_clear() {
  for (CacheShard& shard : cache_shards()) {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.next_prime.clear();
  }
  g_cache_hits.store(0, std::memory_order_relaxed);
  g_cache_misses.store(0, std::memory_order_relaxed);
}

}  // namespace setint::hashing
