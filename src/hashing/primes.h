// Primality testing and random prime sampling.
//
// Random primes back the Carter-Wegman pairwise family and the FKS
// universe-compression step; both need primes of a prescribed magnitude,
// sampled from few random bits.
//
// Perf engine (docs/PERFORMANCE.md): Miller-Rabin exponentiation runs in
// the Montgomery domain (hashing/barrett.h) for odd inputs below 2^63,
// and every next-prime search result is memoized in a thread-safe table
// sharded by candidate bit-width (a full shard serves hits but takes no
// writer lock on a miss). Caching never changes WHICH prime a
// session picks — the candidate draw still consumes the same Rng values,
// and next_prime_at_least is a pure function of its argument — it only
// skips re-verifying a prime that an earlier session already verified.
#pragma once

#include <cstdint>

#include "util/rng.h"

namespace setint::hashing {

// Deterministic Miller-Rabin, exact for all 64-bit inputs: trial division
// by the primes up to 131, then size-keyed witness sets — {2, 7, 61} below
// 4,759,123,141 and Sinclair's {2, 325, 9375, 28178, 450775, 9780504,
// 1795265022} above, skipping a base that is 0 mod n.
bool is_prime(std::uint64_t n);

// Smallest prime >= n; throws if none fits in 64 bits. Results are
// memoized in the process-wide prime cache.
std::uint64_t next_prime_at_least(std::uint64_t n);

// Uniform-ish random prime in [lo, hi): samples uniform candidates and
// takes the next prime at or after the sample (standard density argument;
// adequate for hash-seed purposes). Requires a prime to exist in range.
std::uint64_t random_prime_in(util::Rng& rng, std::uint64_t lo,
                              std::uint64_t hi);

// Observability for the next-prime memo table. `entries` is the current
// number of cached (candidate -> prime) pairs across all bit-width shards;
// hits/misses count next_prime_at_least lookups process-wide.
struct PrimeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
};
PrimeCacheStats prime_cache_stats();

// Drops every cached entry and zeroes the hit/miss counters (tests and
// cold-vs-warm benchmarking).
void prime_cache_clear();

}  // namespace setint::hashing
