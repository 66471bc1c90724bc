#include "util/rng.h"

#include <stdexcept>

namespace setint::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b * 0x9e3779b97f4a7c15ull);
  std::uint64_t m = splitmix64(s);
  return splitmix64(s) ^ m;
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::below: bound == 0");
  // Rejection sampling on the top range to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v;
  do {
    v = next();
  } while (v >= limit);
  return v % bound;
}

double Rng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Rng Rng::substream(std::uint64_t label) const {
  return Rng(mix64(seed_, label));
}

Rng Rng::substream(std::string_view label, std::uint64_t a,
                   std::uint64_t b) const {
  // FNV-1a over the label text, then fold in the numeric qualifiers.
  std::uint64_t h = 14695981039346656037ull;
  for (char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return Rng(mix64(mix64(seed_, h), mix64(a, b)));
}

}  // namespace setint::util
