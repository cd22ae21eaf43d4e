#include "sim/random.hpp"

#include <cmath>

namespace pd::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform(std::uint64_t lo, std::uint64_t hi) {
  PD_CHECK(lo <= hi, "uniform bounds inverted");
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next_u64();  // full range
  // Lemire-style rejection-free multiply-shift is fine for simulation use.
  return lo + static_cast<std::uint64_t>(next_double() * static_cast<double>(span));
}

double Rng::exponential(double mean) {
  PD_CHECK(mean > 0.0, "exponential mean must be positive");
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

bool Rng::chance(double p) { return next_double() < p; }

}  // namespace pd::sim
