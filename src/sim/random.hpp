// Deterministic random number generation for workloads.
//
// We roll our own xoshiro256** + explicit distribution formulas instead of
// <random> distributions so that results are bit-identical across standard
// library implementations.
#pragma once

#include <array>
#include <cstdint>

#include "common/check.hpp"

namespace pd::sim {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Bernoulli trial.
  bool chance(double p);

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace pd::sim
