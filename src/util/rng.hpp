// Seeded random number generation for deterministic simulation and training.
//
// Every stochastic component in dosc (traffic generators, capacity
// assignment, policy sampling, weight initialisation) draws from an Rng
// instance that it receives explicitly — there is no hidden global state, so
// a scenario replayed with the same seeds is bit-identical.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace dosc::util {

/// Stable 64-bit mix (splitmix64 finalizer); pure integer arithmetic, so
/// hashes and derived seeds are identical across platforms and build types.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Deterministic PRNG wrapper around std::mt19937_64 with convenience
/// distributions. Copyable (copying forks the stream deterministically).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0) : engine_(seed) {}

  /// Derive an independent child stream; mixing the label keeps children
  /// with different labels decorrelated even for consecutive seeds.
  Rng fork(std::uint64_t label) {
    const std::uint64_t s = engine_() ^ (label * 0x9E3779B97F4A7C15ULL);
    return Rng(s);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential with the given mean (mean > 0).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Standard normal scaled to (mean, stddev).
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli with probability p of true.
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Sample an index from an (unnormalised, non-negative) weight vector.
  /// Returns weights.size() - 1 on degenerate input (all zero).
  std::size_t categorical(const std::vector<double>& weights);

  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dosc::util
