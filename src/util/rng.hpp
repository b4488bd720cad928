// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library (stream generators, protocol
// coin flips) draws from an Rng instance seeded through SplitMix64, so a
// single top-level seed reproduces an entire experiment bit-for-bit.
// The generator is xoshiro256** (Blackman & Vigna), which is fast, has a
// 2^256-1 period and passes BigCrush; quality matters here because the
// MaximumProtocol analysis assumes independent Bernoulli(2^r/N) trials.
#pragma once

#include <array>
#include <iterator>
#include <cstdint>

#include "util/types.hpp"

namespace topkmon {

/// SplitMix64 step; used for seeding and for cheap stream derivation.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** PRNG with convenience distributions used by the library.
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Next raw 64-bit output.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept;

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform integer in [0, n) for n >= 1, via Lemire's unbiased method.
  std::uint64_t uniform_below(std::uint64_t n) noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Exact Bernoulli(2^r / N) trial for power-of-two N = 2^log_n, r <= log_n.
  /// This is the only coin the paper's nodes are required to support
  /// ("perform Bernoulli trials with success probability 2^i/n"); it is
  /// exact (no floating point) by comparing log_n - r low bits to zero.
  bool bernoulli_pow2(std::uint32_t r, std::uint32_t log_n) noexcept;

  /// Standard normal via Box-Muller (cached second variate).
  double next_gaussian() noexcept;

  /// Derives an independent child generator; `stream_id` selects the child.
  /// Children with different ids are statistically independent.
  Rng derive(std::uint64_t stream_id) const noexcept;

  /// Fisher-Yates shuffle of a random-access range.
  template <typename RandomIt>
  void shuffle(RandomIt first, RandomIt last) noexcept {
    using Diff = typename std::iterator_traits<RandomIt>::difference_type;
    const auto n = static_cast<std::uint64_t>(last - first);
    for (std::uint64_t i = n; i > 1; --i) {
      const auto j = uniform_below(i);
      using std::swap;
      swap(first[static_cast<Diff>(i - 1)], first[static_cast<Diff>(j)]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace topkmon
