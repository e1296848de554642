#ifndef SGNN_COMMON_RNG_H_
#define SGNN_COMMON_RNG_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <unordered_set>
#include <vector>

#include "common/check.h"

namespace sgnn::common {

/// SplitMix64 finaliser: a strong, cheap 64-bit bit mixer. The primitive
/// behind keyed stream derivation — every bit of the input affects every
/// bit of the output, so nearby keys give decorrelated streams.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Derives the seed of an independent stream from a (base, key) pair.
/// Parallel kernels seed one `Rng` per work item as
/// `Rng(MixSeed(base, item))`: the stream depends only on the pair, never
/// on which thread or in what order the item runs — the property that
/// makes sampling results independent of the worker count.
inline uint64_t MixSeed(uint64_t base, uint64_t key) {
  return SplitMix64(base ^ SplitMix64(key));
}

/// Uniform double in [0, 1) as a pure function of (base, key); the shared
/// per-vertex variate of LABOR-style samplers. 53-bit resolution.
inline double KeyedUniform(uint64_t base, uint64_t key) {
  return static_cast<double>(MixSeed(base, key) >> 11) * 0x1.0p-53;
}

/// Samples `k` distinct indices from [0, n) uniformly (k <= n), in
/// unspecified order, drawing from any 64-bit `engine` through
/// `std::uniform_int_distribution`. The one implementation behind
/// `Rng::SampleWithoutReplacement` and
/// `KeyedStream::SampleWithoutReplacement`, so two engines with equal
/// output streams give equal samples.
template <typename Engine>
std::vector<uint64_t> SampleWithoutReplacement(Engine* engine, uint64_t n,
                                               uint64_t k) {
  SGNN_CHECK_LE(k, n);
  auto uniform_int = [engine](uint64_t m) {
    return std::uniform_int_distribution<uint64_t>(0, m - 1)(*engine);
  };
  std::vector<uint64_t> out;
  if (k == 0) return out;
  // Dense regime: shuffle a prefix of the identity permutation.
  if (k * 3 >= n) {
    out.resize(n);
    for (uint64_t i = 0; i < n; ++i) out[i] = i;
    for (uint64_t i = 0; i < k; ++i) {
      std::swap(out[i], out[i + uniform_int(n - i)]);
    }
    out.resize(k);
    return out;
  }
  // Sparse regime: Floyd's algorithm.
  out.reserve(k);
  std::unordered_set<uint64_t> seen;
  seen.reserve(k * 2);
  for (uint64_t j = n - k; j < n; ++j) {
    const uint64_t t = uniform_int(j + 1);
    if (!seen.insert(t).second) {
      seen.insert(j);
      out.push_back(j);
    } else {
      out.push_back(t);
    }
  }
  return out;
}

/// The keyed stream `Rng(MixSeed(base, key))` produces, bit for bit, but
/// seeded lazily: the per-destination stream of the samplers, where each
/// stream yields only ~fanout numbers.
///
/// Constructing a `std::mt19937_64` writes all 312 state words and its
/// first draw twists all 312, yet draw k (k < 156) reads only state words
/// k, k+1 and k+156. This engine seeds words on first use and twists one
/// word per draw, so its first d <= 156 draws cost about 156 + d seeding
/// steps and d twists instead of 312 + 312. From draw 156 on every word
/// is seeded and it runs as the ordinary engine, twisting word k just
/// before it is output — the same in-place recurrence, in the same order,
/// as `std::mt19937_64`'s bulk twist, so every output is identical.
class KeyedStream {
 public:
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  KeyedStream(uint64_t base, uint64_t key) { x_[0] = MixSeed(base, key); }

  result_type operator()() {
    if (pos_ == kWords) pos_ = 0;
    const size_t k = pos_++;
    // Twisting word k reads words k+1 and k+156 (mod 312); for k >= 156
    // both are seeded already.
    if (seeded_ < kWords) SeedThrough(std::min(kWords, k + kShift + 1));
    const uint64_t y = (x_[k] & kUpper) | (x_[(k + 1) % kWords] & ~kUpper);
    x_[k] = x_[(k + kShift) % kWords] ^ (y >> 1) ^ ((y & 1) ? kMatrix : 0);
    uint64_t z = x_[k];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  /// As `Rng::SampleWithoutReplacement` on `Rng(MixSeed(base, key))`.
  std::vector<uint64_t> SampleWithoutReplacement(uint64_t n, uint64_t k) {
    return common::SampleWithoutReplacement(this, n, k);
  }

 private:
  // std::mt19937_64's parameters (n, m, r, a).
  static constexpr size_t kWords = 312;
  static constexpr size_t kShift = 156;
  static constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  static constexpr uint64_t kMatrix = 0xB5026F5AA96619E9ULL;

  /// Extends the seeding recurrence to words [seeded_, end).
  void SeedThrough(size_t end) {
    for (; seeded_ < end; ++seeded_) {
      const uint64_t prev = x_[seeded_ - 1];
      x_[seeded_] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + seeded_;
    }
  }

  // Left uninitialised on purpose: writing all 312 words is the cost this
  // class exists to avoid. Words [0, seeded_) are written; draws read
  // nothing else.
  std::array<uint64_t, kWords> x_;
  size_t seeded_ = 1;
  size_t pos_ = 0;
};
static_assert(std::uniform_random_bit_generator<KeyedStream>);

/// Deterministic random number generator used throughout the library.
///
/// Every stochastic component (generators, samplers, initialisers) takes an
/// explicit 64-bit seed and derives an `Rng`, so any run of the library is
/// reproducible bit-for-bit given the seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    SGNN_DCHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n) {
    SGNN_DCHECK(n > 0);
    return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal draw scaled to N(mean, stddev^2).
  double Gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->size() < 2) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = UniformInt(i + 1);
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) uniformly (k <= n), in
  /// unspecified order. Uses Floyd's algorithm for k << n.
  std::vector<uint64_t> SampleWithoutReplacement(uint64_t n, uint64_t k) {
    return common::SampleWithoutReplacement(&engine_, n, k);
  }

  /// Draws an index from an unnormalised non-negative weight vector.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Forks a child generator whose stream is decorrelated from this one;
  /// used to give parallel or per-item components independent streams.
  Rng Fork() { return Rng(engine_() ^ 0x9E3779B97F4A7C15ULL); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace sgnn::common

#endif  // SGNN_COMMON_RNG_H_
