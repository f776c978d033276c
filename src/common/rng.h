#ifndef GRIMP_COMMON_RNG_H_
#define GRIMP_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace grimp {

// One step of the splitmix64 generator from state `x`: advances it by the
// golden-ratio increment and mixes. SplitMix64(0) == 0xe220a8397b1dcdaf.
uint64_t SplitMix64(uint64_t x);

// Seed of a keyed random stream: a pure function of (a, b, c) — never of
// call order, scheduling or thread count — so a stream keyed on, say,
// (seed, epoch, batch) draws the same values however the work is split.
// Equals SplitMix64(SplitMix64(SplitMix64(a) ^ b) ^ c).
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c);

// Deterministic, fast PRNG (xoshiro256**). Every stochastic component in
// the library takes an explicit Rng (or a seed) so that experiments are
// reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Raw 64 random bits.
  uint64_t Next();

  // Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform float in [lo, hi).
  float UniformReal(float lo, float hi);

  // Standard normal via Box-Muller.
  double NextGaussian();

  // true with probability p.
  bool Bernoulli(double p);

  // Fisher-Yates shuffle of [first, first + n).
  template <typename T>
  void Shuffle(T* first, size_t n) {
    for (size_t i = n; i > 1; --i) {
      size_t j = Uniform(i);
      std::swap(first[i - 1], first[j]);
    }
  }

  template <typename T>
  void Shuffle(std::vector<T>* v) {
    Shuffle(v->data(), v->size());
  }

  // Derives an independent child stream (for per-component seeding).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

// Samples indices from a fixed unnormalized, non-negative weight vector.
// The running sums acc[i] = w[0] + ... + w[i] are built once, left to
// right, so a draw is one NextDouble and a binary search instead of a
// pass over every weight. A draw takes r = NextDouble() * total and
// returns the first i with r < acc[i], size() - 1 if there is none: the
// index a linear scan accumulating the weights in order would return. An
// all-zero vector draws nothing and always gives size() - 1.
class CategoricalTable {
 public:
  // `weights` must be non-empty.
  explicit CategoricalTable(const std::vector<double>& weights);

  size_t Draw(Rng* rng) const;
  // The index a draw of `r` gives: the first i with r < acc[i], clamped
  // to size() - 1.
  size_t Find(double r) const;

  double total() const { return acc_.back(); }

 private:
  std::vector<double> acc_;
};

}  // namespace grimp

#endif  // GRIMP_COMMON_RNG_H_
