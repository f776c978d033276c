#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace grimp {

namespace {
constexpr uint64_t kSplitMixIncrement = 0x9e3779b97f4a7c15ULL;

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

uint64_t SplitMix64(uint64_t x) {
  x += kSplitMixIncrement;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  return SplitMix64(SplitMix64(SplitMix64(a) ^ b) ^ c);
}

Rng::Rng(uint64_t seed) {
  // The xoshiro state is four consecutive splitmix64 outputs from `seed`.
  for (auto& w : s_) {
    w = SplitMix64(seed);
    seed += kSplitMixIncrement;
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t n) {
  GRIMP_DCHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -n % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

float Rng::UniformReal(float lo, float hi) {
  return lo + static_cast<float>(NextDouble()) * (hi - lo);
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(Next()); }

CategoricalTable::CategoricalTable(const std::vector<double>& weights)
    : acc_(weights.size()) {
  GRIMP_CHECK(!weights.empty());
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    acc_[i] = acc;
  }
}

size_t CategoricalTable::Draw(Rng* rng) const {
  if (total() <= 0.0) return acc_.size() - 1;
  return Find(rng->NextDouble() * total());
}

size_t CategoricalTable::Find(double r) const {
  // Branchless upper bound: `first` stays at or before the answer while
  // `len` halves. The step is masked rather than selected: written as a
  // select, GCC emits a branch that a random r mispredicts half the time.
  const double* first = acc_.data();
  size_t len = acc_.size();
  while (len > 1) {
    const size_t half = len / 2;
    first += half & (0 - static_cast<size_t>(first[half - 1] <= r));
    len -= half;
  }
  const size_t i = static_cast<size_t>(first - acc_.data()) + (*first <= r);
  return std::min(i, acc_.size() - 1);
}

}  // namespace grimp
