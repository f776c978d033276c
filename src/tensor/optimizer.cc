#include "tensor/optimizer.h"

#include <cmath>

#include "common/thread_pool.h"
#include "tensor/simd.h"

namespace grimp {

namespace {

// Runs fn(begin, end) over [0, n) as contiguous ranges, chunked onto the
// global pool above the dispatch-worthiness threshold. Chunk boundaries
// depend only on n, so any fn touching only its own range is deterministic
// at every thread count.
template <typename Fn>
void ForEachRange(int64_t n, Fn&& fn) {
  if (ShouldParallelize(n)) {
    ParallelFor(0, n, kParallelThreshold, fn);
  } else {
    fn(0, n);
  }
}

}  // namespace

void Optimizer::ClipGradNorm(float max_norm) {
  const simd::KernelTable& kt = simd::Kernels();
  double sq = 0.0;
  for (Parameter* p : params_) {
    const float* gd = p->grad.data();
    // Per-chunk partials combined in ascending chunk order at every pool
    // size (one thread runs the same chunks inline): boundaries depend only
    // on the size and the grain, so the norm's bits never depend on the
    // thread count.
    sq += ThreadPool::Global().ParallelReduce(
        0, p->grad.size(), kParallelThreshold,
        [&](int64_t b, int64_t e) { return kt.sum_squares(e - b, gd + b); },
        [](double a, double b) { return a + b; });
  }
  const double norm = std::sqrt(sq);
  if (norm <= max_norm || norm == 0.0) return;
  const float scale = static_cast<float>(max_norm / norm);
  for (Parameter* p : params_) {
    float* gd = p->grad.data();
    ForEachRange(p->grad.size(), [=, &kt](int64_t b, int64_t e) {
      kt.scale(e - b, scale, gd + b);
    });
  }
}

Sgd::Sgd(std::vector<Parameter*> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  if (momentum_ != 0.0f) {
    velocity_.reserve(params_.size());
    for (Parameter* p : params_) {
      velocity_.push_back(Tensor::Zeros(p->value.rows(), p->value.cols()));
    }
  }
}

void Sgd::Step() {
  const simd::KernelTable& kt = simd::Kernels();
  for (size_t k = 0; k < params_.size(); ++k) {
    Parameter* p = params_[k];
    if (momentum_ != 0.0f) {
      float* vel = velocity_[k].data();
      float* w = p->value.data();
      const float* g = p->grad.data();
      ForEachRange(p->value.size(), [=, &kt](int64_t b, int64_t e) {
        kt.sgd_momentum(e - b, lr_, momentum_, g + b, vel + b, w + b);
      });
    } else {
      p->value.Axpy(-lr_, p->grad);
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps), weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.push_back(Tensor::Zeros(p->value.rows(), p->value.cols()));
    v_.push_back(Tensor::Zeros(p->value.rows(), p->value.cols()));
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const simd::KernelTable& kt = simd::Kernels();
  for (size_t k = 0; k < params_.size(); ++k) {
    Parameter* p = params_[k];
    float* m = m_[k].data();
    float* v = v_[k].data();
    float* w = p->value.data();
    const float* g = p->grad.data();
    ForEachRange(p->value.size(), [=, &kt](int64_t b, int64_t e) {
      kt.adam_step(e - b, lr_, beta1_, beta2_, eps_, weight_decay_, bc1, bc2,
                   g + b, m + b, v + b, w + b);
    });
  }
}

}  // namespace grimp
