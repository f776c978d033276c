#include "tensor/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "tensor/simd.h"

namespace grimp {

Optimizer::Optimizer(std::vector<Parameter*> params)
    : params_(std::move(params)) {
  for (size_t k = 0; k < params_.size(); ++k) {
    const int64_t n = params_[k]->value.size();
    for (int64_t b = 0; b < n; b += kParallelThreshold) {
      chunks_.push_back({k, b, std::min(n, b + kParallelThreshold)});
    }
    total_elements_ += n;
  }
  partials_.resize(chunks_.size());
  written_chunks_.reserve(chunks_.size());
}

void Optimizer::ForEachChunk(FunctionRef<void(size_t, const ParamChunk&)> fn,
                             bool written_only) {
  const size_t* list = nullptr;  // null: every chunk
  auto n = static_cast<int64_t>(chunks_.size());
  int64_t elements = total_elements_;
  if (written_only) {
    written_chunks_.clear();
    elements = 0;
    for (size_t i = 0; i < chunks_.size(); ++i) {
      const ParamChunk& c = chunks_[i];
      if (!params_[c.param]->grad_written) continue;
      written_chunks_.push_back(i);
      elements += c.end - c.begin;
    }
    list = written_chunks_.data();
    n = static_cast<int64_t>(written_chunks_.size());
  }
  const auto run = [&](int64_t b, int64_t e) {
    for (int64_t j = b; j < e; ++j) {
      const size_t i = list != nullptr ? list[j] : static_cast<size_t>(j);
      fn(i, chunks_[i]);
    }
  };
  if (ShouldParallelize(elements)) {
    ParallelFor(0, n, 1, run);
  } else {
    run(0, n);
  }
}

void Optimizer::ClipGradNorm(float max_norm) {
  const simd::KernelTable& kt = simd::Kernels();
  ForEachChunk(
      [&](size_t i, const ParamChunk& c) {
        partials_[i] = kt.sum_squares(
            c.end - c.begin, params_[c.param]->grad.data() + c.begin);
      },
      /*written_only=*/true);
  // Ascending chunk order within a parameter, then parameter order: the
  // same additions at every pool size, so the norm's bits never depend on
  // the thread count. An unwritten parameter would add +0.
  double sq = 0.0;
  for (size_t i = 0; i < chunks_.size();) {
    const size_t param = chunks_[i].param;
    const bool written = params_[param]->grad_written;
    double param_sq = partials_[i++];
    for (; i < chunks_.size() && chunks_[i].param == param; ++i) {
      param_sq += partials_[i];
    }
    if (written) sq += param_sq;
  }
  const double norm = std::sqrt(sq);
  if (norm <= max_norm || norm == 0.0) return;
  const float scale = static_cast<float>(max_norm / norm);
  ForEachChunk(
      [&](size_t, const ParamChunk& c) {
        kt.scale(c.end - c.begin, scale,
                 params_[c.param]->grad.data() + c.begin);
      },
      /*written_only=*/true);
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
  ForEachChunk([&](size_t, const ParamChunk& c) {
    Parameter* p = params_[c.param];
    const int64_t n = c.end - c.begin;
    float* w = p->value.data() + c.begin;
    const float* g = p->grad.data() + c.begin;
    if (momentum_ != 0.0f) {
      kt.sgd_momentum(n, lr_, momentum_, g,
                      velocity_[c.param].data() + c.begin, w);
    } else {
      kt.axpy(n, -lr_, g, w);
    }
  });
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
  ForEachChunk([&](size_t, const ParamChunk& c) {
    Parameter* p = params_[c.param];
    kt.adam_step(c.end - c.begin, lr_, beta1_, beta2_, eps_, weight_decay_,
                 bc1, bc2, p->grad.data() + c.begin,
                 m_[c.param].data() + c.begin, v_[c.param].data() + c.begin,
                 p->value.data() + c.begin);
  });
}

}  // namespace grimp
