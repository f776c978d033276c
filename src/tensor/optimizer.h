#ifndef GRIMP_TENSOR_OPTIMIZER_H_
#define GRIMP_TENSOR_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/tape.h"

namespace grimp {

// Optimizer interface over a fixed set of registered parameters. Step()
// consumes each Parameter's accumulated grad; ZeroGrad() clears them.
//
// Every parameter is cut into kParallelThreshold-element chunks, and each
// optimizer phase (the clip's norm, the clip's scale, Step) is one pool
// loop over the flattened (parameter, chunk) list, so a model of many small
// tensors still fans out. Chunk boundaries depend only on the parameter
// shapes, which must not change after construction.
//
// ZeroGrad and the clip visit only the parameters whose grad was written
// since the last ZeroGrad (Parameter::grad_written). An unwritten grad is
// all +0: its squares add exactly +0 to the norm and scaling leaves it +0,
// so skipping it keeps every bit. Step still visits every parameter, since
// Adam's moments decay whether or not a gradient arrived.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params);
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  virtual void Step() = 0;

  void ZeroGrad() {
    for (Parameter* p : params_) p->ZeroGrad();
  }

  // Clips the global gradient norm to `max_norm` (no-op if under). The
  // norm sums per-chunk partials in ascending chunk order per parameter,
  // then across parameters in order, at every thread count.
  void ClipGradNorm(float max_norm);

  const std::vector<Parameter*>& params() const { return params_; }

 protected:
  struct ParamChunk {
    size_t param;  // index into params_
    int64_t begin;
    int64_t end;
  };

  // Runs fn(index, chunk) over every chunk, or with `written_only` over
  // the chunks of parameters whose grad was written: one pool loop when
  // those chunks hold at least kParallelThreshold elements in total,
  // inline otherwise.
  void ForEachChunk(FunctionRef<void(size_t, const ParamChunk&)> fn,
                    bool written_only = false);

  std::vector<Parameter*> params_;

 private:
  std::vector<ParamChunk> chunks_;  // parameter order, then chunk order
  int64_t total_elements_ = 0;
  std::vector<size_t> written_chunks_;  // ForEachChunk's written_only list
  std::vector<double> partials_;  // ClipGradNorm's per-chunk sums
};

class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> params, float lr, float momentum = 0.0f);
  void Step() override;

 private:
  float lr_;
  float momentum_;
  std::vector<Tensor> velocity_;
};

class Adam : public Optimizer {
 public:
  Adam(std::vector<Parameter*> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);
  void Step() override;

  // Running first and second moments of params()[k].
  const Tensor& first_moment(size_t k) const { return m_[k]; }
  const Tensor& second_moment(size_t k) const { return v_[k]; }

 private:
  float lr_, beta1_, beta2_, eps_, weight_decay_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace grimp

#endif  // GRIMP_TENSOR_OPTIMIZER_H_
