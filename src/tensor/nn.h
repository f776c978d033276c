#ifndef GRIMP_TENSOR_NN_H_
#define GRIMP_TENSOR_NN_H_

#include <string>
#include <utility>
#include <vector>

#include "tensor/tape.h"

namespace grimp {

// Fully connected layer: y = x * W + b, with Glorot init.
class Linear {
 public:
  Linear() = default;
  Linear(std::string name, int64_t in_dim, int64_t out_dim, Rng* rng);

  // Records one fused Linear (or LinearRelu when fuse_relu) tape node: the
  // bias add — and the activation, when fused — run in the GEMM epilogue.
  Tape::VarId Forward(Tape* tape, Tape::VarId x, bool fuse_relu = false) const;
  // Records the weight and the bias as tape leaves, for ops that take them
  // directly (Tape::HeteroSage).
  std::pair<Tape::VarId, Tape::VarId> Leaves(Tape* tape) const;

  // Overwrites the bias (e.g. log class priors for classifier heads).
  void SetBias(const std::vector<float>& bias);

  int64_t in_dim() const { return weight_.value.rows(); }
  int64_t out_dim() const { return weight_.value.cols(); }

  // Parameters are owned here; trainers collect raw pointers.
  void CollectParameters(std::vector<Parameter*>* out);
  int64_t NumParameters() const {
    return weight_.value.size() + bias_.value.size();
  }

 private:
  mutable Parameter weight_;
  mutable Parameter bias_;
};

// A small stack of Linear layers with ReLU between them (not after the
// last). Used for the shared merging step and linear task heads.
class Mlp {
 public:
  Mlp() = default;
  // dims = {in, hidden..., out}; dims.size() >= 2.
  Mlp(std::string name, const std::vector<int64_t>& dims, Rng* rng);

  Tape::VarId Forward(Tape* tape, Tape::VarId x) const;

  // Overwrites the final layer's bias (log-prior initialization of
  // classifier heads).
  void SetOutputBias(const std::vector<float>& bias);

  void CollectParameters(std::vector<Parameter*>* out);
  int64_t NumParameters() const;

 private:
  std::vector<Linear> layers_;
};

}  // namespace grimp

#endif  // GRIMP_TENSOR_NN_H_
