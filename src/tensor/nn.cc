#include "tensor/nn.h"

namespace grimp {

Linear::Linear(std::string name, int64_t in_dim, int64_t out_dim, Rng* rng)
    : weight_(name + ".W", Tensor::GlorotUniform(in_dim, out_dim, rng)),
      bias_(name + ".b", Tensor::Zeros(1, out_dim)) {}

Tape::VarId Linear::Forward(Tape* tape, Tape::VarId x, bool fuse_relu) const {
  const auto [w, b] = Leaves(tape);
  return fuse_relu ? tape->LinearRelu(x, w, b) : tape->Linear(x, w, b);
}

std::pair<Tape::VarId, Tape::VarId> Linear::Leaves(Tape* tape) const {
  const Tape::VarId w = tape->Leaf(&weight_);
  return {w, tape->Leaf(&bias_)};
}

void Linear::SetBias(const std::vector<float>& bias) {
  GRIMP_CHECK_EQ(static_cast<int64_t>(bias.size()), bias_.value.cols());
  for (int64_t i = 0; i < bias_.value.cols(); ++i) {
    bias_.value.at(0, i) = bias[static_cast<size_t>(i)];
  }
}

void Linear::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  out->push_back(&bias_);
}

Mlp::Mlp(std::string name, const std::vector<int64_t>& dims, Rng* rng) {
  GRIMP_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(name + ".l" + std::to_string(i), dims[i], dims[i + 1],
                         rng);
  }
}

Tape::VarId Mlp::Forward(Tape* tape, Tape::VarId x) const {
  Tape::VarId h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    // Inter-layer ReLUs ride the GEMM epilogue (not after the last layer).
    h = layers_[i].Forward(tape, h, /*fuse_relu=*/i + 1 < layers_.size());
  }
  return h;
}

void Mlp::SetOutputBias(const std::vector<float>& bias) {
  GRIMP_CHECK(!layers_.empty());
  layers_.back().SetBias(bias);
}

void Mlp::CollectParameters(std::vector<Parameter*>* out) {
  for (auto& layer : layers_) layer.CollectParameters(out);
}

int64_t Mlp::NumParameters() const {
  int64_t total = 0;
  for (const auto& layer : layers_) total += layer.NumParameters();
  return total;
}

}  // namespace grimp
