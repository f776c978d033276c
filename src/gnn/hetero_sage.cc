#include "gnn/hetero_sage.h"

#include "common/trace.h"

namespace grimp {

SageSubmodule::SageSubmodule(std::string name, int64_t in_dim,
                             int64_t out_dim, Rng* rng)
    : linear_(std::move(name), 2 * in_dim, out_dim, rng) {}

Tape::VarId SageSubmodule::ForwardBlock(Tape* tape, Tape::VarId h_dst,
                                        Tape::VarId h_src,
                                        const CsrAdjacency& adj) const {
  // Borrowing overload: the adjacency outlives the tape's backward pass
  // (graphs and sampled blocks are alive until after the optimizer step),
  // so neither index vector is copied per layer call.
  Tape::VarId neigh_mean =
      tape->SegmentMean(h_src, &adj.offsets(), &adj.indices());
  Tape::VarId concat = tape->ConcatCols(h_dst, neigh_mean);
  return linear_.Forward(tape, concat);
}

void SageSubmodule::CollectParameters(std::vector<Parameter*>* out) {
  linear_.CollectParameters(out);
}

HeteroSageLayer::HeteroSageLayer(std::string name, int num_edge_types,
                                 int64_t in_dim, int64_t out_dim, Rng* rng) {
  GRIMP_CHECK_GT(num_edge_types, 0);
  submodules_.reserve(static_cast<size_t>(num_edge_types));
  for (int t = 0; t < num_edge_types; ++t) {
    submodules_.emplace_back(name + ".t" + std::to_string(t), in_dim,
                             out_dim, rng);
  }
}

namespace {

// Reuses *slot's buffer when the scratch holds the only reference (the
// previous step's tape closures have been Reset away); reallocates
// otherwise. Returns the vector zero-filled to size n.
std::vector<float>& ReusableScale(std::shared_ptr<std::vector<float>>* slot,
                                  int64_t n) {
  if (*slot == nullptr || slot->use_count() != 1) {
    *slot = std::make_shared<std::vector<float>>();
  }
  (*slot)->assign(static_cast<size_t>(n), 0.0f);
  return **slot;
}

}  // namespace

Tape::VarId HeteroSageLayer::Forward(Tape* tape, Tape::VarId h_dst,
                                     Tape::VarId h_src, int64_t num_dst,
                                     std::span<const CsrAdjacency> adjacency,
                                     SageScratch* scratch) const {
  GRIMP_CHECK_EQ(adjacency.size(), submodules_.size());
  SageScratch local;
  SageScratch& s = scratch != nullptr ? *scratch : local;
  // Per-type participation masks and the per-node 1/#incident-types
  // normalizer: pure functions of the adjacency, refilled every call.
  s.masks.resize(submodules_.size());
  s.counts.assign(static_cast<size_t>(num_dst), 0);
  for (size_t t = 0; t < submodules_.size(); ++t) {
    std::vector<float>& mask = ReusableScale(&s.masks[t], num_dst);
    const CsrAdjacency& adj = adjacency[t];
    for (int64_t v = 0; v < num_dst; ++v) {
      if (adj.Degree(v) > 0) {
        mask[static_cast<size_t>(v)] = 1.0f;
        ++s.counts[static_cast<size_t>(v)];
      }
    }
  }
  std::vector<float>& inv = ReusableScale(&s.inv_counts, num_dst);
  for (int64_t v = 0; v < num_dst; ++v) {
    if (s.counts[static_cast<size_t>(v)] > 0) {
      inv[static_cast<size_t>(v)] =
          1.0f / static_cast<float>(s.counts[static_cast<size_t>(v)]);
    }
  }
  Tape::VarId acc = -1;
  for (size_t t = 0; t < submodules_.size(); ++t) {
    Tape::VarId out =
        submodules_[t].ForwardBlock(tape, h_dst, h_src, adjacency[t]);
    Tape::VarId masked = tape->RowScale(out, s.masks[t]);
    acc = (acc < 0) ? masked : tape->Add(acc, masked);
  }
  GRIMP_CHECK_GE(acc, 0);
  return tape->RowScale(acc, s.inv_counts);
}

void HeteroSageLayer::CollectParameters(std::vector<Parameter*>* out) {
  for (auto& sub : submodules_) sub.CollectParameters(out);
}

int64_t HeteroSageLayer::NumParameters() const {
  int64_t total = 0;
  for (const auto& sub : submodules_) total += sub.NumParameters();
  return total;
}

HeteroGnn::HeteroGnn(int num_edge_types, int64_t in_dim, int64_t hidden_dim,
                     int64_t out_dim, int num_layers, Rng* rng) {
  GRIMP_CHECK_GE(num_layers, 1);
  layers_.reserve(static_cast<size_t>(num_layers));
  for (int l = 0; l < num_layers; ++l) {
    const int64_t in = (l == 0) ? in_dim : hidden_dim;
    const int64_t out = (l == num_layers - 1) ? out_dim : hidden_dim;
    layers_.emplace_back("gnn.l" + std::to_string(l), num_edge_types, in,
                         out, rng);
  }
}

Tape::VarId HeteroGnn::Forward(Tape* tape, Tape::VarId features,
                               const HeteroGraph& graph,
                               GnnScratch* scratch) const {
  GRIMP_TRACE_SPAN("gnn.forward");
  GnnScratch local;
  GnnScratch& s = scratch != nullptr ? *scratch : local;
  s.layers.resize(layers_.size());
  Tape::VarId h = features;
  for (size_t l = 0; l < layers_.size(); ++l) {
    h = layers_[l].Forward(tape, h, h, graph.num_nodes(),
                           graph.adjacencies(), &s.layers[l]);
    if (l + 1 < layers_.size()) h = tape->Relu(h);
  }
  return h;
}

Tape::VarId HeteroGnn::ForwardBlocks(Tape* tape, Tape::VarId features,
                                     const SampledSubgraph& subgraph,
                                     GnnScratch* scratch) const {
  GRIMP_TRACE_SPAN("gnn.forward");
  GRIMP_CHECK_EQ(subgraph.blocks.size(), layers_.size());
  GnnScratch local;
  GnnScratch& s = scratch != nullptr ? *scratch : local;
  s.layers.resize(layers_.size());
  Tape::VarId h = features;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const GraphBlock& block = subgraph.blocks[l];
    GRIMP_CHECK_EQ(tape->value(h).rows(), block.num_src);
    // Self term: the block's destinations are the first num_dst input
    // rows, so a prefix slice replaces the explicit [0..num_dst) gather.
    h = layers_[l].Forward(tape, tape->SliceRows(h, block.num_dst), h,
                           block.num_dst, block.adjacency, &s.layers[l]);
    if (l + 1 < layers_.size()) h = tape->Relu(h);
  }
  return h;
}

void HeteroGnn::CollectParameters(std::vector<Parameter*>* out) {
  for (auto& layer : layers_) layer.CollectParameters(out);
}

int64_t HeteroGnn::NumParameters() const {
  int64_t total = 0;
  for (const auto& layer : layers_) total += layer.NumParameters();
  return total;
}

}  // namespace grimp
