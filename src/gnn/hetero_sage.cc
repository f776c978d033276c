#include "gnn/hetero_sage.h"

#include <memory>
#include <tuple>

#include "common/trace.h"

namespace grimp {

HeteroSageLayer::HeteroSageLayer(std::string name, int num_edge_types,
                                 int64_t in_dim, int64_t out_dim, Rng* rng) {
  GRIMP_CHECK_GT(num_edge_types, 0);
  submodules_.reserve(static_cast<size_t>(num_edge_types));
  for (int t = 0; t < num_edge_types; ++t) {
    submodules_.emplace_back(name + ".t" + std::to_string(t), 2 * in_dim,
                             out_dim, rng);
  }
}

Tape::VarId HeteroSageLayer::Forward(Tape* tape, Tape::VarId h_dst,
                                     Tape::VarId h_src, int64_t num_dst,
                                     std::span<const CsrAdjacency> adjacency,
                                     SageScratch* scratch,
                                     const std::vector<int32_t>* out_rows)
    const {
  GRIMP_CHECK_EQ(adjacency.size(), submodules_.size());
  int64_t num_out = num_dst;
  if (out_rows != nullptr) {
    num_out = static_cast<int64_t>(out_rows->size());
    int64_t prev = -1;
    for (const int32_t v : *out_rows) {
      GRIMP_CHECK(v > prev && v < num_dst)
          << "out_rows must ascend within [0, " << num_dst << ")";
      prev = v;
    }
  }
  std::shared_ptr<SageScratch> owned;
  if (scratch == nullptr) {
    owned = std::make_shared<SageScratch>();
    scratch = owned.get();
  }
  SageScratch& s = *scratch;
  s.out_rows = out_rows;
  // One pass per type over its raw offsets: the rows it touches become the
  // lane's live rows (ascending), and each counts the type into its
  // 1/#incident-types normalizer, types ascending.
  s.row_scale.assign(static_cast<size_t>(num_out), 0.0f);
  s.lanes.resize(submodules_.size());
  for (size_t t = 0; t < submodules_.size(); ++t) {
    SageLane& lane = s.lanes[t];
    const CsrAdjacency& adj = adjacency[t];
    lane.offsets = &adj.offsets();
    lane.indices = &adj.indices();
    std::tie(lane.weight, lane.bias) = submodules_[t].Leaves(tape);
    lane.rows.clear();
    const int32_t* off = adj.offsets().data();
    for (int64_t i = 0; i < num_out; ++i) {
      const int64_t d =
          out_rows != nullptr ? (*out_rows)[static_cast<size_t>(i)] : i;
      if (off[d + 1] > off[d]) {
        s.row_scale[static_cast<size_t>(i)] += 1.0f;
        lane.rows.push_back(static_cast<int32_t>(i));
      }
    }
    lane.live = static_cast<int64_t>(lane.rows.size());
  }
  // Then invert, and append the rows no type touches to every lane.
  std::vector<int32_t>& untouched = s.untouched;
  untouched.clear();
  for (int64_t i = 0; i < num_out; ++i) {
    float& scale = s.row_scale[static_cast<size_t>(i)];
    if (scale > 0.0f) {
      scale = 1.0f / scale;
    } else {
      untouched.push_back(static_cast<int32_t>(i));
    }
  }
  if (!untouched.empty()) {
    for (SageLane& lane : s.lanes) {
      lane.rows.insert(lane.rows.end(), untouched.begin(), untouched.end());
    }
  }
  return tape->HeteroSage(h_dst, h_src, scratch, std::move(owned));
}

void HeteroSageLayer::CollectParameters(std::vector<Parameter*>* out) {
  for (Linear& sub : submodules_) sub.CollectParameters(out);
}

int64_t HeteroSageLayer::NumParameters() const {
  int64_t total = 0;
  for (const Linear& sub : submodules_) total += sub.NumParameters();
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

namespace {

// Layer l's scratch, or null (the layer then makes one the tape owns).
SageScratch* LayerScratch(GnnScratch* scratch, size_t l) {
  return scratch != nullptr ? &scratch->layers[l] : nullptr;
}

}  // namespace

Tape::VarId HeteroGnn::Forward(Tape* tape, Tape::VarId features,
                               const HeteroGraph& graph, GnnScratch* scratch,
                               const std::vector<int32_t>* out_rows) const {
  GRIMP_TRACE_SPAN("gnn.forward");
  if (scratch != nullptr) scratch->layers.resize(layers_.size());
  Tape::VarId h = features;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const bool last = l + 1 == layers_.size();
    h = layers_[l].Forward(tape, h, h, graph.num_nodes(),
                           graph.adjacencies(), LayerScratch(scratch, l),
                           last ? out_rows : nullptr);
    if (!last) h = tape->Relu(h);
  }
  return h;
}

Tape::VarId HeteroGnn::ForwardBlocks(Tape* tape, Tape::VarId features,
                                     const SampledSubgraph& subgraph,
                                     GnnScratch* scratch) const {
  GRIMP_TRACE_SPAN("gnn.forward");
  GRIMP_CHECK_EQ(subgraph.blocks.size(), layers_.size());
  if (scratch != nullptr) scratch->layers.resize(layers_.size());
  Tape::VarId h = features;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const GraphBlock& block = subgraph.blocks[l];
    GRIMP_CHECK_EQ(tape->value(h).rows(), block.num_src);
    // Self term: the block's destinations are the first num_dst input
    // rows, so a prefix slice replaces the explicit [0..num_dst) gather.
    h = layers_[l].Forward(tape, tape->SliceRows(h, block.num_dst), h,
                           block.num_dst, block.adjacency,
                           LayerScratch(scratch, l));
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
