#ifndef GRIMP_GNN_HETERO_SAGE_H_
#define GRIMP_GNN_HETERO_SAGE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/hetero_graph.h"
#include "graph/sampler.h"
#include "tensor/nn.h"
#include "tensor/tape.h"

namespace grimp {

// One SageScratch (tensor/tape.h) per layer of a HeteroGnn, sized lazily
// by the forward.
struct GnnScratch {
  std::vector<SageScratch> layers;
};

// One heterogeneous layer (paper §3.5, Eq. 1): one GraphSAGE-mean
// submodule per attribute / edge type r,
//   out_v = W_r * [ h_v || mean_{u in N_r(v)} h_u ] + b_r,
// combined by gamma = the mean over the edge types incident to v. The
// concatenated self term h_v stands in for the self-loop the paper adds
// to the graph, following the GraphSAGE formulation; the graph itself has
// none. Each submodule computes only the rows of nodes its edge type
// touches ("each sub-module performs its convolution exclusively on nodes
// connected by edges of the type it pertains to"): the whole layer is one
// Tape::HeteroSage node whose per-type lanes run in parallel and whose
// outputs are summed in a fixed type order.
//
// The layer owns only weights; the graph is passed to Forward. This keeps
// GRIMP inductive (paper §3.4): weights trained on one table's graph can
// run message passing over another table with the same schema. Forward is
// a pure function of the weights, its inputs and the caller's scratch, so
// any number of forwards may run concurrently on one layer as long as each
// brings its own SageScratch (StreamingEngineTest.
// ConcurrentStreamingTransformManyMatchesSerial pins this).
class HeteroSageLayer {
 public:
  HeteroSageLayer() = default;
  HeteroSageLayer(std::string name, int num_edge_types, int64_t in_dim,
                  int64_t out_dim, Rng* rng);

  // The one forward, for full graphs and sampled blocks alike, over
  // `num_dst` dst rows: the self term `h_dst` (num_dst rows) and the
  // neighbor source rows `h_src`, with one CSR of num_dst segments per edge
  // type (`adjacency.size()` must equal the layer's edge type count). A
  // full graph passes the same var as h_dst and h_src; a sampled block
  // passes the dst prefix of its input rows (see GraphBlock). The result
  // has one row per dst row, or — given `out_rows`, ascending dst rows —
  // one per entry: row i is dst row (*out_rows)[i], bit-identical to that
  // row of the whole layer, and the backward's h_dst/h_src gradients equal
  // the whole layer's under an upstream gradient that is zero on every dst
  // row not listed. Which rows each type touches and the 1/#incident-types
  // normalizer are derived from `adjacency` on every call, into `scratch`
  // or — when it is null — into one the tape keeps alive. A block agrees
  // with the full graph on which types touch a node because the sampler
  // keeps at least one neighbor wherever the full graph has one. The
  // adjacency, the scratch and out_rows are borrowed until the tape is
  // Reset.
  Tape::VarId Forward(Tape* tape, Tape::VarId h_dst, Tape::VarId h_src,
                      int64_t num_dst, std::span<const CsrAdjacency> adjacency,
                      SageScratch* scratch = nullptr,
                      const std::vector<int32_t>* out_rows = nullptr) const;

  void CollectParameters(std::vector<Parameter*>* out);
  int64_t NumParameters() const;

 private:
  std::vector<Linear> submodules_;  // per edge type: (2 * in_dim) -> out_dim
};

// The paper's default GNN: a 2-layer heterogeneous GraphSAGE stack with
// ReLU after the first layer and a linear final layer. Both entry points
// run HeteroSageLayer::Forward per layer; `scratch` (optional) supplies
// its per-layer state, sized lazily to num_layers().
class HeteroGnn {
 public:
  HeteroGnn() = default;
  HeteroGnn(int num_edge_types, int64_t in_dim, int64_t hidden_dim,
            int64_t out_dim, int num_layers, Rng* rng);

  // Whole-graph forward. `features` is a Constant/Leaf var of shape
  // num_nodes x in_dim; the result has one row per node, or — given
  // `out_rows`, ascending node ids borrowed until the tape is Reset — one
  // per listed node (row i is node (*out_rows)[i]). Only the last layer
  // is pruned to out_rows: it reads its nodes' neighbors, so the layers
  // below still run over every node.
  Tape::VarId Forward(Tape* tape, Tape::VarId features,
                      const HeteroGraph& graph, GnnScratch* scratch = nullptr,
                      const std::vector<int32_t>* out_rows = nullptr) const;

  // Sampled-minibatch forward over a block sequence (blocks.size() must
  // equal num_layers()): `features` holds the rows of
  // subgraph.input_nodes; the result has one row per output node (seed).
  Tape::VarId ForwardBlocks(Tape* tape, Tape::VarId features,
                            const SampledSubgraph& subgraph,
                            GnnScratch* scratch = nullptr) const;

  void CollectParameters(std::vector<Parameter*>* out);
  int64_t NumParameters() const;
  int num_layers() const { return static_cast<int>(layers_.size()); }

 private:
  std::vector<HeteroSageLayer> layers_;
};

}  // namespace grimp

#endif  // GRIMP_GNN_HETERO_SAGE_H_
