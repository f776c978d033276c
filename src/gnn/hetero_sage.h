#ifndef GRIMP_GNN_HETERO_SAGE_H_
#define GRIMP_GNN_HETERO_SAGE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/hetero_graph.h"
#include "graph/sampler.h"
#include "tensor/nn.h"
#include "tensor/tape.h"

namespace grimp {

// Caller-owned mask storage for one HeteroSageLayer forward. The masks and
// the normalizer are refilled on every forward; once the previous tape has
// been Reset, its RowScale closures drop their references, use_count()
// falls back to 1 and the same vectors are refilled instead of
// reallocated, so a caller that keeps one scratch per thread (the Trainer,
// TransformMany's batch-mode scratch) runs allocation-free in steady
// state. A scratch must not be shared by concurrent forwards.
struct SageScratch {
  std::vector<std::shared_ptr<std::vector<float>>> masks;
  std::shared_ptr<std::vector<float>> inv_counts;
  std::vector<int> counts;
};

// One SageScratch per layer of a HeteroGnn (sized lazily by the forward).
struct GnnScratch {
  std::vector<SageScratch> layers;
};

// One edge type's GraphSAGE-mean submodule (paper §3.5, Eq. 1):
//   out_v = W_r * [ h_v || mean_{u in N_r(v)} h_u ]
// The concatenated self term realizes the self-loop the paper adds to the
// graph, following the GraphSAGE formulation.
class SageSubmodule {
 public:
  SageSubmodule() = default;
  SageSubmodule(std::string name, int64_t in_dim, int64_t out_dim, Rng* rng);

  // Bipartite form: the self term `h_dst` (num_dst rows) and the neighbor
  // source rows `h_src` are separate vars; `adj` has num_dst segments
  // indexing h_src rows. A full-graph forward passes the same var twice.
  Tape::VarId ForwardBlock(Tape* tape, Tape::VarId h_dst, Tape::VarId h_src,
                           const CsrAdjacency& adj) const;

  void CollectParameters(std::vector<Parameter*>* out);
  int64_t NumParameters() const { return linear_.NumParameters(); }

 private:
  Linear linear_;  // (2 * in_dim) -> out_dim
};

// One heterogeneous layer: N submodules (one per attribute / edge type),
// combined by gamma = masked mean over the edge types incident to each
// node. Nodes untouched by a type contribute nothing to (and receive
// nothing from) that type's submodule, matching "each sub-module performs
// its convolution exclusively on nodes connected by edges of the type it
// pertains to".
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

  // The one forward, for full graphs and sampled blocks alike: produces
  // `num_dst` output rows from the self term `h_dst` and the neighbor
  // source rows `h_src`, with one CSR of num_dst segments per edge type
  // (`adjacency.size()` must equal the layer's submodule count). A full
  // graph passes the same var as h_dst and h_src; a sampled block passes
  // the dst prefix of its input rows (see GraphBlock). The participation
  // masks and the 1/#incident-types normalizer are derived from
  // `adjacency` on every call, into `scratch` or — when it is null — into
  // a call-local one. A block's masks agree with the full graph's
  // participation pattern because the sampler keeps at least one neighbor
  // wherever the full graph has one.
  Tape::VarId Forward(Tape* tape, Tape::VarId h_dst, Tape::VarId h_src,
                      int64_t num_dst, std::span<const CsrAdjacency> adjacency,
                      SageScratch* scratch = nullptr) const;

  void CollectParameters(std::vector<Parameter*>* out);
  int64_t NumParameters() const;

 private:
  std::vector<SageSubmodule> submodules_;
};

// The paper's default GNN: a 2-layer heterogeneous GraphSAGE stack with
// ReLU after the first layer and a linear final layer. Both entry points
// run HeteroSageLayer::Forward per layer; `scratch` (optional) supplies
// its per-layer mask storage, sized lazily to num_layers().
class HeteroGnn {
 public:
  HeteroGnn() = default;
  HeteroGnn(int num_edge_types, int64_t in_dim, int64_t hidden_dim,
            int64_t out_dim, int num_layers, Rng* rng);

  // Whole-graph forward. `features` is a Constant/Leaf var of shape
  // num_nodes x in_dim; the result has one row per node.
  Tape::VarId Forward(Tape* tape, Tape::VarId features,
                      const HeteroGraph& graph,
                      GnnScratch* scratch = nullptr) const;

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
