#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/datasets.h"
#include "gnn/hetero_sage.h"
#include "gradcheck.h"
#include "graph/builder.h"
#include "graph/store.h"
#include "table/corruption.h"
#include "tensor/optimizer.h"

namespace grimp {
namespace {

Table TinyTable() {
  Schema schema({{"a", AttrType::kCategorical},
                 {"b", AttrType::kCategorical}});
  Table t(schema);
  EXPECT_TRUE(t.AppendRow({"x", "p"}).ok());
  EXPECT_TRUE(t.AppendRow({"x", "q"}).ok());
  EXPECT_TRUE(t.AppendRow({"y", ""}).ok());
  return t;
}

// A second schema-compatible table whose graph differs from TinyTable's in
// size and in which nodes each edge type touches.
Table OtherTable() {
  Schema schema({{"a", AttrType::kCategorical},
                 {"b", AttrType::kCategorical}});
  Table t(schema);
  EXPECT_TRUE(t.AppendRow({"x", "p"}).ok());
  EXPECT_TRUE(t.AppendRow({"", "r"}).ok());
  EXPECT_TRUE(t.AppendRow({"z", "r"}).ok());
  EXPECT_TRUE(t.AppendRow({"y", "s"}).ok());
  return t;
}

// Column "c" is missing everywhere (its edge type touches no node) and the
// third row is missing everywhere (its RID node has no edge of any type).
Table SparseTable() {
  Schema schema({{"a", AttrType::kCategorical},
                 {"b", AttrType::kCategorical},
                 {"c", AttrType::kCategorical}});
  Table t(schema);
  EXPECT_TRUE(t.AppendRow({"x", "p", ""}).ok());
  EXPECT_TRUE(t.AppendRow({"y", "q", ""}).ok());
  EXPECT_TRUE(t.AppendRow({"", "", ""}).ok());
  EXPECT_TRUE(t.AppendRow({"x", "q", ""}).ok());
  return t;
}

// Large enough that a layer's type lanes fan out on the pool.
Table LargerTable() {
  auto clean = GenerateDatasetByName("contraceptive", 3, 120);
  EXPECT_TRUE(clean.ok());
  return InjectMcar(*clean, 0.2, 4).dirty;
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.size())),
            0);
}

// One forward over `graph` on a fresh tape; `scratch` may be null.
Tensor ForwardValue(const HeteroGnn& gnn, const Tensor& features,
                    const HeteroGraph& graph, GnnScratch* scratch) {
  Tape tape;
  return tape.value(
      gnn.Forward(&tape, tape.Constant(features), graph, scratch));
}

TEST(HeteroSageLayerTest, MasksNodesUntouchedByType) {
  Table t = TinyTable();
  TableGraph tg = BuildTableGraph(t);
  Rng rng(3);
  HeteroSageLayer layer("l", tg.graph.num_edge_types(), 4, 4, &rng);
  Tape tape;
  Rng frng(4);
  auto h = tape.Constant(Tensor::GlorotUniform(tg.graph.num_nodes(), 4,
                                               &frng));
  auto out = layer.Forward(&tape, h, h, tg.graph.num_nodes(),
                           tg.graph.adjacencies());
  const Tensor& v = tape.value(out);
  // Row 2's "b" cell is missing, so its RID node only participates in edge
  // type 0; output must still be finite and generally nonzero.
  EXPECT_GT(v.SumAbs(), 0.0f);
  // A cell node of column "b" is untouched by type 0 but touched by
  // type 1: its row must be nonzero (type-1 submodule contributes).
  const int32_t q_code = t.column(1).dict().Find("q");
  const int64_t q_node = tg.CellNode(1, q_code);
  float row_abs = 0.0f;
  for (int64_t c = 0; c < v.cols(); ++c) row_abs += std::fabs(v.at(q_node, c));
  EXPECT_GT(row_abs, 0.0f);
}

// The per-type chain HeteroSageLayer::Forward replaced, rebuilt from public
// tape ops over the layer's own parameters: per type SegmentMean ->
// ConcatCols -> Linear -> RowScale(participation mask), summed by Add, then
// RowScale(1 / #incident types).
Tape::VarId ChainForward(Tape* tape, const std::vector<Parameter*>& params,
                         Tape::VarId h_dst, Tape::VarId h_src,
                         int64_t num_dst,
                         std::span<const CsrAdjacency> adjacency) {
  std::vector<int> counts(static_cast<size_t>(num_dst), 0);
  Tape::VarId acc = -1;
  for (size_t t = 0; t < adjacency.size(); ++t) {
    const CsrAdjacency& adj = adjacency[t];
    std::vector<float> mask(static_cast<size_t>(num_dst), 0.0f);
    for (int64_t v = 0; v < num_dst; ++v) {
      if (adj.Degree(v) > 0) {
        mask[static_cast<size_t>(v)] = 1.0f;
        ++counts[static_cast<size_t>(v)];
      }
    }
    const Tape::VarId mean =
        tape->SegmentMean(h_src, &adj.offsets(), &adj.indices());
    const Tape::VarId concat = tape->ConcatCols({h_dst, mean});
    const Tape::VarId w = tape->Leaf(params[2 * t]);
    const Tape::VarId b = tape->Leaf(params[2 * t + 1]);
    const Tape::VarId masked =
        tape->RowScale(tape->Linear(concat, w, b), std::move(mask));
    acc = acc < 0 ? masked : tape->Add(acc, masked);
  }
  std::vector<float> inv(static_cast<size_t>(num_dst), 0.0f);
  for (size_t v = 0; v < inv.size(); ++v) {
    if (counts[v] > 0) inv[v] = 1.0f / static_cast<float>(counts[v]);
  }
  return tape->RowScale(acc, std::move(inv));
}

struct LayerRun {
  Tensor out;
  std::vector<Tensor> param_grads;
  Tensor dst_grad;
  Tensor src_grad;
};

// One forward + backward of the fused layer (or of the chain) seeded with
// `upstream`. The input is a Leaf, so its grads are real; a block's self
// term is the SliceRows prefix of it, as HeteroGnn::ForwardBlocks passes.
LayerRun RunLayer(HeteroSageLayer* layer, bool fused, bool block,
                  const Tensor& input, int64_t num_dst,
                  std::span<const CsrAdjacency> adjacency,
                  const Tensor& upstream, SageScratch* scratch,
                  const std::vector<int32_t>* out_rows = nullptr) {
  std::vector<Parameter*> params;
  layer->CollectParameters(&params);
  for (Parameter* p : params) p->ZeroGrad();
  Parameter h("h", input);
  Tape tape;
  const Tape::VarId h_src = tape.Leaf(&h);
  const Tape::VarId h_dst = block ? tape.SliceRows(h_src, num_dst) : h_src;
  const Tape::VarId out =
      fused ? layer->Forward(&tape, h_dst, h_src, num_dst, adjacency, scratch,
                             out_rows)
            : ChainForward(&tape, params, h_dst, h_src, num_dst, adjacency);
  tape.BackwardFrom(out, upstream);
  LayerRun run{tape.value(out), {}, tape.grad(h_dst), tape.grad(h_src)};
  for (Parameter* p : params) run.param_grads.push_back(p->grad);
  return run;
}

TEST(HeteroSageLayerTest, FusedLayerMatchesPerTypeChain) {
  struct Case {
    std::string name;
    Table table;
    bool sampled;
  };
  std::vector<Case> cases;
  cases.push_back({"tiny", TinyTable(), false});
  cases.push_back({"other", OtherTable(), false});
  cases.push_back({"sparse", SparseTable(), false});
  cases.push_back({"larger", LargerTable(), false});
  cases.push_back({"larger_block", LargerTable(), true});
  const int threads_before = ThreadPool::GlobalThreads();
  for (const Case& c : cases) {
    const TableGraph tg = BuildTableGraph(c.table);
    const InMemoryGraphStore store(&tg.graph);
    SampledSubgraph sub;
    int64_t num_src = tg.graph.num_nodes();
    int64_t num_dst = num_src;
    std::span<const CsrAdjacency> adjacency = tg.graph.adjacencies();
    if (c.sampled) {
      std::vector<int32_t> seeds;
      for (int32_t v = 0; v < tg.graph.num_nodes(); v += 3) seeds.push_back(v);
      Rng srng(19);
      NeighborSampler(&store, {3}).Sample(seeds, &srng, &sub);
      num_src = sub.blocks[0].num_src;
      num_dst = sub.blocks[0].num_dst;
      adjacency = sub.blocks[0].adjacency;
    }
    Rng rng(20);
    // 20 output columns: one full GEMM panel plus a masked tail, and
    // enough columns that a wrong signed zero cannot match by chance.
    HeteroSageLayer layer("l", tg.graph.num_edge_types(), 8, 20, &rng);
    const Tensor input = Tensor::GlorotUniform(num_src, 8, &rng);
    const Tensor upstream = Tensor::GlorotUniform(num_dst, 20, &rng);
    SageScratch scratch;
    for (int threads : {1, 4}) {
      SCOPED_TRACE(c.name + " at " + std::to_string(threads) + " threads");
      ThreadPool::SetGlobalThreads(threads);
      const LayerRun chain = RunLayer(&layer, false, c.sampled, input,
                                      num_dst, adjacency, upstream, nullptr);
      for (SageScratch* s : {static_cast<SageScratch*>(nullptr), &scratch}) {
        const LayerRun fused = RunLayer(&layer, true, c.sampled, input,
                                        num_dst, adjacency, upstream, s);
        ExpectBitIdentical(fused.out, chain.out);
        ASSERT_EQ(fused.param_grads.size(), chain.param_grads.size());
        for (size_t i = 0; i < chain.param_grads.size(); ++i) {
          ExpectBitIdentical(fused.param_grads[i], chain.param_grads[i]);
        }
        ExpectBitIdentical(fused.dst_grad, chain.dst_grad);
        ExpectBitIdentical(fused.src_grad, chain.src_grad);
      }
    }
  }
  ThreadPool::SetGlobalThreads(threads_before);
}

// A non-bipartite graph over 7 nodes: a triangle with self loops, a
// 3-cycle through both edge types, node 5 touched by type 1 only and node
// 6 by no type at all.
std::vector<CsrAdjacency> ToyAdjacency() {
  std::vector<CsrAdjacency> adjacency;
  adjacency.push_back(CsrAdjacency::FromEdges(
      7, {{0, 1}, {1, 2}, {2, 0}, {0, 0}, {1, 1}, {3, 4}, {4, 3}, {4, 5}}));
  adjacency.push_back(CsrAdjacency::FromEdges(
      7, {{1, 3}, {3, 1}, {2, 2}, {5, 0}, {5, 5}}));
  return adjacency;
}

// Rows [0, n) with no edge of any type.
std::vector<int32_t> IsolatedRows(std::span<const CsrAdjacency> adjacency,
                                  int64_t n) {
  std::vector<int32_t> rows;
  for (int64_t v = 0; v < n; ++v) {
    bool isolated = true;
    for (const CsrAdjacency& adj : adjacency) isolated &= adj.Degree(v) == 0;
    if (isolated) rows.push_back(static_cast<int32_t>(v));
  }
  return rows;
}

// The pruned layer (out_rows) against the whole layer: at the read rows the
// outputs, every parameter grad and the h_dst/h_src input grads memcmp
// equal, the whole layer's upstream gradient being the pruned one's at the
// read rows and zero elsewhere. The read sets cover a row with no edges
// (the row_scale == 0 path), the empty set and every row; the graphs a
// table graph and a non-bipartite one. One scratch serves pruned and whole
// calls alike.
TEST(HeteroSageLayerTest, PrunedLayerMatchesWholeLayer) {
  struct Case {
    std::string name;
    int64_t num_nodes;
    std::vector<CsrAdjacency> adjacency;
  };
  std::vector<Case> cases;
  const auto add_table = [&cases](std::string name, const Table& table) {
    const TableGraph tg = BuildTableGraph(table);
    const std::span<const CsrAdjacency> adjacency = tg.graph.adjacencies();
    cases.push_back({std::move(name), tg.graph.num_nodes(),
                     {adjacency.begin(), adjacency.end()}});
  };
  add_table("sparse", SparseTable());
  add_table("larger", LargerTable());
  cases.push_back({"toy", 7, ToyAdjacency()});
  const int threads_before = ThreadPool::GlobalThreads();
  for (const Case& c : cases) {
    const std::vector<int32_t> isolated =
        IsolatedRows(c.adjacency, c.num_nodes);
    if (c.name != "larger") ASSERT_FALSE(isolated.empty()) << c.name;
    std::vector<int32_t> sparse_rows = isolated;
    std::vector<int32_t> all_rows;
    for (int32_t v = 0; v < c.num_nodes; ++v) {
      if (v % 3 == 1) sparse_rows.push_back(v);
      all_rows.push_back(v);
    }
    std::sort(sparse_rows.begin(), sparse_rows.end());
    sparse_rows.erase(std::unique(sparse_rows.begin(), sparse_rows.end()),
                      sparse_rows.end());
    const std::vector<int32_t> no_rows;
    Rng rng(23);
    HeteroSageLayer layer("l", static_cast<int>(c.adjacency.size()), 8, 20,
                          &rng);
    const Tensor input = Tensor::GlorotUniform(c.num_nodes, 8, &rng);
    const Tensor upstream = Tensor::GlorotUniform(c.num_nodes, 20, &rng);
    SageScratch scratch;
    for (const std::vector<int32_t>* read :
         {&std::as_const(sparse_rows), &no_rows, &std::as_const(all_rows)}) {
      const auto n = static_cast<int64_t>(read->size());
      Tensor pruned_up(n, 20);
      Tensor whole_up = Tensor::Zeros(c.num_nodes, 20);
      for (int64_t i = 0; i < n; ++i) {
        const int32_t v = (*read)[static_cast<size_t>(i)];
        for (int64_t col = 0; col < 20; ++col) {
          pruned_up.at(i, col) = upstream.at(v, col);
          whole_up.at(v, col) = upstream.at(v, col);
        }
      }
      for (int threads : {1, 4}) {
        SCOPED_TRACE(c.name + " reading " + std::to_string(n) + " rows at " +
                     std::to_string(threads) + " threads");
        ThreadPool::SetGlobalThreads(threads);
        const LayerRun whole =
            RunLayer(&layer, true, false, input, c.num_nodes, c.adjacency,
                     whole_up, &scratch);
        const LayerRun pruned =
            RunLayer(&layer, true, false, input, c.num_nodes, c.adjacency,
                     pruned_up, &scratch, read);
        ASSERT_EQ(pruned.out.rows(), n);
        for (int64_t i = 0; i < n; ++i) {
          const int32_t v = (*read)[static_cast<size_t>(i)];
          EXPECT_EQ(std::memcmp(pruned.out.data() + i * 20,
                                whole.out.data() + v * 20,
                                20 * sizeof(float)),
                    0)
              << "row " << v;
        }
        ASSERT_EQ(pruned.param_grads.size(), whole.param_grads.size());
        for (size_t i = 0; i < whole.param_grads.size(); ++i) {
          ExpectBitIdentical(pruned.param_grads[i], whole.param_grads[i]);
        }
        ExpectBitIdentical(pruned.dst_grad, whole.dst_grad);
        ExpectBitIdentical(pruned.src_grad, whole.src_grad);
      }
    }
  }
  ThreadPool::SetGlobalThreads(threads_before);
}

TEST(HeteroSageLayerDeathTest, RejectsUnsortedOrOutOfRangeOutRows) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<CsrAdjacency> adjacency = ToyAdjacency();
  Rng rng(24);
  HeteroSageLayer layer("l", 2, 4, 4, &rng);
  const Tensor input = Tensor::GlorotUniform(7, 4, &rng);
  const auto forward = [&](std::vector<int32_t> rows) {
    Tape tape;
    const Tape::VarId h = tape.Constant(input);
    layer.Forward(&tape, h, h, 7, adjacency, nullptr, &rows);
  };
  EXPECT_DEATH(forward({1, 3, 2}), "out_rows must ascend");
  EXPECT_DEATH(forward({2, 2}), "out_rows must ascend");
  EXPECT_DEATH(forward({0, 7}), "out_rows must ascend");
  EXPECT_DEATH(forward({-1, 3}), "out_rows must ascend");
}

TEST(HeteroSageLayerTest, GradCheckThroughFusedLayerInput) {
  Table t = SparseTable();
  TableGraph tg = BuildTableGraph(t);
  Rng rng(21);
  HeteroSageLayer layer("l", tg.graph.num_edge_types(), 3, 2, &rng);
  Parameter input("h", Tensor::GlorotUniform(tg.graph.num_nodes(), 3, &rng));
  auto loss = [&](bool) {
    Tape tape;
    // A derived input: the layer's gradient flows through the Scale node.
    const Tape::VarId h = tape.Scale(tape.Leaf(&input), 1.5f);
    auto out = layer.Forward(&tape, h, h, tg.graph.num_nodes(),
                             tg.graph.adjacencies());
    auto l = tape.SumAll(tape.Mul(out, out));
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(testing::MaxGradError(&input, loss, 1e-2f), 5e-2f);
}

TEST(HeteroSageLayerTest, ConstantInputReceivesNoGradient) {
  Table t = TinyTable();
  TableGraph tg = BuildTableGraph(t);
  Rng rng(22);
  HeteroSageLayer layer("l", tg.graph.num_edge_types(), 4, 4, &rng);
  Tape tape;
  const Tape::VarId h = tape.Constant(
      Tensor::GlorotUniform(tg.graph.num_nodes(), 4, &rng));
  auto out = layer.Forward(&tape, h, h, tg.graph.num_nodes(),
                           tg.graph.adjacencies());
  tape.BackwardFrom(out, Tensor::Full(tg.graph.num_nodes(), 4, 1.0f));
  EXPECT_EQ(tape.grad(h).SumAbs(), 0.0f);
  std::vector<Parameter*> params;
  layer.CollectParameters(&params);
  EXPECT_GT(params[0]->grad.SumAbs(), 0.0f);
}

TEST(HeteroGnnTest, StackShapesAndParameterCount) {
  Table t = TinyTable();
  TableGraph tg = BuildTableGraph(t);
  Rng rng(5);
  HeteroGnn gnn(tg.graph.num_edge_types(), 6, 8, 4, 2, &rng);
  EXPECT_EQ(gnn.num_layers(), 2);
  // Layer 1: per type (2 types): (2*6)*8 + 8; layer 2: (2*8)*4 + 4.
  const int64_t expected =
      2 * ((2 * 6) * 8 + 8) + 2 * ((2 * 8) * 4 + 4);
  EXPECT_EQ(gnn.NumParameters(), expected);
  std::vector<Parameter*> params;
  gnn.CollectParameters(&params);
  EXPECT_EQ(params.size(), 8u);  // 2 layers x 2 types x (W, b)

  Tape tape;
  Rng frng(6);
  auto h = tape.Constant(Tensor::GlorotUniform(tg.graph.num_nodes(), 6,
                                               &frng));
  auto out = gnn.Forward(&tape, h, tg.graph);
  EXPECT_EQ(tape.value(out).rows(), tg.graph.num_nodes());
  EXPECT_EQ(tape.value(out).cols(), 4);
}

TEST(HeteroGnnTest, GradientsFlowToAllParameters) {
  Table t = TinyTable();
  TableGraph tg = BuildTableGraph(t);
  Rng rng(7);
  HeteroGnn gnn(tg.graph.num_edge_types(), 3, 4, 2, 2, &rng);
  std::vector<Parameter*> params;
  gnn.CollectParameters(&params);
  Rng frng(8);
  const Tensor features =
      Tensor::GlorotUniform(tg.graph.num_nodes(), 3, &frng);
  Tape tape;
  auto out = gnn.Forward(&tape, tape.Constant(features), tg.graph);
  auto loss = tape.SumAll(tape.Mul(out, out));
  tape.BackwardFrom(loss, Tensor::Scalar(1.0f));
  // Every weight matrix must receive some gradient (biases of masked
  // submodules can be partially zero, weights should not be all-zero).
  for (Parameter* p : params) {
    if (p->value.rows() > 1) {  // weight matrices
      EXPECT_GT(p->grad.SumAbs(), 0.0f) << p->name;
    }
  }
}

TEST(HeteroGnnTest, GradCheckThroughMessagePassing) {
  Table t = TinyTable();
  TableGraph tg = BuildTableGraph(t);
  Rng rng(9);
  HeteroGnn gnn(tg.graph.num_edge_types(), 2, 3, 2, 2, &rng);
  std::vector<Parameter*> params;
  gnn.CollectParameters(&params);
  Rng frng(10);
  const Tensor features =
      Tensor::GlorotUniform(tg.graph.num_nodes(), 2, &frng);
  auto loss = [&](bool) {
    Tape tape;
    auto out = gnn.Forward(&tape, tape.Constant(features), tg.graph);
    auto l = tape.SumAll(tape.Mul(out, out));
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  // Check the first layer's first weight matrix end-to-end.
  EXPECT_LT(testing::MaxGradError(params[0], loss, 1e-2f), 5e-2f);
}

TEST(HeteroGnnTest, TrainingReducesReconstructionLoss) {
  Table t = TinyTable();
  TableGraph tg = BuildTableGraph(t);
  Rng rng(11);
  HeteroGnn gnn(tg.graph.num_edge_types(), 4, 4, 4, 2, &rng);
  std::vector<Parameter*> params;
  gnn.CollectParameters(&params);
  Adam opt(params, 0.01f);
  Rng frng(12);
  const Tensor features =
      Tensor::GlorotUniform(tg.graph.num_nodes(), 4, &frng);
  std::vector<float> targets(static_cast<size_t>(tg.graph.num_nodes()), 1.0f);
  float first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    Tape tape;
    auto out = gnn.Forward(&tape, tape.Constant(features), tg.graph);
    // Predict 1.0 from the first output column of every node.
    auto col = tape.GatherRows(
        tape.Reshape(out, tg.graph.num_nodes() * 4, 1), [&] {
          std::vector<int32_t> idx;
          for (int64_t i = 0; i < tg.graph.num_nodes(); ++i) {
            idx.push_back(static_cast<int32_t>(i * 4));
          }
          return idx;
        }());
    auto loss = tape.MseLoss(col, targets);
    if (step == 0) first = tape.value(loss).scalar();
    last = tape.value(loss).scalar();
    tape.BackwardFrom(loss, Tensor::Scalar(1.0f));
    opt.Step();
    opt.ZeroGrad();
  }
  EXPECT_LT(last, first * 0.5f);
}

// The whole-graph forward with out_rows returns exactly those rows of the
// unpruned forward at every depth; only the last layer is pruned.
TEST(HeteroGnnTest, OutRowsForwardMatchesWholeForwardRows) {
  Table t = LargerTable();
  TableGraph tg = BuildTableGraph(t);
  std::vector<int32_t> rows;
  for (int32_t v = 2; v < tg.graph.num_nodes(); v += 5) rows.push_back(v);
  Rng frng(25);
  const Tensor features =
      Tensor::GlorotUniform(tg.graph.num_nodes(), 4, &frng);
  for (int layers : {1, 2, 3}) {
    SCOPED_TRACE(std::to_string(layers) + " layers");
    Rng rng(26);
    HeteroGnn gnn(tg.graph.num_edge_types(), 4, 6, 5, layers, &rng);
    const Tensor whole = ForwardValue(gnn, features, tg.graph, nullptr);
    GnnScratch scratch;
    Tape tape;
    const Tensor& pruned = tape.value(gnn.Forward(
        &tape, tape.Constant(features), tg.graph, &scratch, &rows));
    ASSERT_EQ(pruned.rows(), static_cast<int64_t>(rows.size()));
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(std::memcmp(pruned.data() + static_cast<int64_t>(i) * 5,
                            whole.data() + rows[i] * 5, 5 * sizeof(float)),
                0)
          << "node " << rows[i];
    }
  }
}

TEST(HeteroGnnTest, CallerScratchIsBitIdenticalToCallLocal) {
  Table t = TinyTable();
  TableGraph tg = BuildTableGraph(t);
  Rng rng(13);
  HeteroGnn gnn(tg.graph.num_edge_types(), 4, 4, 4, 2, &rng);
  Rng frng(14);
  const Tensor features =
      Tensor::GlorotUniform(tg.graph.num_nodes(), 4, &frng);
  const Tensor reference = ForwardValue(gnn, features, tg.graph, nullptr);

  // The caller's scratch is refilled in place on a reused tape.
  GnnScratch scratch;
  Tape tape;
  for (int rep = 0; rep < 3; ++rep) {
    tape.Reset();
    const Tensor& out = tape.value(
        gnn.Forward(&tape, tape.Constant(features), tg.graph, &scratch));
    ExpectBitIdentical(out, reference);
  }
  EXPECT_EQ(scratch.layers.size(), 2u);
}

TEST(HeteroGnnTest, ScratchReusedAcrossGraphsMatchesFreshForwards) {
  Table t1 = TinyTable();
  Table t2 = OtherTable();
  TableGraph g1 = BuildTableGraph(t1);
  TableGraph g2 = BuildTableGraph(t2);
  ASSERT_NE(g1.graph.num_nodes(), g2.graph.num_nodes());
  Rng rng(15);
  HeteroGnn gnn(g1.graph.num_edge_types(), 4, 4, 4, 2, &rng);
  Rng frng(16);
  const Tensor f1 = Tensor::GlorotUniform(g1.graph.num_nodes(), 4, &frng);
  const Tensor f2 = Tensor::GlorotUniform(g2.graph.num_nodes(), 4, &frng);
  const Tensor fresh1 = ForwardValue(gnn, f1, g1.graph, nullptr);
  const Tensor fresh2 = ForwardValue(gnn, f2, g2.graph, nullptr);

  // Alternate graphs through one scratch: per-type rows and buffers sized
  // and filled for the previous graph must never leak into the next
  // forward.
  GnnScratch scratch;
  ExpectBitIdentical(ForwardValue(gnn, f1, g1.graph, &scratch), fresh1);
  ExpectBitIdentical(ForwardValue(gnn, f2, g2.graph, &scratch), fresh2);
  ExpectBitIdentical(ForwardValue(gnn, f1, g1.graph, &scratch), fresh1);
}

TEST(HeteroGnnTest, InPlaceSetAdjacencyMatchesFreshlyBuiltGraph) {
  Table t = TinyTable();
  TableGraph tg = BuildTableGraph(t);
  const int64_t n = tg.graph.num_nodes();
  Rng rng(17);
  HeteroGnn gnn(tg.graph.num_edge_types(), 4, 4, 4, 2, &rng);
  Rng frng(18);
  const Tensor features = Tensor::GlorotUniform(n, 4, &frng);

  // Forward once (with and without a scratch), then rewire the graph in
  // place: edge type 1 loses every edge, so its rows and every normalizer
  // row it touched change.
  HeteroGraph graph = tg.graph;
  GnnScratch scratch;
  const Tensor before = ForwardValue(gnn, features, graph, &scratch);
  ExpectBitIdentical(ForwardValue(gnn, features, graph, nullptr), before);
  const auto rewired = [&] {
    std::vector<CsrAdjacency> adjacency;
    adjacency.push_back(tg.graph.adjacency(0));
    adjacency.push_back(CsrAdjacency::FromEdges(n, {}));
    return adjacency;
  };
  graph.SetAdjacency(rewired());

  HeteroGraph fresh;
  for (const NodeInfo& info : tg.graph.nodes()) fresh.AddNode(info);
  fresh.SetAdjacency(rewired());
  const Tensor expected = ForwardValue(gnn, features, fresh, nullptr);

  ExpectBitIdentical(ForwardValue(gnn, features, graph, &scratch), expected);
  ExpectBitIdentical(ForwardValue(gnn, features, graph, nullptr), expected);
  // The rewiring is visible, i.e. no stale rows could pass as fresh ones.
  EXPECT_NE(std::memcmp(before.data(), expected.data(),
                        sizeof(float) * static_cast<size_t>(before.size())),
            0);
}

}  // namespace
}  // namespace grimp
