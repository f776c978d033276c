// Microbenchmarks (google-benchmark) for the substrates GRIMP is built
// on: graph construction, feature initialization, GNN forward/backward,
// training-epoch cost, forest fitting, the dense kernels and the thread
// pool's dispatch.

#include <benchmark/benchmark.h>

#include <chrono>

#include "baselines/random_forest.h"
#include "common/thread_pool.h"
#include "core/grimp.h"
#include "data/datasets.h"
#include "embedding/feature_init.h"
#include "gnn/hetero_sage.h"
#include "graph/builder.h"
#include "table/corruption.h"
#include "tensor/optimizer.h"

namespace grimp {
namespace {

Table BenchTable(int64_t rows) {
  auto t = GenerateDatasetByName("adult", 7, rows);
  GRIMP_CHECK(t.ok());
  return *std::move(t);
}

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::GlorotUniform(n, n, &rng);
  Tensor b = Tensor::GlorotUniform(n, n, &rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_GraphBuild(benchmark::State& state) {
  Table t = BenchTable(state.range(0));
  for (auto _ : state) {
    TableGraph tg = BuildTableGraph(t);
    benchmark::DoNotOptimize(tg.graph.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows() * t.num_cols());
}
BENCHMARK(BM_GraphBuild)->Arg(200)->Arg(1000)->Arg(3016);

void BM_FeatureInit(benchmark::State& state) {
  Table t = BenchTable(300);
  TableGraph tg = BuildTableGraph(t);
  const auto kind = static_cast<FeatureInitKind>(state.range(0));
  auto init = MakeFeatureInitializer(kind);
  for (auto _ : state) {
    auto features = init->Init(t, tg, 32, 3);
    GRIMP_CHECK(features.ok());
    benchmark::DoNotOptimize(features->node_features.data());
  }
  state.SetLabel(FeatureInitKindName(kind));
}
BENCHMARK(BM_FeatureInit)->Arg(0)->Arg(1)->Arg(2);

void BM_GnnForwardBackward(benchmark::State& state) {
  Table t = BenchTable(state.range(0));
  TableGraph tg = BuildTableGraph(t);
  Rng rng(5);
  HeteroGnn gnn(tg.graph.num_edge_types(), 32, 32, 32, 2, &rng);
  const Tensor features =
      Tensor::GlorotUniform(tg.graph.num_nodes(), 32, &rng);
  std::vector<Parameter*> params;
  gnn.CollectParameters(&params);
  for (auto _ : state) {
    Tape tape;
    auto out = gnn.Forward(&tape, tape.Constant(features), tg.graph);
    auto loss = tape.SumAll(tape.Mul(out, out));
    tape.BackwardFrom(loss, Tensor::Scalar(1.0f));
    for (Parameter* p : params) p->ZeroGrad();
    benchmark::DoNotOptimize(tape.value(loss).scalar());
  }
}
BENCHMARK(BM_GnnForwardBackward)->Arg(200)->Arg(600);

void BM_GrimpFullTrain(benchmark::State& state) {
  Table t = BenchTable(150);
  const CorruptedTable corrupted = InjectMcar(t, 0.2, 3);
  for (auto _ : state) {
    GrimpOptions go;
    go.dim = 16;
    go.max_epochs = 5;
    GrimpImputer grimp(go);
    auto imputed = grimp.Impute(corrupted.dirty);
    GRIMP_CHECK(imputed.ok());
    benchmark::DoNotOptimize(imputed->num_rows());
  }
  state.SetLabel("150 rows, dim 16, 5 epochs");
}
BENCHMARK(BM_GrimpFullTrain);

void BM_ForestFit(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(9);
  FeatureMatrix x = FeatureMatrix::Create(n, 8);
  std::vector<int32_t> y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    for (int f = 0; f < 8; ++f) x.Set(i, f, rng.NextDouble());
    y[static_cast<size_t>(i)] = x.At(i, 0) > 0.5 ? 1 : 0;
  }
  std::vector<int64_t> rows(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) rows[static_cast<size_t>(i)] = i;
  std::vector<int> features{0, 1, 2, 3, 4, 5, 6, 7};
  ForestOptions options;
  options.num_trees = 10;
  for (auto _ : state) {
    RandomForest forest;
    forest.FitClassification(x, y, 2, rows, features, options, &rng);
    benchmark::DoNotOptimize(forest.num_trees());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ForestFit)->Arg(500)->Arg(2000);

void BM_SegmentMean(benchmark::State& state) {
  Table t = BenchTable(1000);
  TableGraph tg = BuildTableGraph(t);
  const CsrAdjacency& adj = tg.graph.adjacency(0);
  Rng rng(11);
  const Tensor x = Tensor::GlorotUniform(tg.graph.num_nodes(), 64, &rng);
  for (auto _ : state) {
    Tape tape;
    auto v = tape.SegmentMean(tape.Constant(x), adj.offsets(), adj.indices());
    benchmark::DoNotOptimize(tape.value(v).data());
  }
  state.SetItemsProcessed(state.iterations() * adj.num_edges() * 64);
}
BENCHMARK(BM_SegmentMean);

void SpinFor(std::chrono::microseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// The cost of starting parallel work: one ParallelFor of 4 chunks, each
// busy for range(0) µs, on a 4-lane pool, issued range(1) µs after the
// previous one returned. The ideal time is the chunk work alone. A 20 µs
// gap is typical between a sampled training step's loops; a 1 ms gap
// outlasts the workers' spin, so they are parked when the loop arrives.
// Only the ParallelFor call is timed; read the median of the repetitions.
void BM_ParallelForDispatch(benchmark::State& state) {
  const std::chrono::microseconds work(state.range(0));
  const std::chrono::microseconds gap(state.range(1));
  ThreadPool pool(4);
  for (auto _ : state) {
    SpinFor(gap);
    const auto start = std::chrono::steady_clock::now();
    pool.ParallelFor(0, 4, 1, [&](int64_t, int64_t) {
      if (work.count() > 0) SpinFor(work);
    });
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
  }
}
BENCHMARK(BM_ParallelForDispatch)
    ->ArgNames({"work_us", "gap_us"})
    ->ArgsProduct({{0, 5, 20, 200}, {20, 1000}})
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(200)
    ->Repetitions(9)
    ->ReportAggregatesOnly(true);

}  // namespace
}  // namespace grimp

BENCHMARK_MAIN();
