// Pins the state a fit builds around its epochs, by Checksum64 digest: the
// graph (node table and every CSR array), the node and column features,
// every task's gather indices, labels and targets, the full-mode read set
// (read rows and compacted lists) and TaskGradReduce's inverted index, and
// what batch inference collects and decides. The state comes from the
// free functions the fit body calls (GraphBuilder, the feature
// initializers, BuildTrainTasks, BuildReadSet, TaskGradReduce,
// CollectMissingCells / CompactImputeIndex), fed the way GrimpEngine
// feeds them; the decisions come from real Fit + TransformMany and
// FitImpute calls at the scalar SIMD tier. Any change to these passes must
// leave every digest as it is; a failure prints each part's digest.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "core/corpus.h"
#include "core/engine.h"
#include "core/task_index.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "embedding/feature_init.h"
#include "exact_cells.h"
#include "graph/builder.h"
#include "table/corruption.h"
#include "table/normalizer.h"

namespace grimp {
namespace {

class Digest {
 public:
  template <typename T>
  void Add(const std::vector<T>& v) {
    Scalar(static_cast<uint64_t>(v.size()));
    sum_.Update(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void Scalar(T x) {
    sum_.Update(&x, sizeof(x));
  }
  void Tensor(const grimp::Tensor& t) {
    Scalar(t.rows());
    Scalar(t.cols());
    sum_.Update(t.data(), static_cast<size_t>(t.size()) * sizeof(float));
  }
  uint64_t value() const { return sum_.Digest(); }

 private:
  Checksum64 sum_;
};

struct Parts {
  std::vector<std::pair<std::string, uint64_t>> parts;

  void Add(const std::string& name, const Digest& d) {
    parts.emplace_back(name, d.value());
  }
  uint64_t Combined() const {
    Digest d;
    for (const auto& [name, value] : parts) d.Scalar(value);
    return d.value();
  }
  std::string Describe() const {
    std::string out;
    char line[96];
    for (const auto& [name, value] : parts) {
      std::snprintf(line, sizeof(line), "  %s 0x%016llx\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out += line;
    }
    return out;
  }
};

void DigestGraph(const TableGraph& tg, Digest* d) {
  for (const NodeInfo& info : tg.graph.nodes()) {
    d->Scalar(static_cast<uint8_t>(info.kind));
    d->Scalar(info.payload);
    d->Scalar(info.attr);
  }
  d->Add(tg.rid_nodes);
  for (const std::vector<int64_t>& per_col : tg.cell_nodes) d->Add(per_col);
  d->Scalar(tg.graph.num_edge_types());
  for (const CsrAdjacency& adj : tg.graph.adjacencies()) {
    d->Add(adj.offsets());
    d->Add(adj.indices());
  }
}

void DigestCells(const ImputeIndex& index, const std::vector<int32_t>& rows,
                 Digest* d) {
  d->Add(rows);
  for (size_t t = 0; t < index.task_cells.size(); ++t) {
    d->Add(index.task_idx[t]);
    d->Scalar(static_cast<uint64_t>(index.task_cells[t].size()));
    for (const MissingCell& cell : index.task_cells[t]) {
      d->Scalar(static_cast<uint64_t>(cell.request));
      d->Scalar(cell.row);
      d->Scalar(cell.col);
    }
  }
}

// Batch inference's collected cells over `table` and its graph, as
// ForwardRequests builds them for a one-request union.
void DigestImputeIndex(const Table& table, const TableGraph& tg,
                       const TaskLabeling& labeling, Digest* d) {
  ImputeIndex index;
  index.Clear(labeling.class_offsets.empty()
                  ? static_cast<size_t>(table.num_cols())
                  : 1);
  CollectMissingCells(table, tg, 0, table.num_rows(), 0, 0, labeling,
                      &index);
  std::vector<int32_t> rows;
  ReadRowScratch scratch;
  CompactImputeIndex(table.num_cols(), tg.graph.num_nodes(), &index, &rows,
                     &scratch);
  DigestCells(index, rows, d);
}

// The fit's state for `source` under `options`, built as GrimpEngine's fit
// body builds it; then the engine's own decisions.
Parts FitState(const Table& source, const Table& second,
               const GrimpOptions& options) {
  Parts parts;
  const int num_cols = source.num_cols();
  const bool sharded = options.graph.shard_mode == ShardMode::kSharded;
  Rng rng(options.seed);
  Rng corpus_rng = rng.Fork();
  const TrainingCorpus corpus =
      BuildTrainingCorpus(source, options.validation_fraction,
                          options.max_samples_per_task, &corpus_rng);
  GraphBuildOptions graph_options;
  graph_options.max_neighbors_per_node = options.graph.neighbor_cap;
  graph_options.seed = options.seed;
  auto tg = GraphBuilder(graph_options).Build(source,
                                              corpus.ValidationCells());
  EXPECT_TRUE(tg.ok()) << tg.status().ToString();
  Digest graph;
  DigestGraph(*tg, &graph);
  parts.Add("graph", graph);

  auto features = MakeFeatureInitializer(options.features)
                      ->Init(source, *tg, options.dim, rng.Next());
  EXPECT_TRUE(features.ok()) << features.status().ToString();
  Digest feats;
  feats.Tensor(features->node_features);
  feats.Tensor(features->column_features);
  parts.Add("features", feats);

  const Normalizer normalizer = Normalizer::Fit(source);
  std::vector<int32_t> class_offsets;
  std::vector<TrainTask> tasks;
  if (options.multi_task) {
    for (int c = 0; c < num_cols; ++c) {
      tasks.emplace_back().categorical =
          source.schema().field(c).type == AttrType::kCategorical;
    }
  } else {
    class_offsets.assign(static_cast<size_t>(num_cols) + 1, 0);
    for (int c = 0; c < num_cols; ++c) {
      class_offsets[static_cast<size_t>(c) + 1] =
          class_offsets[static_cast<size_t>(c)] +
          source.column(c).dict().size();
    }
    tasks.emplace_back();
  }
  const TaskLabeling labeling{class_offsets, &normalizer};
  BuildTrainTasks(source, *tg, corpus.train, corpus.validation, labeling,
                  &tasks);
  Digest task_state;
  for (const TrainTask& task : tasks) {
    task_state.Scalar(task.categorical);
    task_state.Add(task.train_idx);
    task_state.Add(task.train_labels);
    task_state.Add(task.train_targets);
    task_state.Add(task.val_idx);
    task_state.Add(task.val_labels);
    task_state.Add(task.val_targets);
  }
  parts.Add("tasks", task_state);

  if (!sharded) {
    std::vector<int32_t> read_rows;
    std::vector<std::vector<int32_t>> read_idx;
    BuildReadSet(tasks, tg->graph.num_nodes(), &read_rows, &read_idx);
    Digest read_set;
    read_set.Add(read_rows);
    for (const std::vector<int32_t>& idx : read_idx) read_set.Add(idx);
    parts.Add("read_set", read_set);

    TaskGradReduce reduce;
    reduce.Build(std::span(read_idx).first(tasks.size()),
                 static_cast<int64_t>(read_rows.size()), num_cols);
    Digest entries;
    entries.Add(reduce.offsets());
    for (const TaskGradReduce::Entry& e : reduce.entries()) {
      entries.Scalar(e.task);
      entries.Scalar(e.pos);
    }
    parts.Add("reduce", entries);

    // FitImpute: the fit-time graph is inference's one request.
    Digest impute;
    DigestImputeIndex(source, *tg, labeling, &impute);
    GrimpEngine engine(options);
    auto imputed = engine.FitImpute(source);
    EXPECT_TRUE(imputed.ok()) << imputed.status().ToString();
    const std::string cells = ExactCells(*imputed);
    impute.Add(std::vector<char>(cells.begin(), cells.end()));
    parts.Add("fit_impute", impute);
  }

  if (options.multi_task) {
    // Fit, then batch TransformMany over a second table.
    Digest transform;
    auto request = GraphBuilder(graph_options).Build(second);
    EXPECT_TRUE(request.ok()) << request.status().ToString();
    DigestImputeIndex(second, *request, TaskLabeling{}, &transform);
    GrimpEngine engine(options);
    const Status fit = engine.Fit(source);
    EXPECT_TRUE(fit.ok()) << fit.ToString();
    Table out = second;
    Table* batch[] = {&out};
    const Status status = engine.TransformMany(batch);
    EXPECT_TRUE(status.ok()) << status.ToString();
    const std::string cells = ExactCells(out);
    transform.Add(std::vector<char>(cells.begin(), cells.end()));
    parts.Add("transform_many", transform);
  }
  return parts;
}

Table AdultDirty(uint64_t seed, int64_t rows, double missing) {
  auto clean = GenerateDatasetByName("adult", seed, rows);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  return InjectMcar(*clean, missing, seed + 1).dirty;
}

// Eight rows over three categorical columns, one numerical column and an
// all-missing column; row 5 holds a single present cell.
Table HandTable() {
  Schema schema({{"city", AttrType::kCategorical},
                 {"zip", AttrType::kCategorical},
                 {"size", AttrType::kNumerical},
                 {"kind", AttrType::kCategorical},
                 {"none", AttrType::kCategorical}});
  Table t(schema);
  const std::vector<std::vector<std::string>> rows = {
      {"paris", "75001", "2.5", "flat", ""},
      {"paris", "75002", "3", "", ""},
      {"lyon", "69001", "", "house", ""},
      {"", "69001", "4.25", "house", ""},
      {"nice", "06000", "1", "flat", ""},
      {"", "", "", "flat", ""},
      {"lyon", "", "2.5", "", ""},
      {"paris", "75001", "3", "flat", ""},
  };
  for (const auto& row : rows) EXPECT_TRUE(t.AppendRow(row).ok());
  return t;
}

struct FitCase {
  const char* name;
  std::function<void(GrimpOptions*)> tweak;
  bool hand_table = false;
  uint64_t digest = 0;
};

void PrintTo(const FitCase& fit, std::ostream* os) { *os << fit.name; }

class FitStatePinTest : public ::testing::TestWithParam<FitCase> {};

TEST_P(FitStatePinTest, StateDigest) {
  const FitCase& fit = GetParam();
  GrimpOptions options;
  options.simd = "scalar";
  // The epoch count shapes only the decisions, never the index state.
  options.max_epochs = 2;
  fit.tweak(&options);
  const Table source =
      fit.hand_table ? HandTable() : AdultDirty(7, 1200, 0.2);
  const Table second =
      fit.hand_table ? HandTable() : AdultDirty(8, 300, 0.25);
  const Parts parts = FitState(source, second, options);
  EXPECT_EQ(parts.Combined(), fit.digest)
      << fit.name << " digest 0x" << std::hex << parts.Combined() << "\n"
      << parts.Describe();
}

INSTANTIATE_TEST_SUITE_P(
    Fits, FitStatePinTest,
    ::testing::Values(
        FitCase{"defaults", [](GrimpOptions*) {}, false,
                0x331a791819a64554ULL},
        FitCase{"linear_heads",
                [](GrimpOptions* o) { o->task_kind = TaskKind::kLinear; },
                false, 0x94d16466ffa29c60ULL},
        FitCase{"single_task",
                [](GrimpOptions* o) { o->multi_task = false; }, false,
                0x0cab876a409a8bb6ULL},
        FitCase{"capped_samples",
                [](GrimpOptions* o) { o->max_samples_per_task = 100; }, false,
                0x2ec811d136748d00ULL},
        FitCase{"no_validation",
                [](GrimpOptions* o) { o->validation_fraction = 0.0; }, false,
                0xf63aa7f6fc8dae3fULL},
        FitCase{"neighbor_cap",
                [](GrimpOptions* o) { o->graph.neighbor_cap = 3; }, false,
                0xe29caf6e114bad0dULL},
        FitCase{"sharded_sampled",
                [](GrimpOptions* o) {
                  o->train.mode = TrainMode::kSampled;
                  o->train.fanouts = {3, 3};
                  o->graph.shard_mode = ShardMode::kSharded;
                  o->graph.max_resident_bytes = 64 << 10;
                },
                false, 0x311af226367bebbcULL},
        FitCase{"hand_table", [](GrimpOptions*) {}, true,
                0x64c6c4107b2bd4c6ULL}),
    [](const ::testing::TestParamInfo<FitCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace grimp
