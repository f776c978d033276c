// Streaming-layer tests: the LiveGraph maintenance invariant (delta-applied
// state bit-identical to a from-scratch rebuild), sharded/in-memory store
// parity under Append, the typed IngestBatch error surface with atomic
// rejection, streaming inference equality through TransformMany, typed
// rejection of malformed StreamContexts, the fine-tune hot-swap protocol,
// concurrent streaming TransformMany calls on one engine, and concurrent
// ingest/impute/serve (the TSan variant in tests/CMakeLists.txt reruns
// this suite).
#include <atomic>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "core/engine.h"
#include "data/temporal.h"
#include "embedding/ngram_init.h"
#include "exact_cells.h"
#include "graph/builder.h"
#include "graph/store.h"
#include "serve/model_registry.h"
#include "stream/live_graph.h"
#include "stream/streaming_engine.h"

namespace grimp {
namespace {

// A small drifting stream; dirty has gaps everywhere except the tick
// column.
TemporalStream SmallStream(int64_t rows, uint64_t seed) {
  TemporalStreamSpec spec;
  spec.rows = rows;
  spec.tick_rows = 16;
  spec.cardinality = 6;
  auto stream = GenerateTemporalStream(spec, seed);
  EXPECT_TRUE(stream.ok()) << stream.status().ToString();
  return std::move(*stream);
}

Table Prefix(const Table& source, int64_t rows) {
  Table out(source.schema());
  for (int64_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(out.AppendRow(RowStrings(source, r)).ok());
  }
  return out;
}

// The feature seed GrimpEngine::Fit derives from options.seed (and
// LiveGraph::Create replicates).
uint64_t FeatureSeed(uint64_t seed) {
  Rng rng(seed);
  rng.Fork();
  return rng.Next();
}

// Neighbor lists of every node under every edge type, read through the
// store's Acquire/Neighbors surface (works for both implementations).
std::vector<std::vector<int32_t>> DumpStore(const GraphStore& store) {
  std::vector<std::vector<int32_t>> runs;
  for (int64_t v = 0; v < store.num_nodes(); ++v) {
    ShardScope scope = store.Acquire(store.ShardOf(v));
    for (int t = 0; t < store.num_edge_types(); ++t) {
      auto [b, e] = scope->Neighbors(t, v);
      runs.emplace_back(b, e);
    }
  }
  return runs;
}

void ExpectStoresEqual(const GraphStore& a, const GraphStore& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edge_types(), b.num_edge_types());
  EXPECT_EQ(DumpStore(a), DumpStore(b));
}

void ExpectTensorsBitEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.rows()) *
                            static_cast<size_t>(a.cols())),
            0);
}

bool TablesEqual(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_cols() != b.num_cols()) {
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_cols(); ++c) {
      if (a.IsMissing(r, c) != b.IsMissing(r, c)) return false;
      if (!a.IsMissing(r, c) &&
          a.column(c).StringAt(r) != b.column(c).StringAt(r)) {
        return false;
      }
    }
  }
  return true;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_cols(); ++c) {
      ASSERT_EQ(a.IsMissing(r, c), b.IsMissing(r, c))
          << "missingness differs at (" << r << ", " << c << ")";
      if (!a.IsMissing(r, c)) {
        ASSERT_EQ(a.column(c).StringAt(r), b.column(c).StringAt(r))
            << "value differs at (" << r << ", " << c << ")";
      }
    }
  }
}

// Rebuilds (graph, features) from scratch over `table` with the same
// segment list and compares every piece of the live state bit for bit.
void ExpectMatchesRebuild(const LiveGraph& live) {
  auto tg_or = GraphBuilder().Build(live.table(), live.segments(), {});
  ASSERT_TRUE(tg_or.ok()) << tg_or.status().ToString();
  const TableGraph& rebuilt = *tg_or;

  ASSERT_EQ(live.tg().rid_nodes, rebuilt.rid_nodes);
  ASSERT_EQ(live.tg().cell_nodes, rebuilt.cell_nodes);

  InMemoryGraphStore rebuilt_store(
      static_cast<const HeteroGraph*>(&rebuilt.graph));
  ExpectStoresEqual(*live.store(), rebuilt_store);

  auto features_or = NgramFeatureInit().Init(
      live.table(), rebuilt, live.options().dim,
      FeatureSeed(live.options().seed));
  ASSERT_TRUE(features_or.ok()) << features_or.status().ToString();
  ExpectTensorsBitEqual(live.node_features(), features_or->node_features);
}

TEST(LiveGraphTest, AppendsAndFillsMatchRebuildAcrossEpochs) {
  const TemporalStream data = SmallStream(/*rows=*/192, /*seed=*/11);
  LiveGraphOptions options;
  options.dim = 8;
  options.seed = 7;
  auto live_or = LiveGraph::Create(Prefix(data.dirty, 96), options);
  ASSERT_TRUE(live_or.ok()) << live_or.status().ToString();
  LiveGraph& live = **live_or;
  ExpectMatchesRebuild(live);

  // Epoch 1: append 32 rows, fill a few of the *appended* rows' gaps plus
  // a few pre-epoch gaps, then flush once.
  for (int64_t r = 96; r < 128; ++r) {
    ASSERT_TRUE(live.AppendRow(RowStrings(data.dirty, r)).ok());
  }
  int filled = 0;
  for (int64_t r = 0; r < 128 && filled < 6; ++r) {
    for (int c = 1; c < live.table().num_cols() && filled < 6; ++c) {
      if (!live.table().IsMissing(r, c)) continue;
      ASSERT_TRUE(
          live.FillCell(r, c, data.truth.column(c).StringAt(r)).ok());
      ++filled;
    }
  }
  ASSERT_GT(filled, 0);
  ASSERT_TRUE(live.dirty());
  ASSERT_TRUE(live.Flush().ok());
  ASSERT_FALSE(live.dirty());
  ASSERT_EQ(live.segments().size(), 2u);
  ExpectMatchesRebuild(live);

  // Epoch 2: appends only — the rebuild must also match after multiple
  // sealed segments, including rows that introduce brand-new dictionary
  // codes (new ticks).
  for (int64_t r = 128; r < 192; ++r) {
    ASSERT_TRUE(live.AppendRow(RowStrings(data.dirty, r)).ok());
  }
  ASSERT_TRUE(live.Flush().ok());
  ASSERT_EQ(live.segments().size(), 3u);
  ExpectMatchesRebuild(live);

  // Flush with nothing pending is a no-op (no empty segment).
  ASSERT_TRUE(live.Flush().ok());
  ASSERT_EQ(live.segments().size(), 3u);
}

TEST(LiveGraphTest, ShardedAppendMatchesInMemory) {
  const TemporalStream data = SmallStream(/*rows=*/160, /*seed=*/3);

  LiveGraphOptions mem_options;
  mem_options.dim = 8;
  mem_options.seed = 5;
  LiveGraphOptions shard_options = mem_options;
  shard_options.graph.shard_mode = ShardMode::kSharded;
  shard_options.graph.num_shards = 4;
  shard_options.graph.max_resident_bytes = 1 << 20;

  auto mem_or = LiveGraph::Create(Prefix(data.dirty, 80), mem_options);
  auto shard_or = LiveGraph::Create(Prefix(data.dirty, 80), shard_options);
  ASSERT_TRUE(mem_or.ok()) << mem_or.status().ToString();
  ASSERT_TRUE(shard_or.ok()) << shard_or.status().ToString();
  LiveGraph& mem = **mem_or;
  LiveGraph& sharded = **shard_or;

  for (int64_t r = 80; r < 160; ++r) {
    const std::vector<std::string> cells = RowStrings(data.dirty, r);
    ASSERT_TRUE(mem.AppendRow(cells).ok());
    ASSERT_TRUE(sharded.AppendRow(cells).ok());
    if ((r + 1) % 32 == 0) {
      ASSERT_TRUE(mem.Flush().ok());
      ASSERT_TRUE(sharded.Flush().ok());
    }
  }
  ASSERT_TRUE(mem.Flush().ok());
  ASSERT_TRUE(sharded.Flush().ok());

  ASSERT_GT(sharded.store()->num_shards(), 1);
  ExpectStoresEqual(*mem.store(), *sharded.store());
  ExpectTensorsBitEqual(mem.node_features(), sharded.node_features());
}

TEST(LiveGraphTest, FillCellTypedErrors) {
  const TemporalStream data = SmallStream(/*rows=*/64, /*seed=*/1);
  LiveGraphOptions options;
  options.dim = 8;
  auto live_or = LiveGraph::Create(Prefix(data.dirty, 64), options);
  ASSERT_TRUE(live_or.ok());
  LiveGraph& live = **live_or;

  EXPECT_EQ(live.FillCell(-1, 1, "x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(live.FillCell(64, 1, "x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(live.FillCell(0, 99, "x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(live.FillCell(0, 1, "").code(), StatusCode::kInvalidArgument);
  // The tick column is never missing: overwriting a present cell is an
  // append-only violation.
  EXPECT_EQ(live.FillCell(0, 0, "tick_99").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(live.dirty());
}

// Streaming-engine fixture: a small fitted engine over the dirty prefix.
class StreamingEngineTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 256;
  static constexpr int64_t kPrefix = 128;

  std::unique_ptr<GrimpEngine> FitEngine(const Table& seed_table,
                                         int pipeline_depth) {
    GrimpOptions options;
    options.dim = 8;
    options.shared_hidden = 16;
    options.task_hidden = 16;
    options.max_epochs = 2;
    options.seed = 13;
    options.train.mode = TrainMode::kSampled;
    options.train.batch_size = 64;
    options.train.fanouts = {3, 3};
    options.train.pipeline_depth = pipeline_depth;
    options.simd = simd_;
    auto engine = std::make_unique<GrimpEngine>(options);
    const Status fit = engine->Fit(seed_table);
    EXPECT_TRUE(fit.ok()) << fit.ToString();
    return engine;
  }

  std::unique_ptr<StreamingEngine> MakeEngine(
      const StreamingOptions& options, ModelRegistry* registry = nullptr,
      int pipeline_depth = 0) {
    Table seed_table = Prefix(data_.dirty, kPrefix);
    std::unique_ptr<GrimpEngine> fitted =
        FitEngine(seed_table, pipeline_depth);
    auto engine_or = StreamingEngine::Create(
        std::move(fitted), std::move(seed_table), options, registry);
    EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    return std::move(*engine_or);
  }

  // Streaming TransformMany of `window` (a copy of the context's window
  // rows) through `engine`.
  static Status StreamImpute(const GrimpEngine& engine,
                             const StreamContext& ctx, Table* window) {
    TransformOptions transform;
    transform.stream = &ctx;
    return engine.TransformMany(std::span<Table* const>(&window, 1),
                                transform);
  }

  // A fitted engine and a live graph over its own seed table, for feeding
  // deliberately broken StreamContexts: both streaming TransformMany and
  // Resume must reject `break_ctx`'s context with InvalidArgument naming
  // `field`, instead of aborting or reading out of bounds.
  void ExpectContextRejected(
      const std::function<void(const LiveGraph&, StreamContext*)>& break_ctx,
      const std::string& field) {
    Table seed_table = Prefix(data_.dirty, kPrefix);
    std::unique_ptr<GrimpEngine> engine = FitEngine(seed_table, 0);
    ASSERT_NE(engine, nullptr);
    LiveGraphOptions live_options;
    live_options.dim = engine->options().dim;
    live_options.seed = engine->options().seed;
    auto live_or = LiveGraph::Create(std::move(seed_table), live_options);
    ASSERT_TRUE(live_or.ok()) << live_or.status().ToString();
    const LiveGraph& live = **live_or;

    StreamContext ctx = live.Context(kPrefix - 32, {3, 3}, /*nonce=*/0);
    break_ctx(live, &ctx);
    Table window(live.table().schema());
    for (int64_t r = kPrefix - 32; r < kPrefix; ++r) {
      ASSERT_TRUE(window.AppendRow(RowStrings(live.table(), r)).ok());
    }
    const Status transform = StreamImpute(*engine, ctx, &window);
    EXPECT_EQ(transform.code(), StatusCode::kInvalidArgument)
        << transform.ToString();
    EXPECT_NE(transform.message().find(field), std::string::npos)
        << transform.ToString();
    const auto resumed = engine->Resume(ctx, ResumeOptions{});
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument)
        << resumed.status().ToString();
    EXPECT_NE(resumed.status().message().find(field), std::string::npos)
        << resumed.status().ToString();
  }

  StreamBatch RowBatch(int64_t begin, int64_t end) {
    StreamBatch batch;
    for (int64_t r = begin; r < end; ++r) {
      batch.rows.push_back(RowStrings(data_.dirty, r));
    }
    return batch;
  }

  TemporalStream data_ = SmallStream(kRows, /*seed=*/17);
  // SIMD tier of the fitted engine; the pin test sets "scalar".
  std::string simd_ = "auto";
};

TEST_F(StreamingEngineTest, IngestRejectsInvalidBatchesAtomically) {
  StreamingOptions options;
  options.window_rows = 32;
  auto stream = MakeEngine(options);
  ASSERT_NE(stream, nullptr);
  const int64_t rows_before = stream->live_rows();
  const int64_t nodes_before = stream->live().store()->num_nodes();

  // A wrong-arity row rejects the whole batch.
  StreamBatch bad_row = RowBatch(kPrefix, kPrefix + 4);
  bad_row.rows[2].pop_back();
  EXPECT_EQ(stream->IngestBatch(bad_row).status().code(),
            StatusCode::kInvalidArgument);

  // A cell update aimed at a present cell rejects the whole batch, even
  // though the rows themselves are fine.
  StreamBatch bad_cell = RowBatch(kPrefix, kPrefix + 4);
  bad_cell.cells.push_back({0, 0, "tick_0"});
  EXPECT_EQ(stream->IngestBatch(bad_cell).status().code(),
            StatusCode::kFailedPrecondition);

  // Out-of-range and duplicate cell targets are typed too.
  StreamBatch oob;
  oob.cells.push_back({rows_before + 99, 1, "x"});
  EXPECT_EQ(stream->IngestBatch(oob).status().code(),
            StatusCode::kOutOfRange);

  // Nothing was applied by any rejected batch.
  EXPECT_EQ(stream->live_rows(), rows_before);
  EXPECT_EQ(stream->live().store()->num_nodes(), nodes_before);

  // The same rows ingest cleanly afterwards, and the stats account for
  // the appended nodes and both-direction edges.
  auto stats_or = stream->IngestBatch(RowBatch(kPrefix, kPrefix + 4));
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_EQ(stats_or->rows_appended, 4);
  EXPECT_EQ(stream->live_rows(), rows_before + 4);
  EXPECT_GT(stats_or->new_nodes, 0);
  EXPECT_GT(stats_or->new_edges, 0);
}

TEST_F(StreamingEngineTest, BatchMayFillCellsOfItsOwnRows) {
  StreamingOptions options;
  options.window_rows = 32;
  auto stream = MakeEngine(options);
  ASSERT_NE(stream, nullptr);

  // Find a gap in the first appended row and fill it in the same batch
  // (coordinates are interpreted against the post-append table).
  StreamBatch batch = RowBatch(kPrefix, kPrefix + 2);
  int gap_col = -1;
  for (int c = 1; c < static_cast<int>(batch.rows[0].size()); ++c) {
    if (batch.rows[0][static_cast<size_t>(c)].empty()) {
      gap_col = c;
      break;
    }
  }
  ASSERT_GE(gap_col, 1);
  batch.cells.push_back(
      {kPrefix, gap_col, data_.truth.column(gap_col).StringAt(kPrefix)});

  auto stats_or = stream->IngestBatch(batch);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_EQ(stats_or->rows_appended, 2);
  EXPECT_EQ(stats_or->cells_filled, 1);
  EXPECT_FALSE(stream->live().table().IsMissing(kPrefix, gap_col));
}

TEST_F(StreamingEngineTest, ImputedWindowsMatchBatchRebuild) {
  StreamingOptions options;
  options.window_rows = 32;
  options.fanouts = {3, 3};
  auto stream = MakeEngine(options);
  ASSERT_NE(stream, nullptr);

  for (int64_t i = 0; i < 3; ++i) {
    const int64_t begin = kPrefix + i * 32;
    ASSERT_TRUE(stream->IngestBatch(RowBatch(begin, begin + 32)).ok());
    auto window_or = stream->ImputeWindow();
    ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();

    // Batch-rebuild baseline over the same table + segment list: rebuild
    // graph/features from scratch and impute the same window with the same
    // nonce; the sampled blocks are a function of (seed, nonce, graph,
    // window), so the result must be bit-identical.
    const LiveGraph& live = stream->live();
    auto tg_or = GraphBuilder().Build(live.table(), live.segments(), {});
    ASSERT_TRUE(tg_or.ok());
    auto features_or = NgramFeatureInit().Init(
        live.table(), *tg_or, live.options().dim,
        FeatureSeed(live.options().seed));
    ASSERT_TRUE(features_or.ok());
    InMemoryGraphStore store(
        static_cast<const HeteroGraph*>(&tg_or->graph));

    const int64_t row_begin = live.table().num_rows() - 32;
    Table window(live.table().schema());
    for (int64_t r = row_begin; r < live.table().num_rows(); ++r) {
      ASSERT_TRUE(window.AppendRow(RowStrings(live.table(), r)).ok());
    }
    StreamContext ctx;
    ctx.table = &live.table();
    ctx.tg = &*tg_or;
    ctx.store = &store;
    ctx.node_features = &features_or->node_features;
    ctx.row_begin = row_begin;
    ctx.fanouts = {3, 3};
    ctx.nonce = static_cast<uint64_t>(i);  // ImputeWindow's nonce counter
    TransformOptions transform;
    transform.stream = &ctx;
    Table* window_ptr = &window;
    ASSERT_TRUE(stream->engine()
                    .TransformMany(std::span<Table* const>(&window_ptr, 1),
                                   transform)
                    .ok());
    ExpectTablesEqual(*window_or, window);
  }
}

TEST_F(StreamingEngineTest, RejectsFanoutCountOtherThanGnnLayers) {
  ExpectContextRejected(
      [](const LiveGraph&, StreamContext* ctx) { ctx->fanouts = {3, 3, 3}; },
      "StreamContext.fanouts");
}

TEST_F(StreamingEngineTest, RejectsNonPositiveFanout) {
  ExpectContextRejected(
      [](const LiveGraph&, StreamContext* ctx) { ctx->fanouts = {0, 3}; },
      "StreamContext.fanouts");
}

TEST_F(StreamingEngineTest, RejectsStoreWithOtherNodeCount) {
  // A store over a shorter prefix has fewer nodes than the live graph the
  // context's node ids come from.
  auto small_or = GraphBuilder().Build(Prefix(data_.dirty, kPrefix / 2));
  ASSERT_TRUE(small_or.ok()) << small_or.status().ToString();
  const InMemoryGraphStore small_store(
      static_cast<const HeteroGraph*>(&small_or->graph));
  ExpectContextRejected(
      [&](const LiveGraph& live, StreamContext* ctx) {
        ASSERT_LT(small_store.num_nodes(), live.tg().graph.num_nodes());
        ctx->store = &small_store;
      },
      "StreamContext.store");
}

TEST_F(StreamingEngineTest, RejectsStoreWithOtherEdgeTypeCount) {
  // Same nodes as the live graph, one edge type short.
  HeteroGraph truncated;
  std::unique_ptr<InMemoryGraphStore> truncated_store;
  ExpectContextRejected(
      [&](const LiveGraph& live, StreamContext* ctx) {
        truncated = live.tg().graph;
        const std::span<const CsrAdjacency> all = truncated.adjacencies();
        truncated.SetAdjacency(
            std::vector<CsrAdjacency>(all.begin(), all.end() - 1));
        truncated_store = std::make_unique<InMemoryGraphStore>(
            static_cast<const HeteroGraph*>(&truncated));
        ctx->store = truncated_store.get();
      },
      "StreamContext.store");
}

// A window outside the live table is OutOfRange, including a row_begin so
// large that row_begin + window rows would overflow.
TEST_F(StreamingEngineTest, RejectsOutOfRangeWindow) {
  StreamingOptions options;
  options.window_rows = 32;
  options.fanouts = {3, 3};
  auto stream = MakeEngine(options);
  ASSERT_NE(stream, nullptr);
  const LiveGraph& live = stream->live();
  Table window(live.table().schema());
  ASSERT_TRUE(window.AppendRow(RowStrings(live.table(), 0)).ok());
  for (const int64_t row_begin :
       {int64_t{-1}, live.table().num_rows(),
        std::numeric_limits<int64_t>::max()}) {
    const StreamContext ctx = live.Context(row_begin, {3, 3}, /*nonce=*/0);
    Table copy = window;
    EXPECT_EQ(StreamImpute(stream->engine(), ctx, &copy).code(),
              StatusCode::kOutOfRange)
        << "row_begin " << row_begin;
  }
}

// Any number of streaming TransformMany calls may run concurrently on one
// engine over one shared StreamContext, each bit-identical to a serial
// call: the GNN layers hold only weights, so every call's mask scratch,
// sampler and tape are its own.
TEST_F(StreamingEngineTest, ConcurrentStreamingTransformManyMatchesSerial) {
  constexpr int64_t kWindow = 64;
  constexpr int kThreads = 4;
  constexpr int kCalls = 50;
  StreamingOptions options;
  options.window_rows = kWindow;
  options.fanouts = {3, 3};
  auto stream = MakeEngine(options);
  ASSERT_NE(stream, nullptr);
  ASSERT_TRUE(stream->IngestBatch(RowBatch(kPrefix, kPrefix + kWindow)).ok());

  const LiveGraph& live = stream->live();
  const int64_t row_begin = live.table().num_rows() - kWindow;
  const StreamContext ctx = live.Context(row_begin, {3, 3}, /*nonce=*/7);
  Table window(live.table().schema());
  for (int64_t r = row_begin; r < live.table().num_rows(); ++r) {
    ASSERT_TRUE(window.AppendRow(RowStrings(live.table(), r)).ok());
  }
  Table serial = window;
  ASSERT_TRUE(StreamImpute(stream->engine(), ctx, &serial).ok());
  ASSERT_FALSE(TablesEqual(serial, window));  // something was imputed

  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int call = 0; call < kCalls; ++call) {
        Table imputed = window;
        if (!StreamImpute(stream->engine(), ctx, &imputed).ok()) {
          failures.fetch_add(1);
        } else if (!TablesEqual(imputed, serial)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// Pins what streaming TransformMany computes (ImputedWindowsMatchBatchRebuild
// only shows it agrees with a rebuild): two successive 64-row ImputeWindow
// windows, fanouts {3,3}, each held by a Checksum64 digest at the scalar
// SIMD tier (ctest reruns it on one thread).
TEST_F(StreamingEngineTest, PinnedImputeWindowDigests) {
  simd_ = "scalar";
  StreamingOptions options;
  options.window_rows = 64;
  options.fanouts = {3, 3};
  auto stream = MakeEngine(options);
  ASSERT_NE(stream, nullptr);
  constexpr uint64_t kDigests[] = {0x920f1b6f449eaabeULL,
                                   0x2293821620aef10dULL};
  for (int64_t i = 0; i < 2; ++i) {
    const int64_t begin = kPrefix + i * 64;
    ASSERT_TRUE(stream->IngestBatch(RowBatch(begin, begin + 64)).ok());
    auto window_or = stream->ImputeWindow();
    ASSERT_TRUE(window_or.ok()) << window_or.status().ToString();
    const std::string cells = ExactCells(*window_or);
    const uint64_t digest = Checksum64::Of(cells.data(), cells.size());
    EXPECT_EQ(digest, kDigests[i])
        << "window " << i << " digest 0x" << std::hex << digest;
  }
}

TEST_F(StreamingEngineTest, FineTunePublishesAndHotSwaps) {
  ModelRegistry registry;
  StreamingOptions options;
  options.window_rows = 64;
  options.model_name = "stream";
  auto stream = MakeEngine(options, &registry);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->serving_version(), "v0");
  {
    auto handle_or = registry.Acquire("stream");
    ASSERT_TRUE(handle_or.ok());
    EXPECT_EQ(handle_or->version(), "v0");
  }

  ASSERT_TRUE(stream->IngestBatch(RowBatch(kPrefix, kPrefix + 64)).ok());
  auto summary_or = stream->FineTune();
  ASSERT_TRUE(summary_or.ok()) << summary_or.status().ToString();
  EXPECT_EQ(stream->serving_version(), "v1");

  // The bare name resolves to the freshly published version, and the old
  // version is gone (drained and unloaded) — a serving stack keyed on
  // name@version can never read a stale model.
  auto handle_or = registry.Acquire("stream");
  ASSERT_TRUE(handle_or.ok());
  EXPECT_EQ(handle_or->version(), "v1");
  EXPECT_TRUE(handle_or->engine().summary().epochs_run >= 0);
  EXPECT_FALSE(registry.Acquire("stream@v0").ok());
}

// Fine-tuning trains through the sampled trainer's batch pipeline: at
// depth 4 it must reproduce the serial run bit for bit — the fit, the
// fine-tune summary and the windows imputed with the published weights.
TEST_F(StreamingEngineTest, FineTuneIdenticalAcrossPipelineDepths) {
  StreamingOptions options;
  options.window_rows = 64;
  options.fanouts = {3, 3};
  struct RunOutput {
    TrainSummary summary;
    Table window;
  };
  auto run = [&](int depth) {
    ModelRegistry registry;
    RunOutput out;
    auto stream = MakeEngine(options, &registry, depth);
    EXPECT_NE(stream, nullptr);
    if (stream == nullptr) return out;
    EXPECT_TRUE(stream->IngestBatch(RowBatch(kPrefix, kPrefix + 64)).ok());
    auto summary_or = stream->FineTune();
    EXPECT_TRUE(summary_or.ok()) << summary_or.status().ToString();
    if (summary_or.ok()) out.summary = *summary_or;
    auto window_or = stream->ImputeWindow();
    EXPECT_TRUE(window_or.ok()) << window_or.status().ToString();
    if (window_or.ok()) out.window = std::move(*window_or);
    return out;
  };
  const RunOutput serial = run(0);
  const RunOutput piped = run(4);
  EXPECT_GT(serial.summary.steps_run, 0);
  EXPECT_EQ(serial.summary.epochs_run, piped.summary.epochs_run);
  EXPECT_EQ(serial.summary.steps_run, piped.summary.steps_run);
  EXPECT_EQ(serial.summary.final_train_loss, piped.summary.final_train_loss);
  EXPECT_EQ(serial.summary.best_val_loss, piped.summary.best_val_loss);
  ExpectTablesEqual(serial.window, piped.window);
}

TEST_F(StreamingEngineTest, ConcurrentIngestImputeAndServe) {
  ModelRegistry registry;
  StreamingOptions options;
  options.window_rows = 32;
  auto stream = MakeEngine(options, &registry);
  ASSERT_NE(stream, nullptr);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  // Writer: ingest the remaining stream in small batches.
  std::thread writer([&] {
    for (int64_t begin = kPrefix; begin + 16 <= kRows; begin += 16) {
      if (!stream->IngestBatch(RowBatch(begin, begin + 16)).ok()) {
        failures.fetch_add(1);
      }
    }
    done.store(true);
  });
  // Reader: impute the live window concurrently with ingestion.
  std::thread reader([&] {
    while (!done.load()) {
      auto window_or = stream->ImputeWindow();
      if (!window_or.ok()) failures.fetch_add(1);
    }
  });
  // Server: resolve and pin the serving model like the TCP front end does.
  std::thread server([&] {
    while (!done.load()) {
      auto handle_or = registry.Acquire("stream");
      if (!handle_or.ok()) failures.fetch_add(1);
    }
  });

  writer.join();
  reader.join();
  server.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stream->live_rows(), kRows);
}

}  // namespace
}  // namespace grimp
