// Streaming ingestion benchmark: imputation freshness of the incremental
// StreamingEngine versus a batch-rebuild baseline that reconstructs the
// graph, node features and store from scratch on every batch.
//
// Freshness latency here is the staleness window: the time from a batch of
// rows arriving until the imputable state reflects them (delta maintenance
// for the streaming path; the full rebuild for the baseline). Query
// latency — running the sampled-block window imputation against that
// state — is byte-for-byte the same computation in both paths and is
// measured and reported separately (`query_seconds`), along with the
// combined arrival-to-imputation time.
//
// Both paths run the identical sampled inference with the same nonce over
// the same segmented node layout, so their imputed windows must match bit
// for bit — accuracy parity is checked cell by cell, not assumed. After
// the measured loop, an online fine-tuning round publishes a refreshed
// model into a ModelRegistry (v0 -> v1 hot swap) and the window accuracy
// before/after is reported.
//
// Writes BENCH_stream.json (cwd). Exits 1 if the mean freshness speedup
// falls below --min-speedup (default 5) or any window pair differs.
//
//   bench_stream [--rows=N] [--batch=N] [--window=N] [--epochs=N]
//                [--seed=N] [--min-speedup=X]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/engine.h"
#include "data/temporal.h"
#include "embedding/ngram_init.h"
#include "graph/builder.h"
#include "graph/store.h"
#include "serve/model_registry.h"
#include "stream/streaming_engine.h"

namespace {

using grimp::CellUpdate;
using grimp::GraphBuilder;
using grimp::GraphSegment;
using grimp::GrimpEngine;
using grimp::GrimpOptions;
using grimp::InMemoryGraphStore;
using grimp::MetricsRegistry;
using grimp::ModelRegistry;
using grimp::NgramFeatureInit;
using grimp::PretrainedFeatures;
using grimp::Rng;
using grimp::StreamBatch;
using grimp::StreamContext;
using grimp::StreamingEngine;
using grimp::StreamingOptions;
using grimp::Table;
using grimp::TableGraph;
using grimp::TemporalStream;
using grimp::TemporalStreamSpec;
using grimp::Tensor;
using grimp::TrainMode;
using grimp::TransformOptions;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Fraction of the window's originally-missing categorical cells imputed
// to the true value. `truth_begin` maps window row w to truth row
// truth_begin + w.
double WindowAccuracy(const Table& imputed, const Table& dirty,
                      const Table& truth, int64_t truth_begin) {
  int64_t hits = 0;
  int64_t total = 0;
  for (int64_t w = 0; w < imputed.num_rows(); ++w) {
    const int64_t r = truth_begin + w;
    for (int c = 0; c < imputed.num_cols(); ++c) {
      if (!dirty.column(c).is_categorical()) continue;
      if (!dirty.IsMissing(r, c)) continue;
      ++total;
      if (imputed.column(c).StringAt(w) == truth.column(c).StringAt(r)) {
        ++hits;
      }
    }
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 1.0;
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

// The batch-rebuild baseline: a plain table plus the full
// rebuild-everything step the StreamingEngine's delta maintenance
// replaces. It rebuilds in the same segmented node layout (one segment
// per ingested batch) so the sampled inference — keyed on global node ids
// — draws identical blocks and the imputed windows can be compared bit
// for bit against the incremental path.
struct RebuildBaseline {
  Table table;
  std::vector<GraphSegment> segments;
  uint64_t feature_seed = 0;
  int dim = 16;

  // Rebuilt-from-scratch state of the latest batch.
  TableGraph tg;
  Tensor features;
  std::unique_ptr<InMemoryGraphStore> store;

  void SealSegment() {
    GraphSegment seg;
    seg.row_end = table.num_rows();
    seg.code_end.resize(static_cast<size_t>(table.num_cols()));
    for (int c = 0; c < table.num_cols(); ++c) {
      seg.code_end[static_cast<size_t>(c)] = table.column(c).dict().size();
    }
    segments.push_back(std::move(seg));
  }

  bool Rebuild() {
    auto tg_or = GraphBuilder().Build(table, segments, {});
    if (!tg_or.ok()) return false;
    tg = std::move(*tg_or);
    auto features_or = NgramFeatureInit().Init(table, tg, dim, feature_seed);
    if (!features_or.ok()) return false;
    features = std::move(features_or->node_features);
    store = std::make_unique<InMemoryGraphStore>(
        static_cast<const grimp::HeteroGraph*>(&tg.graph));
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  int64_t rows = 2400;
  int64_t batch = 96;
  int64_t window = 96;
  int epochs = 25;
  uint64_t seed = 17;
  double min_speedup = 5.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      rows = std::atoll(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch = std::atoll(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--window=", 9) == 0) {
      window = std::atoll(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--epochs=", 9) == 0) {
      epochs = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      min_speedup = std::atof(argv[i] + 14);
    } else {
      std::fprintf(stderr,
                   "usage: bench_stream [--rows=N] [--batch=N] "
                   "[--window=N] [--epochs=N] [--seed=N] "
                   "[--min-speedup=X]\n");
      return 2;
    }
  }

  TemporalStreamSpec spec;
  spec.rows = rows;
  auto stream_or = grimp::GenerateTemporalStream(spec, seed);
  if (!stream_or.ok()) {
    std::fprintf(stderr, "bench_stream: %s\n",
                 stream_or.status().ToString().c_str());
    return 1;
  }
  const TemporalStream& data = *stream_or;
  const int64_t prefix = rows / 2;

  Table seed_table(data.dirty.schema());
  for (int64_t r = 0; r < prefix; ++r) {
    if (!seed_table.AppendRow(grimp::RowStrings(data.dirty, r)).ok()) {
      std::fprintf(stderr, "bench_stream: seed row append failed\n");
      return 1;
    }
  }

  const int max_threads = grimp::bench::ResolveMaxThreads();
  GrimpOptions options;
  options.dim = 16;
  options.shared_hidden = 32;
  options.max_epochs = epochs;
  options.seed = seed;
  options.num_threads = max_threads;
  options.train.mode = TrainMode::kSampled;
  options.train.batch_size = 128;
  options.train.fanouts = {4, 4};
  auto engine = std::make_unique<GrimpEngine>(options);
  std::printf("fitting on the %lld-row dirty prefix...\n",
              static_cast<long long>(prefix));
  const double fit_start = Now();
  if (auto s = engine->Fit(seed_table); !s.ok()) {
    std::fprintf(stderr, "bench_stream: fit failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  const double fit_seconds = Now() - fit_start;
  const GrimpEngine* engine_view = engine.get();

  ModelRegistry registry;
  StreamingOptions stream_options;
  stream_options.window_rows = window;
  stream_options.fanouts = {4, 4};
  stream_options.fine_tune_epochs = 3;
  stream_options.model_name = "stream";
  auto streaming_or = StreamingEngine::Create(std::move(engine), seed_table,
                                              stream_options, &registry);
  if (!streaming_or.ok()) {
    std::fprintf(stderr, "bench_stream: %s\n",
                 streaming_or.status().ToString().c_str());
    return 1;
  }
  StreamingEngine& streaming = **streaming_or;

  RebuildBaseline baseline;
  baseline.table = seed_table;
  baseline.dim = options.dim;
  {
    Rng rng(options.seed);  // Fit's feature-seed derivation
    rng.Fork();
    baseline.feature_seed = rng.Next();
  }
  baseline.SealSegment();

  const int64_t num_batches = (rows - prefix) / batch;
  std::vector<double> stream_freshness;   // maintenance: arrival -> fresh state
  std::vector<double> rebuild_freshness;
  std::vector<double> stream_query;       // window imputation on fresh state
  std::vector<double> rebuild_query;
  bool identical = true;
  double stream_acc_sum = 0.0;
  double rebuild_acc_sum = 0.0;

  std::printf("streaming %lld batches of %lld rows (window %lld)...\n",
              static_cast<long long>(num_batches),
              static_cast<long long>(batch),
              static_cast<long long>(window));
  for (int64_t i = 0; i < num_batches; ++i) {
    const int64_t begin = prefix + i * batch;
    StreamBatch ingest;
    for (int64_t r = begin; r < begin + batch; ++r) {
      ingest.rows.push_back(grimp::RowStrings(data.dirty, r));
    }

    // Incremental path: delta-maintain, then impute the window.
    auto stats_or = streaming.IngestBatch(ingest);
    if (!stats_or.ok()) {
      std::fprintf(stderr, "bench_stream: ingest failed: %s\n",
                   stats_or.status().ToString().c_str());
      return 1;
    }
    const double q0 = Now();
    auto window_or = streaming.ImputeWindow();
    if (!window_or.ok()) {
      std::fprintf(stderr, "bench_stream: impute failed: %s\n",
                   window_or.status().ToString().c_str());
      return 1;
    }
    stream_query.push_back(Now() - q0);
    stream_freshness.push_back(stats_or->seconds);

    // Batch-rebuild baseline: same rows, full reconstruction, same
    // sampled inference (nonce == batch index, matching the streaming
    // engine's internal impute counter).
    const double b0 = Now();
    for (const auto& row : ingest.rows) {
      if (!baseline.table.AppendRow(row).ok()) {
        std::fprintf(stderr, "bench_stream: baseline append failed\n");
        return 1;
      }
    }
    baseline.SealSegment();
    if (!baseline.Rebuild()) {
      std::fprintf(stderr, "bench_stream: baseline rebuild failed\n");
      return 1;
    }
    rebuild_freshness.push_back(Now() - b0);
    const double bq0 = Now();
    const int64_t n = baseline.table.num_rows();
    const int64_t row_begin = n - std::min<int64_t>(window, n);
    Table rebuilt_window(baseline.table.schema());
    for (int64_t r = row_begin; r < n; ++r) {
      if (!rebuilt_window.AppendRow(grimp::RowStrings(baseline.table, r))
               .ok()) {
        std::fprintf(stderr, "bench_stream: baseline window copy failed\n");
        return 1;
      }
    }
    StreamContext ctx;
    ctx.table = &baseline.table;
    ctx.tg = &baseline.tg;
    ctx.store = baseline.store.get();
    ctx.node_features = &baseline.features;
    ctx.row_begin = row_begin;
    ctx.fanouts = {4, 4};
    ctx.nonce = static_cast<uint64_t>(i);
    TransformOptions transform;
    transform.stream = &ctx;
    Table* ptr = &rebuilt_window;
    if (auto s = engine_view->TransformMany(
            std::span<Table* const>(&ptr, 1), transform);
        !s.ok()) {
      std::fprintf(stderr, "bench_stream: baseline impute failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    rebuild_query.push_back(Now() - bq0);

    if (!TablesEqual(*window_or, rebuilt_window)) identical = false;
    stream_acc_sum +=
        WindowAccuracy(*window_or, data.dirty, data.truth, row_begin);
    rebuild_acc_sum +=
        WindowAccuracy(rebuilt_window, data.dirty, data.truth, row_begin);
  }

  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double stream_mean = mean(stream_freshness);
  const double rebuild_mean = mean(rebuild_freshness);
  const double stream_query_mean = mean(stream_query);
  const double rebuild_query_mean = mean(rebuild_query);
  const double speedup =
      stream_mean > 0.0 ? rebuild_mean / stream_mean : 0.0;
  const double end_to_end_speedup =
      stream_mean + stream_query_mean > 0.0
          ? (rebuild_mean + rebuild_query_mean) /
                (stream_mean + stream_query_mean)
          : 0.0;
  const double stream_acc =
      stream_acc_sum / static_cast<double>(num_batches);
  const double rebuild_acc =
      rebuild_acc_sum / static_cast<double>(num_batches);

  // Online fine-tuning: adapt to the drifted tail and hot-swap the
  // serving model (v0 -> v1). The imputed window before/after shows what
  // the refresh buys on drifted data.
  const int64_t tail_begin =
      streaming.live_rows() - std::min<int64_t>(window, streaming.live_rows());
  auto before_or = streaming.ImputeWindow();
  auto summary_or = streaming.FineTune();
  auto after_or = streaming.ImputeWindow();
  if (!before_or.ok() || !summary_or.ok() || !after_or.ok()) {
    std::fprintf(stderr, "bench_stream: fine-tune round failed\n");
    return 1;
  }
  const double acc_before =
      WindowAccuracy(*before_or, data.dirty, data.truth, tail_begin);
  const double acc_after =
      WindowAccuracy(*after_or, data.dirty, data.truth, tail_begin);
  const std::string serving = streaming.serving_version();

  std::printf("\n%-22s %12s %12s\n", "", "stream", "rebuild");
  std::printf("%-22s %12.6f %12.6f\n", "mean freshness (s)", stream_mean,
              rebuild_mean);
  std::printf("%-22s %12.6f %12.6f\n", "mean query (s)", stream_query_mean,
              rebuild_query_mean);
  std::printf("%-22s %12.4f %12.4f\n", "window accuracy", stream_acc,
              rebuild_acc);
  std::printf("%-22s %12.2fx (end to end %.2fx)\n", "freshness speedup",
              speedup, end_to_end_speedup);
  std::printf("%-22s %12s\n", "windows identical",
              identical ? "yes" : "NO");
  std::printf("fine-tune: accuracy %.4f -> %.4f, serving version %s "
              "(val loss %.4f, %d epochs)\n",
              acc_before, acc_after, serving.c_str(),
              summary_or->best_val_loss, summary_or->epochs_run);

  char json[2560];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"rows\": %lld,\n"
      "  \"prefix_rows\": %lld,\n"
      "  \"batch_rows\": %lld,\n"
      "  \"window_rows\": %lld,\n"
      "  \"batches\": %lld,\n"
      "  \"max_threads\": %d,\n"
      "  \"hardware_concurrency\": %d,\n"
      "  \"fit_seconds\": %.4f,\n"
      "  \"stream\": {\"mean_freshness_seconds\": %.6f, "
      "\"mean_query_seconds\": %.6f, \"accuracy\": %.4f},\n"
      "  \"rebuild\": {\"mean_freshness_seconds\": %.6f, "
      "\"mean_query_seconds\": %.6f, \"accuracy\": %.4f},\n"
      "  \"freshness_speedup\": %.2f,\n"
      "  \"end_to_end_speedup\": %.2f,\n"
      "  \"min_speedup_gate\": %.2f,\n"
      "  \"windows_identical\": %s,\n"
      "  \"fine_tune\": {\"accuracy_before\": %.4f, "
      "\"accuracy_after\": %.4f, \"serving_version\": \"%s\"}\n"
      "}\n",
      static_cast<long long>(rows), static_cast<long long>(prefix),
      static_cast<long long>(batch), static_cast<long long>(window),
      static_cast<long long>(num_batches), max_threads,
      grimp::bench::HardwareConcurrency(), fit_seconds,
      stream_mean, stream_query_mean, stream_acc, rebuild_mean,
      rebuild_query_mean, rebuild_acc, speedup, end_to_end_speedup,
      min_speedup, identical ? "true" : "false", acc_before, acc_after,
      serving.c_str());
  if (FILE* out = std::fopen("BENCH_stream.json", "w")) {
    std::fputs(json, out);
    std::fclose(out);
    std::printf("wrote BENCH_stream.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_stream.json\n");
    return 1;
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: incremental and rebuilt imputations diverged\n");
    return 1;
  }
  if (speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: freshness speedup %.2fx below the %.2fx gate\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
