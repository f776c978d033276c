// Training-mode benchmark, two axes:
//
//  1. full-graph vs neighbor-sampled minibatch epochs (the original
//     comparison): both train the same model on the same corrupted table
//     with the same capped sample budget; only TrainConfig differs.
//  2. pipeline depth sweep: sampled training re-runs at each depth in
//     --depths (default 0,2,4; TrainConfig::pipeline_depth, set per
//     config). Depth 0 prepares one batch at a time; depth D samples each
//     group of D consecutive batches jointly, one shard visit per GNN
//     layer for the whole group, then steps through the group in order.
//     Batch contents are a pure function of (seed, epoch, batch), so every
//     depth must train bit-identically — the bench checks exact per-epoch
//     loss equality (and, in-memory, cell-identical imputations) and
//     reports it as "bit_identical".
//
// Two dataset modes:
//   --shards=0 (default): in-memory "adult" replica. Runs one full-graph
//     config plus the sampled depth sweep; epoch_speedup = full / sampled
//     depth 0. At >= 10000 rows the run fails unless sampled epochs beat
//     full-graph epochs.
//   --shards=N: out-of-core "scale" replica over a ShardedGraphStore with
//     --budget-mb resident bytes. Sampled depth sweep only (full-graph
//     training needs the whole graph resident); epoch prep now includes
//     shard fetches, which a group shares across its batches. Each config
//     Fits the corrupted table through GrimpEngine and imputes its first
//     4096 rows with TransformMany; accuracy and rmse score that slice's
//     injected cells. An in-memory twin (config "memory_d0": depth 0, the
//     same options over the in-memory store) runs after the sweep; the
//     store must not change what a Fit computes, so the run fails unless
//     its per-epoch losses and scored-slice imputations equal sharded
//     depth 0's ("store_identical"). At
//     >= 1000000 rows the run fails unless the best grouped depth beats
//     depth 0 epochs by >= 1.25x — provided the machine has a second
//     hardware thread (on a single core the gate is reported as skipped;
//     the sweep still runs and bit-identity is still enforced).
//
// Both modes train on the same MCAR-corrupted table (20% of cells blanked)
// and score against the clean one; the per-column mode (categorical) and
// mean (numerical) imputation of the same cells is recorded beside them.
//
// Prints a per-config table and writes machine-readable results
// (per-epoch seconds, accuracy, speedups, pipeline counters, the
// bit-identity and store-identity flags) to BENCH_train.json (cwd).
//
//   bench_train [--rows=N] [--epochs=N] [--seed=N] [--samples=N]
//               [--batch=N] [--fanout=N] [--depths=0,2,4] [--shards=N]
//               [--budget-mb=N]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "baselines/mean_mode.h"
#include "bench_common.h"
#include "common/metrics.h"
#include "core/engine.h"
#include "core/grimp.h"
#include "data/datasets.h"
#include "data/temporal.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "table/corruption.h"

namespace {

// Rows a sharded config imputes with TransformMany and scores: a slice
// large enough for a few thousand injected cells, small enough that
// building its request graph stays out of the way of the depth sweep.
constexpr int64_t kShardedScoreRows = 4096;

using grimp::CellRef;
using grimp::CorruptedTable;
using grimp::GrimpEngine;
using grimp::GrimpImputer;
using grimp::GrimpOptions;
using grimp::MetricsRegistry;
using grimp::RunAlgorithm;
using grimp::RunResult;
using grimp::ShardMode;
using grimp::Table;
using grimp::TrainMode;

struct ConfigResult {
  std::string name;
  int depth = -1;  // -1 == full-graph config (pipeline not applicable)
  int epochs = 0;
  int64_t steps = 0;
  double mean_epoch_seconds = 0.0;
  double train_seconds = 0.0;
  double accuracy = 0.0;
  double rmse = 0.0;
  int64_t produced = 0;  // train.pipeline.* deltas for this config
  int64_t consumed = 0;
  std::vector<double> losses;  // per-epoch train loss, for bit-identity
  Table imputed;               // the scored table (sharded: the slice)
};

struct PipelineCounters {
  double produced = 0.0;
  double consumed = 0.0;
};

PipelineCounters ReadPipelineCounters() {
  MetricsRegistry& m = MetricsRegistry::Global();
  PipelineCounters c;
  c.produced = m.GetCounter("train.pipeline.produced").value();
  c.consumed = m.GetCounter("train.pipeline.consumed").value();
  return c;
}

double MeanEpochSeconds(const std::vector<double>& epoch_seconds) {
  // Skip the first epoch: it absorbs one-time allocation/cache warmup.
  const size_t skip = epoch_seconds.size() > 1 ? 1 : 0;
  const double sum = std::accumulate(epoch_seconds.begin() + skip,
                                     epoch_seconds.end(), 0.0);
  return sum / static_cast<double>(epoch_seconds.size() - skip);
}

// One in-memory config (adult replica): trains via GrimpImputer and scores
// the imputed table against the clean truth. `depth < 0` selects full-graph
// mode; otherwise sampled mode at that pipeline depth.
ConfigResult RunInMemory(const Table& clean, const CorruptedTable& corrupted,
                         const GrimpOptions& base, int depth, int batch,
                         int fanout) {
  GrimpOptions options = base;
  if (depth < 0) {
    options.train.mode = TrainMode::kFull;
  } else {
    options.train.mode = TrainMode::kSampled;
    options.train.batch_size = batch;
    options.train.fanouts = {fanout, fanout};
    options.train.pipeline_depth = depth;
  }

  ConfigResult result;
  result.name =
      depth < 0 ? "full" : "sampled_d" + std::to_string(depth);
  result.depth = depth;
  std::vector<double> epoch_seconds;
  options.callbacks.on_epoch_end =
      [&epoch_seconds, &result](const grimp::EpochStats& stats) {
        epoch_seconds.push_back(stats.seconds);
        result.losses.push_back(stats.train_loss);
        return true;
      };

  const PipelineCounters before = ReadPipelineCounters();
  GrimpImputer imputer(options);
  Table imputed;
  const RunResult rr = RunAlgorithm(clean, corrupted, &imputer, &imputed);
  if (!rr.status.ok()) {
    std::fprintf(stderr, "bench_train: config %s failed: %s\n",
                 result.name.c_str(), rr.status.ToString().c_str());
    std::exit(1);
  }
  const PipelineCounters after = ReadPipelineCounters();

  result.epochs = static_cast<int>(epoch_seconds.size());
  result.steps = imputer.summary().steps_run;
  result.train_seconds = imputer.summary().train_seconds;
  result.mean_epoch_seconds = MeanEpochSeconds(epoch_seconds);
  result.accuracy = rr.score.Accuracy();
  result.rmse = rr.score.Rmse();
  result.produced = static_cast<int64_t>(after.produced - before.produced);
  result.consumed = static_cast<int64_t>(after.consumed - before.consumed);
  result.imputed = std::move(imputed);
  return result;
}

// The cells `corrupted` blanked in rows [0, rows): what a TransformMany of
// that slice is scored on.
CorruptedTable SliceCells(const CorruptedTable& corrupted, int64_t rows) {
  CorruptedTable slice;
  for (const CellRef& cell : corrupted.missing_cells) {
    if (cell.row < rows) slice.missing_cells.push_back(cell);
  }
  return slice;
}

// Rows [0, rows) of `table` as a new table (missing cells stay missing).
Table CopyLeadingRows(const Table& table, int64_t rows) {
  Table out(table.schema());
  for (int64_t r = 0; r < rows; ++r) {
    if (!out.AppendRow(grimp::RowStrings(table, r)).ok()) {
      std::fprintf(stderr, "bench_train: could not copy row %lld\n",
                   static_cast<long long>(r));
      std::exit(1);
    }
  }
  return out;
}

// One sharded config (scale replica): GrimpEngine::Fit of the corrupted
// table over an out-of-core ShardedGraphStore, so per-batch prep includes
// shard fetches; then TransformMany imputes the slice's missing cells.
// `shards` == 0 runs the same Fit over the in-memory store.
ConfigResult RunSharded(const Table& clean, const CorruptedTable& corrupted,
                        const CorruptedTable& slice_cells,
                        int64_t score_rows, const GrimpOptions& base,
                        int depth, int batch, int fanout, int shards,
                        int64_t budget_bytes) {
  GrimpOptions options = base;
  options.train.mode = TrainMode::kSampled;
  options.train.batch_size = batch;
  options.train.fanouts = {fanout, fanout};
  if (shards > 0) {
    options.graph.shard_mode = ShardMode::kSharded;
    options.graph.num_shards = shards;
    options.graph.max_resident_bytes = budget_bytes;
  }
  options.train.pipeline_depth = depth;

  ConfigResult result;
  result.name =
      (shards > 0 ? "sharded_d" : "memory_d") + std::to_string(depth);
  result.depth = depth;
  std::vector<double> epoch_seconds;
  options.callbacks.on_epoch_end =
      [&epoch_seconds, &result](const grimp::EpochStats& stats) {
        epoch_seconds.push_back(stats.seconds);
        result.losses.push_back(stats.train_loss);
        return true;
      };

  const PipelineCounters before = ReadPipelineCounters();
  GrimpEngine engine(options);
  if (const auto status = engine.Fit(corrupted.dirty); !status.ok()) {
    std::fprintf(stderr, "bench_train: config %s fit failed: %s\n",
                 result.name.c_str(), status.ToString().c_str());
    std::exit(1);
  }
  const PipelineCounters after = ReadPipelineCounters();

  Table slice = CopyLeadingRows(corrupted.dirty, score_rows);
  Table* request = &slice;
  if (const auto status =
          engine.TransformMany(std::span<Table* const>(&request, 1));
      !status.ok()) {
    std::fprintf(stderr, "bench_train: config %s TransformMany failed: %s\n",
                 result.name.c_str(), status.ToString().c_str());
    std::exit(1);
  }
  const grimp::ImputationScore score =
      grimp::ScoreImputation(slice, slice_cells, clean);

  result.epochs = static_cast<int>(epoch_seconds.size());
  result.steps = engine.summary().steps_run;
  result.train_seconds = engine.summary().train_seconds;
  result.mean_epoch_seconds = MeanEpochSeconds(epoch_seconds);
  result.accuracy = score.Accuracy();
  result.rmse = score.Rmse();
  result.produced = static_cast<int64_t>(after.produced - before.produced);
  result.consumed = static_cast<int64_t>(after.consumed - before.consumed);
  result.imputed = std::move(slice);
  return result;
}

bool SameLosses(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;  // exact: bit-identical, not "close"
  }
  return true;
}

bool SameCells(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_cols() != b.num_cols()) {
    return false;
  }
  for (int c = 0; c < a.num_cols(); ++c) {
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      if (a.column(c).StringAt(r) != b.column(c).StringAt(r)) return false;
    }
  }
  return true;
}

std::string ToJson(const ConfigResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"config\": \"%s\", \"pipeline_depth\": %d, \"epochs\": %d, "
      "\"steps\": %lld, \"mean_epoch_seconds\": %.6f, "
      "\"train_seconds\": %.4f, \"accuracy\": %.4f, \"rmse\": %.4f, "
      "\"produced\": %lld, \"consumed\": %lld}",
      r.name.c_str(), r.depth, r.epochs, static_cast<long long>(r.steps),
      r.mean_epoch_seconds, r.train_seconds, r.accuracy, r.rmse,
      static_cast<long long>(r.produced), static_cast<long long>(r.consumed));
  return buf;
}

std::vector<int> ParseDepths(const char* csv) {
  std::vector<int> depths;
  const char* p = csv;
  while (*p != '\0') {
    depths.push_back(std::atoi(p));
    const char* comma = std::strchr(p, ',');
    if (comma == nullptr) break;
    p = comma + 1;
  }
  return depths;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t rows = 20000;
  int epochs = 5;
  uint64_t seed = 21;
  int64_t samples = 64;
  int batch = 64;
  int fanout = 2;
  int shards = 0;
  int64_t budget_mb = 64;
  std::vector<int> depths{0, 2, 4};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      rows = std::atoll(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--epochs=", 9) == 0) {
      epochs = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--samples=", 10) == 0) {
      samples = std::atoll(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--fanout=", 9) == 0) {
      fanout = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--depths=", 9) == 0) {
      depths = ParseDepths(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--budget-mb=", 12) == 0) {
      budget_mb = std::atoll(argv[i] + 12);
    } else {
      std::fprintf(stderr, "usage: bench_train [--rows=N] [--epochs=N] "
                           "[--seed=N] [--samples=N] [--batch=N] "
                           "[--fanout=N] [--depths=0,2,4] [--shards=N] "
                           "[--budget-mb=N]\n");
      return 2;
    }
  }
  if (depths.empty() || depths.front() != 0) {
    std::fprintf(stderr,
                 "bench_train: --depths must start with the serial "
                 "baseline 0\n");
    return 2;
  }
  const bool sharded = shards > 0;

  const char* dataset = sharded ? "scale" : "adult";
  auto clean_or = grimp::GenerateDatasetByName(dataset, /*seed=*/7, rows);
  if (!clean_or.ok()) {
    std::fprintf(stderr, "bench_train: %s\n",
                 clean_or.status().ToString().c_str());
    return 1;
  }
  const Table& clean = *clean_or;

  const int max_threads = grimp::bench::ResolveMaxThreads();
  GrimpOptions options;
  options.dim = 16;
  options.shared_hidden = 32;
  options.max_epochs = epochs;
  options.seed = seed;
  options.num_threads = max_threads;
  // A fixed small sample budget per column: this is the regime sampling is
  // for (few labels, big graph). No validation split so every config runs
  // exactly `epochs` epochs and sampled epochs never touch the full graph.
  options.max_samples_per_task = samples;
  options.validation_fraction = 0.0;

  std::printf("training benchmark: %s replica, %lld rows, %d epochs, "
              "%lld samples/task, up to %d threads%s\n\n",
              dataset, static_cast<long long>(clean.num_rows()), epochs,
              static_cast<long long>(samples), max_threads,
              sharded ? " (sharded)" : "");

  const CorruptedTable corrupted = grimp::InjectMcar(clean, 0.2, 13);
  // Sharded configs score a leading slice; in-memory ones every cell.
  const int64_t score_rows =
      sharded ? std::min<int64_t>(kShardedScoreRows, clean.num_rows())
              : clean.num_rows();
  const CorruptedTable slice_cells = SliceCells(corrupted, score_rows);

  // Baseline: the per-column mode / mean of the corrupted table.
  grimp::ImputationScore baseline;
  {
    grimp::MeanModeImputer mean_mode;
    auto imputed = mean_mode.Impute(corrupted.dirty);
    if (!imputed.ok()) {
      std::fprintf(stderr, "bench_train: baseline failed: %s\n",
                   imputed.status().ToString().c_str());
      return 1;
    }
    baseline = grimp::ScoreImputation(*imputed, slice_cells, clean);
  }

  std::vector<ConfigResult> results;
  if (sharded) {
    for (const int depth : depths) {
      results.push_back(RunSharded(clean, corrupted, slice_cells, score_rows,
                                   options, depth, batch, fanout, shards,
                                   budget_mb << 20));
    }
    results.push_back(RunSharded(clean, corrupted, slice_cells, score_rows,
                                 options, /*depth=*/0, batch, fanout,
                                 /*shards=*/0, /*budget_bytes=*/0));
  } else {
    results.push_back(
        RunInMemory(clean, corrupted, options, /*depth=*/-1, batch, fanout));
    for (const int depth : depths) {
      results.push_back(
          RunInMemory(clean, corrupted, options, depth, batch, fanout));
    }
  }

  // Bit-identity across the depth sweep: every pipelined config must match
  // the serial (depth 0) config exactly — whole loss trajectory, and in
  // every imputed cell (in sharded mode, the scored slice).
  const ConfigResult* serial = nullptr;
  for (const ConfigResult& r : results) {
    if (r.depth == 0) {
      serial = &r;
      break;
    }
  }
  bool bit_identical = true;
  for (const ConfigResult& r : results) {
    if (r.depth <= 0) continue;
    if (!SameLosses(serial->losses, r.losses)) bit_identical = false;
    if (!SameCells(serial->imputed, r.imputed)) {
      bit_identical = false;
    }
  }
  // Store invariance (sharded mode): the in-memory twin, last in the list,
  // against sharded depth 0.
  const ConfigResult& twin = results.back();
  const bool store_identical =
      sharded && SameLosses(serial->losses, twin.losses) &&
      SameCells(serial->imputed, twin.imputed);

  // epoch_speedup: full-graph vs serial sampled (in-memory mode only; a
  // sharded run has no full-graph config, so its JSON field is null).
  // pipeline_speedup: serial sampled vs the best pipelined depth.
  double epoch_speedup = 0.0;
  for (const ConfigResult& r : results) {
    if (r.depth < 0) {
      epoch_speedup = r.mean_epoch_seconds / serial->mean_epoch_seconds;
    }
  }
  char epoch_speedup_json[32] = "null";
  if (!sharded) {
    std::snprintf(epoch_speedup_json, sizeof(epoch_speedup_json), "%.4f",
                  epoch_speedup);
  }
  double pipeline_speedup = 0.0;
  int best_depth = 0;
  for (const ConfigResult& r : results) {
    if (r.depth <= 0) continue;
    const double s = serial->mean_epoch_seconds / r.mean_epoch_seconds;
    if (s > pipeline_speedup) {
      pipeline_speedup = s;
      best_depth = r.depth;
    }
  }

  std::printf("%-12s %6s %7s %7s %14s %11s %9s %9s %9s\n", "config",
              "depth", "epochs", "steps", "epoch s", "train s", "acc", "rmse",
              "produced");
  for (const ConfigResult& r : results) {
    std::printf("%-12s %6d %7d %7lld %14.6f %11.4f %9.4f %9.4f %9lld\n",
                r.name.c_str(), r.depth, r.epochs,
                static_cast<long long>(r.steps), r.mean_epoch_seconds,
                r.train_seconds, r.accuracy, r.rmse,
                static_cast<long long>(r.produced));
  }
  std::printf("%-12s %6s %7s %7s %14s %11s %9.4f %9.4f\n", "mode/mean", "",
              "", "", "", "", baseline.Accuracy(), baseline.Rmse());
  std::printf("scored: %lld categorical + %lld numerical injected cells in "
              "the first %lld rows\n",
              static_cast<long long>(baseline.categorical_cells),
              static_cast<long long>(baseline.numerical_cells),
              static_cast<long long>(score_rows));
  if (epoch_speedup > 0.0) {
    std::printf("\nper-epoch speedup (full / sampled d0): %.2fx\n",
                epoch_speedup);
  }
  if (pipeline_speedup > 0.0) {
    std::printf("pipeline speedup (d0 / d%d): %.2fx\n", best_depth,
                pipeline_speedup);
  }
  std::printf("bit-identical across depths: %s\n",
              bit_identical ? "yes" : "NO");
  if (sharded) {
    std::printf("in-memory twin identical to sharded d0: %s\n",
                store_identical ? "yes" : "NO");
  }

  char head[512];
  std::snprintf(head, sizeof(head),
                "{\n  \"dataset\": \"%s\",\n  \"rows\": %lld,\n"
                "  \"epochs\": %d,\n  \"max_samples_per_task\": %lld,\n"
                "  \"batch_size\": %d,\n  \"fanout\": %d,\n"
                "  \"sharded\": %s,\n  \"shards\": %d,\n"
                "  \"budget_mb\": %lld,\n  \"max_threads\": %d,\n"
                "  \"hardware_concurrency\": %d,\n  \"configs\": [\n",
                dataset, static_cast<long long>(clean.num_rows()), epochs,
                static_cast<long long>(samples), batch, fanout,
                sharded ? "true" : "false", shards,
                static_cast<long long>(sharded ? budget_mb : 0), max_threads,
                grimp::bench::HardwareConcurrency());
  char tail[512];
  std::snprintf(tail, sizeof(tail),
                "\n  ],\n  \"score_rows\": %lld,\n"
                "  \"baseline_mode_accuracy\": %.4f,\n"
                "  \"baseline_mean_rmse\": %.4f,\n"
                "  \"epoch_speedup\": %s,\n"
                "  \"pipeline_speedup\": %.4f,\n"
                "  \"pipeline_best_depth\": %d,\n"
                "  \"bit_identical\": %s,\n"
                "  \"store_identical\": %s\n}\n",
                static_cast<long long>(score_rows), baseline.Accuracy(),
                baseline.Rmse(), epoch_speedup_json, pipeline_speedup,
                best_depth, bit_identical ? "true" : "false",
                sharded ? (store_identical ? "true" : "false") : "null");
  std::string json = head;
  for (size_t i = 0; i < results.size(); ++i) {
    json += ToJson(results[i]);
    if (i + 1 < results.size()) json += ",\n";
  }
  json += tail;
  if (FILE* out = std::fopen("BENCH_train.json", "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("wrote BENCH_train.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_train.json\n");
    return 1;
  }

  if (!bit_identical) {
    std::fprintf(stderr,
                 "FAIL: pipelined configs diverged from the serial "
                 "baseline\n");
    return 1;
  }
  if (sharded && !store_identical) {
    std::fprintf(stderr,
                 "FAIL: the in-memory twin diverged from sharded depth 0\n");
    return 1;
  }
  if (!sharded && rows >= 10000 && epoch_speedup <= 1.0) {
    std::fprintf(stderr,
                 "FAIL: sampled epochs (%.6fs) did not beat full-graph "
                 "epochs at %lld rows\n",
                 serial->mean_epoch_seconds, static_cast<long long>(rows));
    return 1;
  }
  if (sharded && rows >= 1000000) {
    if (max_threads < 2) {
      std::printf("pipeline speedup gate skipped: 1 hardware thread, "
                  "nothing to overlap with\n");
    } else if (pipeline_speedup < 1.25) {
      std::fprintf(stderr,
                   "FAIL: best pipelined depth (d%d, %.2fx) below the 1.25x "
                   "gate over serial sampled epochs at %lld rows\n",
                   best_depth, pipeline_speedup,
                   static_cast<long long>(rows));
      return 1;
    }
  }
  return 0;
}
