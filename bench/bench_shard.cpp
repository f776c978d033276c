// Out-of-core graph storage benchmark: trains GRIMP end-to-end in sampled
// mode on the multi-million-row "scale" replica, once per worker-thread
// count over a ShardedGraphStore with a fixed resident budget, then once
// over the in-memory store as the baseline. Prints a per-config table and
// writes machine-readable results to BENCH_shard.json (cwd).
//
// The run fails (exit 1) if any sharded config's peak resident shard bytes
// (gauge graph.shard.resident_high_water_bytes) exceed the budget, or if
// the budget does not deliver at least a 4x reduction versus the full CSR
// footprint whenever the graph is at least 4 budgets large. peak_rss_mb is
// getrusage's process-lifetime high water mark (monotone across configs;
// the sharded configs run first so the baseline cannot inflate them).
//
//   bench_shard [--rows=N] [--epochs=N] [--samples=N] [--budget-mb=N]
//               [--seed=N]

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/metrics.h"
#include "core/engine.h"
#include "data/datasets.h"

namespace {

using grimp::GrimpEngine;
using grimp::GrimpOptions;
using grimp::MetricsRegistry;
using grimp::ShardMode;
using grimp::Table;
using grimp::TrainMode;

struct ConfigResult {
  std::string name;
  int threads = 0;
  int64_t budget_bytes = 0;  // 0 == in-memory baseline
  int epochs = 0;
  double mean_epoch_seconds = 0.0;
  double fit_seconds = 0.0;
  int64_t graph_bytes = 0;      // full CSR footprint (all shards)
  int64_t high_water_bytes = 0;  // peak resident shard bytes
  int64_t shards = 0;
  int64_t fetches = 0;
  int64_t evictions = 0;
  int64_t hits = 0;
  double peak_rss_mb = 0.0;
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

ConfigResult RunConfig(const Table& table, const std::string& name,
                       int threads, int64_t budget_bytes, int epochs,
                       int64_t samples, uint64_t seed) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.Reset();  // per-config graph.shard.* numbers

  GrimpOptions options;
  options.dim = 16;
  options.shared_hidden = 32;
  options.max_epochs = epochs;
  options.seed = seed;
  options.num_threads = threads;
  options.max_samples_per_task = samples;
  options.validation_fraction = 0.0;  // fixed epoch count, no early stop
  options.train.mode = TrainMode::kSampled;
  options.train.batch_size = 256;
  options.train.fanouts = {3, 3};
  if (budget_bytes > 0) {
    options.graph.shard_mode = ShardMode::kSharded;
    options.graph.max_resident_bytes = budget_bytes;
  }

  std::vector<double> epoch_seconds;
  options.callbacks.on_epoch_end = [&epoch_seconds](
                                       const grimp::EpochStats& stats) {
    epoch_seconds.push_back(stats.seconds);
    return true;
  };

  GrimpEngine engine(options);
  const auto status = engine.Fit(table);
  if (!status.ok()) {
    std::fprintf(stderr, "bench_shard: config %s fit failed: %s\n",
                 name.c_str(), status.ToString().c_str());
    std::exit(1);
  }

  ConfigResult result;
  result.name = name;
  result.threads = threads;
  result.budget_bytes = budget_bytes;
  result.epochs = static_cast<int>(epoch_seconds.size());
  result.fit_seconds = engine.summary().train_seconds;
  const size_t skip = epoch_seconds.size() > 1 ? 1 : 0;
  const double sum = std::accumulate(epoch_seconds.begin() + skip,
                                     epoch_seconds.end(), 0.0);
  result.mean_epoch_seconds =
      sum / static_cast<double>(epoch_seconds.size() - skip);
  result.graph_bytes =
      static_cast<int64_t>(metrics.GetGauge("graph.shard.total_bytes").value());
  result.high_water_bytes = static_cast<int64_t>(
      metrics.GetGauge("graph.shard.resident_high_water_bytes").value());
  result.shards =
      static_cast<int64_t>(metrics.GetGauge("graph.shard.count").value());
  result.fetches = metrics.GetCounter("graph.shard.fetches").value();
  result.evictions = metrics.GetCounter("graph.shard.evictions").value();
  result.hits = metrics.GetCounter("graph.shard.hits").value();
  result.peak_rss_mb = PeakRssMb();
  return result;
}

std::string ToJson(const ConfigResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"config\": \"%s\", \"threads\": %d, \"budget_mb\": %lld, "
      "\"epochs\": %d, \"mean_epoch_seconds\": %.6f, "
      "\"fit_seconds\": %.4f, \"graph_mb\": %.1f, "
      "\"high_water_mb\": %.1f, \"shards\": %lld, \"fetches\": %lld, "
      "\"evictions\": %lld, \"hits\": %lld, \"peak_rss_mb\": %.1f}",
      r.name.c_str(), r.threads,
      static_cast<long long>(r.budget_bytes >> 20), r.epochs,
      r.mean_epoch_seconds, r.fit_seconds,
      static_cast<double>(r.graph_bytes) / (1 << 20),
      static_cast<double>(r.high_water_bytes) / (1 << 20),
      static_cast<long long>(r.shards), static_cast<long long>(r.fetches),
      static_cast<long long>(r.evictions), static_cast<long long>(r.hits),
      r.peak_rss_mb);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t rows = 5000000;
  int epochs = 2;
  int64_t samples = 4096;
  int64_t budget_mb = 64;
  uint64_t seed = 21;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      rows = std::atoll(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--epochs=", 9) == 0) {
      epochs = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--samples=", 10) == 0) {
      samples = std::atoll(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--budget-mb=", 12) == 0) {
      budget_mb = std::atoll(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i] + 7));
    } else {
      std::fprintf(stderr, "usage: bench_shard [--rows=N] [--epochs=N] "
                           "[--samples=N] [--budget-mb=N] [--seed=N]\n");
      return 2;
    }
  }
  const int max_threads = grimp::bench::ResolveMaxThreads();
  const int64_t budget_bytes = budget_mb << 20;

  auto table_or = grimp::GenerateDatasetByName("scale", /*seed=*/7, rows);
  if (!table_or.ok()) {
    std::fprintf(stderr, "bench_shard: %s\n",
                 table_or.status().ToString().c_str());
    return 1;
  }
  const Table& table = *table_or;
  std::printf("sharding benchmark: scale replica, %lld rows, %d epochs, "
              "%lld samples/task, %lld MB budget, up to %d threads\n\n",
              static_cast<long long>(table.num_rows()), epochs,
              static_cast<long long>(samples),
              static_cast<long long>(budget_mb), max_threads);

  std::vector<int> thread_counts{1, 2, 4};
  thread_counts.erase(
      std::remove_if(thread_counts.begin(), thread_counts.end(),
                     [&](int t) { return t > max_threads; }),
      thread_counts.end());
  if (thread_counts.empty()) thread_counts.push_back(max_threads);

  // Sharded sweep first (so the in-memory baseline's larger footprint
  // cannot inflate their process-lifetime RSS readings), baseline last.
  std::vector<ConfigResult> results;
  for (int t : thread_counts) {
    results.push_back(RunConfig(table, "sharded_t" + std::to_string(t), t,
                                budget_bytes, epochs, samples, seed));
  }
  results.push_back(RunConfig(table, "in_memory", max_threads,
                              /*budget_bytes=*/0, epochs, samples, seed));

  std::printf("%-12s %7s %9s %14s %11s %10s %12s %8s %9s %10s\n", "config",
              "threads", "budget", "epoch s", "fit s", "graph MB",
              "resident MB", "shards", "evicts", "rss MB");
  for (const ConfigResult& r : results) {
    std::printf("%-12s %7d %8lldM %14.4f %11.2f %10.1f %12.1f %8lld %9lld "
                "%10.1f\n",
                r.name.c_str(), r.threads,
                static_cast<long long>(r.budget_bytes >> 20),
                r.mean_epoch_seconds, r.fit_seconds,
                static_cast<double>(r.graph_bytes) / (1 << 20),
                static_cast<double>(r.high_water_bytes) / (1 << 20),
                static_cast<long long>(r.shards),
                static_cast<long long>(r.evictions), r.peak_rss_mb);
  }

  std::string json =
      "{\n  \"dataset\": \"scale\",\n  \"rows\": " +
      std::to_string(table.num_rows()) +
      ",\n  \"epochs\": " + std::to_string(epochs) +
      ",\n  \"max_samples_per_task\": " + std::to_string(samples) +
      ",\n  \"budget_mb\": " + std::to_string(budget_mb) +
      ",\n  \"max_threads\": " + std::to_string(max_threads) +
      ",\n  \"hardware_concurrency\": " +
      std::to_string(grimp::bench::HardwareConcurrency()) +
      ",\n  \"configs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    json += ToJson(results[i]);
    json += i + 1 < results.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  if (FILE* out = std::fopen("BENCH_shard.json", "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("\nwrote BENCH_shard.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_shard.json\n");
    return 1;
  }

  for (const ConfigResult& r : results) {
    if (r.budget_bytes == 0) continue;
    if (r.high_water_bytes <= 0 || r.high_water_bytes > r.budget_bytes) {
      std::fprintf(stderr,
                   "FAIL: config %s peak resident shard bytes %lld outside "
                   "budget %lld\n",
                   r.name.c_str(),
                   static_cast<long long>(r.high_water_bytes),
                   static_cast<long long>(r.budget_bytes));
      return 1;
    }
    if (r.graph_bytes >= 4 * r.budget_bytes &&
        r.high_water_bytes * 4 > r.graph_bytes) {
      std::fprintf(stderr,
                   "FAIL: config %s resident high water %lld is not 4x "
                   "below the %lld-byte full CSR\n",
                   r.name.c_str(),
                   static_cast<long long>(r.high_water_bytes),
                   static_cast<long long>(r.graph_bytes));
      return 1;
    }
  }
  return 0;
}
