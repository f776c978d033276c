#include "probes.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <unordered_set>

#include "common/binary_io.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/engine.h"
#include "data/temporal.h"  // RowStrings
#include "embedding/ngram_init.h"
#include "gnn/hetero_sage.h"
#include "graph/builder.h"
#include "graph/sampler.h"
#include "graph/shard.h"
#include "graph/store.h"
#include "load.h"
#include "net/net_server.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "stream/streaming_engine.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"

namespace grimpbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

int64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                        : 0;
}

// Shard node ranges of `store`, recovered through its public ShardOf.
std::vector<int64_t> ShardBoundaries(const grimp::GraphStore& store) {
  std::vector<int64_t> bounds{0};
  for (int64_t v = 1; v < store.num_nodes(); ++v) {
    if (store.ShardOf(v) != store.ShardOf(v - 1)) bounds.push_back(v);
  }
  bounds.push_back(store.num_nodes());
  return bounds;
}

std::vector<int32_t> DrawSeeds(const grimp::TableGraph& tg, int count,
                               grimp::Rng* rng) {
  const int64_t rows = static_cast<int64_t>(tg.rid_nodes.size());
  count = static_cast<int>(std::min<int64_t>(count, rows));
  std::unordered_set<int64_t> picked;
  std::vector<int32_t> seeds;
  while (static_cast<int>(seeds.size()) < count) {
    const int64_t r = static_cast<int64_t>(rng->Uniform(rows));
    if (picked.insert(r).second) {
      seeds.push_back(static_cast<int32_t>(tg.rid_nodes[static_cast<size_t>(r)]));
    }
  }
  return seeds;
}

bool BlocksEqual(const grimp::SampledSubgraph& a,
                 const grimp::SampledSubgraph& b) {
  if (a.input_nodes != b.input_nodes || a.output_nodes != b.output_nodes ||
      a.blocks.size() != b.blocks.size()) {
    return false;
  }
  for (size_t l = 0; l < a.blocks.size(); ++l) {
    const grimp::GraphBlock& x = a.blocks[l];
    const grimp::GraphBlock& y = b.blocks[l];
    if (x.num_src != y.num_src || x.num_dst != y.num_dst ||
        x.adjacency.size() != y.adjacency.size()) {
      return false;
    }
    for (size_t t = 0; t < x.adjacency.size(); ++t) {
      if (x.adjacency[t].offsets() != y.adjacency[t].offsets() ||
          x.adjacency[t].indices() != y.adjacency[t].indices()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

SamplerTimes CheckSamplerInvariance(const grimp::GraphStore& sharded,
                                    const grimp::GraphStore& in_memory,
                                    const grimp::TableGraph& tg,
                                    const std::vector<int>& fanouts,
                                    int batch_size, int batches,
                                    uint64_t seed, Outcome* out) {
  const grimp::NeighborSampler a(&sharded, fanouts);
  const grimp::NeighborSampler b(&in_memory, fanouts);
  grimp::Rng seed_rng(seed);
  SamplerTimes times;
  for (int batch = 0; batch < batches; ++batch) {
    const std::vector<int32_t> seeds = DrawSeeds(tg, batch_size, &seed_rng);
    grimp::Rng ra(seed + batch), rb(seed + batch);
    grimp::SampledSubgraph x, y;
    times.sharded_s.push_back(
        Timed("probe.graph.sample_sharded", [&] { a.Sample(seeds, &ra, &x); }));
    times.in_memory_s.push_back(
        Timed("probe.graph.sample_inmem", [&] { b.Sample(seeds, &rb, &y); }));
    if (!BlocksEqual(x, y)) {
      out->Fail("sharded and in-memory samplers drew different blocks");
      break;
    }
  }
  return times;
}

namespace {

void GraphProbes(const ProbeContext& ctx, Outcome* out) {
  const grimp::Table& table = *ctx.dirty;
  grimp::TableGraph tg;
  std::vector<double> build_s, init_s, create_s;
  for (int rep = 0; rep < 3; ++rep) {
    build_s.push_back(Timed("probe.graph.build", [&] {
      auto built = grimp::GraphBuilder().Build(table);
      if (!built.ok()) std::abort();
      tg = std::move(*built);
    }));
  }
  for (int rep = 0; rep < 3; ++rep) {
    init_s.push_back(Timed("probe.embedding.ngram_init", [&] {
      auto features =
          grimp::NgramFeatureInit().Init(table, tg, ctx.dim, ctx.seed);
      if (!features.ok()) std::abort();
    }));
  }
  out->Set("graph.build_s", Median(build_s), "s");
  out->Set("embedding.ngram_init_s", Median(init_s), "s");

  const grimp::InMemoryGraphStore mem(&tg.graph);
  grimp::ShardedGraphStore::Options options;
  options.max_resident_bytes = ctx.shard_budget_bytes > 0
                                   ? ctx.shard_budget_bytes
                                   : std::max<int64_t>(1, mem.total_bytes() / 8);
  std::unique_ptr<grimp::ShardedGraphStore> store;
  std::vector<std::string> dirs;
  for (int rep = 0; rep < 3; ++rep) {
    options.spill_dir = ctx.work_dir + "/probe_store_" + std::to_string(rep);
    ::mkdir(options.spill_dir.c_str(), 0755);
    dirs.push_back(options.spill_dir);
    create_s.push_back(Timed("probe.graph.store_create", [&] {
      auto created = grimp::ShardedGraphStore::Create(tg.graph, options);
      if (!created.ok()) std::abort();
      store = std::move(*created);
    }));
  }
  out->Set("graph.store_create_s", Median(create_s), "s");

  // Shard files at the store's shard sizes, written by the benchmark.
  const std::string shard_dir = ctx.work_dir + "/probe_shards";
  ::mkdir(shard_dir.c_str(), 0755);
  const std::vector<int64_t> bounds = ShardBoundaries(*store);
  std::vector<std::string> files;
  for (size_t s = 0; s + 1 < bounds.size(); ++s) {
    const std::string path = shard_dir + "/shard_" + std::to_string(s) + ".bin";
    if (!grimp::GraphShard::Slice(tg.graph, bounds[s], bounds[s + 1])
             .WriteTo(path)
             .ok()) {
      out->Fail("probe shard write failed: " + path);
      return;
    }
    files.push_back(path);
  }
  std::vector<double> verify_s, read_s;
  int64_t bytes = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& path : files) {
      bytes += FileBytes(path);
      verify_s.push_back(Timed("probe.common.checksum", [&] {
        if (!grimp::VerifyTrailingChecksum(path).ok()) std::abort();
      }));
      read_s.push_back(Timed("probe.graph.shard_read", [&] {
        if (!grimp::GraphShard::ReadFrom(path).ok()) std::abort();
      }));
    }
  }
  for (const std::string& path : files) std::remove(path.c_str());
  ::rmdir(shard_dir.c_str());
  auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  out->Set("common.checksum_mb_s",
           static_cast<double>(bytes) / kMiB / sum(verify_s), "MB/s");
  out->Set("graph.shard_read_ms", Median(read_s) * 1e3, "ms");
  out->Set("graph.shard_read_mb_s",
           static_cast<double>(bytes) / kMiB / sum(read_s), "MB/s");

  // Acquire: cycling through the shards under a 1/8 budget makes nearly
  // every acquire a load; re-acquiring a pinned shard is the warm path.
  grimp::MetricsRegistry& registry = grimp::MetricsRegistry::Global();
  grimp::Counter& fetches = registry.GetCounter("graph.shard.fetches");
  std::vector<double> cold_s;
  const int num_shards = store->num_shards();
  for (int i = 0; i < std::max(2 * num_shards, 16); ++i) {
    const int64_t before = fetches.value();
    const double t = Timed("probe.graph.acquire",
                           [&] { store->Acquire(i % num_shards).Release(); });
    if (fetches.value() > before) cold_s.push_back(t);
  }
  std::vector<double> warm_s;
  {
    grimp::ShardScope pin = store->Acquire(0);
    for (int round = 0; round < 20; ++round) {
      warm_s.push_back(Timed("probe.graph.acquire_warm", [&] {
        for (int i = 0; i < 100; ++i) store->Acquire(0).Release();
      }) / 100.0);
    }
  }
  out->Set("graph.acquire_cold_ms", Median(cold_s) * 1e3, "ms");
  out->Set("graph.acquire_warm_us", Median(warm_s) * 1e6, "us");

  // Sampling the same batches over both stores: the difference is the
  // store's cost. The blocks must agree (store invariance).
  const SamplerTimes sample = CheckSamplerInvariance(
      *store, mem, tg, ctx.fanouts, ctx.batch_size, 20, ctx.seed, out);
  out->Set("graph.sample_sharded_ms", Median(sample.sharded_s) * 1e3, "ms");
  out->Set("graph.sample_inmem_ms", Median(sample.in_memory_s) * 1e3, "ms");
  store.reset();
  for (const std::string& dir : dirs) ::rmdir(dir.c_str());

  // GEMM at the GNN layer shape: (nodes x 2*dim) * (2*dim x dim).
  grimp::Rng rng(ctx.seed);
  const int64_t m_rows = std::min<int64_t>(tg.graph.num_nodes(), 32768);
  const grimp::Tensor a = grimp::Tensor::RandomNormal(m_rows, 2 * ctx.dim, 1.0f, &rng);
  const grimp::Tensor w = grimp::Tensor::RandomNormal(2 * ctx.dim, ctx.dim, 1.0f, &rng);
  std::vector<double> gflops;
  for (int round = 0; round < 7; ++round) {
    constexpr int kCalls = 10;
    const double t = Timed("probe.tensor.gemm", [&] {
      for (int i = 0; i < kCalls; ++i) grimp::MatMul(a, w);
    });
    gflops.push_back(2.0 * static_cast<double>(m_rows) * 2 * ctx.dim *
                     ctx.dim * kCalls / t / 1e9);
  }
  out->Set("tensor.gemm_gflops", Median(gflops), "GFLOP/s");

  // Full-graph forward of a 2-layer heterogeneous GNN at the model's dims.
  grimp::HeteroGnn gnn(table.num_cols(), ctx.dim, ctx.dim, ctx.dim, 2, &rng);
  const grimp::Tensor features =
      grimp::Tensor::RandomNormal(tg.graph.num_nodes(), ctx.dim, 0.1f, &rng);
  std::vector<double> forward_s;
  for (int rep = 0; rep < 3; ++rep) {
    grimp::Tape tape;
    forward_s.push_back(Timed("probe.gnn.forward", [&] {
      gnn.Forward(&tape, tape.Constant(features), tg.graph);
    }));
  }
  out->Set("gnn.forward_ms", Median(forward_s) * 1e3, "ms");

  // Shares of the workload's op spent in shard reads, checksums and
  // sampling, from the per-call costs above and the op's own counts.
  const double op = ctx.op_seconds > 0 ? ctx.op_seconds : 1.0;
  const double sample_s = ctx.fetches_per_op > 0 ? Median(sample.sharded_s)
                                                 : Median(sample.in_memory_s);
  out->Set("share.shard_read", ctx.fetches_per_op * Median(read_s) / op,
           "fraction");
  out->Set("share.checksum", ctx.fetches_per_op * Median(verify_s) / op,
           "fraction");
  out->Set("share.sample", ctx.steps_per_op * sample_s / op, "fraction");
}

// Serving probes over a two-epoch model fitted on the workload's table.
void ServeProbes(const ProbeContext& ctx, Outcome* out) {
  const grimp::Table& clean = *ctx.clean;
  grimp::ModelRegistry registry;
  const std::string spec = "probe@1";
  {
    grimp::GrimpOptions options;
    options.dim = ctx.dim;
    options.max_epochs = 2;
    options.validation_fraction = 0.0;
    options.seed = ctx.seed;
    auto engine = std::make_unique<grimp::GrimpEngine>(options);
    const grimp::Table train = CopyRows(
        *ctx.dirty, 0, std::min<int64_t>(ctx.dirty->num_rows(), 1000));
    if (!engine->Fit(train).ok() ||
        !registry.Add("probe", "1", std::move(engine)).ok()) {
      out->Fail("probe engine fit failed");
      return;
    }
  }
  auto handle = registry.Acquire(spec);
  if (!handle.ok()) {
    out->Fail("probe model not found: " + spec);
    return;
  }
  const grimp::GrimpEngine& engine = handle->engine();
  const int64_t rows = clean.num_rows();
  const int cols = clean.num_cols();
  auto line_for = [&](int64_t k) {
    return RequestLine(clean, (k * 7919) % rows, static_cast<int>(k % cols));
  };

  // TransformMany on one request row.
  std::vector<grimp::Table> requests;
  for (int64_t k = 0; k < 64; ++k) {
    auto fields = grimp::ParseFlatJson(line_for(k));
    auto row = grimp::JsonFieldsToRow(engine.schema(), *fields);
    if (!row.ok()) {
      out->Fail("probe request row: " + row.status().ToString());
      return;
    }
    requests.push_back(std::move(*row));
  }
  std::vector<double> transform_s;
  for (int i = 0; i < 1200; ++i) {
    grimp::Table t = requests[static_cast<size_t>(i % 64)];
    grimp::Table* p = &t;
    transform_s.push_back(Timed("probe.core.transform_one", [&] {
      if (!engine.TransformMany(std::span<grimp::Table* const>(&p, 1)).ok()) {
        std::abort();
      }
    }));
  }
  if (!TailReportable(transform_s.size(), 0.99)) {
    out->Fail("too few TransformMany samples for a p99");
  }
  out->Set("core.transform_one_p50_us", Median(transform_s) * 1e6, "us");
  out->Set("core.transform_one_p99_us", Quantile(transform_s, 0.99) * 1e6,
           "us");

  // In-process request handling: never-seen keys miss, replays hit.
  grimp::ServerOptions server_options;
  server_options.default_model = spec;
  std::vector<double> miss_s, hit_s;
  {
    grimp::ImputationServer server(&registry, server_options);
    std::vector<std::string> lines;
    for (int64_t k = 0; k < 300; ++k) lines.push_back(line_for(100000 + k));
    for (const std::string& line : lines) {
      miss_s.push_back(Timed("probe.serve.handle_miss",
                             [&] { server.HandleRequestLine(line); }));
    }
    for (int rep = 0; rep < 10; ++rep) {
      for (size_t k = 0; k < 100; ++k) {
        hit_s.push_back(Timed("probe.serve.handle_hit",
                              [&] { server.HandleRequestLine(lines[k]); }));
      }
    }
  }
  out->Set("serve.handle_miss_us", Median(miss_s) * 1e6, "us");
  out->Set("serve.handle_hit_us", Median(hit_s) * 1e6, "us");

  // The public wire codec, timed in chunks of 100 calls.
  const std::string line = line_for(1);
  std::vector<double> parse_s, encode_s;
  for (int round = 0; round < 20; ++round) {
    parse_s.push_back(Timed("probe.serve.wire_parse", [&] {
      for (int i = 0; i < 100; ++i) {
        auto fields = grimp::ParseFlatJson(line);
        if (!grimp::JsonFieldsToRow(engine.schema(), *fields).ok()) std::abort();
      }
    }) / 100.0);
    encode_s.push_back(Timed("probe.serve.wire_encode", [&] {
      for (int i = 0; i < 100; ++i) grimp::RowToJson(requests[0], 0);
    }) / 100.0);
  }
  out->Set("serve.wire_parse_us", Median(parse_s) * 1e6, "us");
  out->Set("serve.wire_encode_us", Median(encode_s) * 1e6, "us");

  // TCP versus in-process at the same open-loop rate and key sequence,
  // each on a fresh server; and a raw echo for the loopback floor.
  constexpr double kRate = 1000.0;  // requests per second
  auto request = [&](int64_t i) { return line_for(i % 512); };
  auto response = [](int64_t, const std::string& l) { return IsOkResponse(l); };
  LoadResult tcp, in_process, echo;
  const CounterDelta serving({"serve.cache.hits", "serve.cache.misses",
                              "serve.batches", "serve.completed"});
  {
    grimp::ImputationServer server(&registry, server_options);
    grimp::NetServer net(&server, grimp::NetServerOptions{});
    if (!net.Start().ok()) {
      out->Fail("probe net server did not start");
      return;
    }
    Span span("probe.net.tcp");
    tcp = RunTcpLoad(net.port(), kRate, 1.0, request, response);
    net.Stop();
  }
  const double cache_hits = static_cast<double>(serving.Get("serve.cache.hits"));
  const double lookups =
      cache_hits + static_cast<double>(serving.Get("serve.cache.misses"));
  const double batches = static_cast<double>(serving.Get("serve.batches"));
  out->Set("serve.cache_hit_ratio", lookups > 0 ? cache_hits / lookups : 0.0,
           "ratio");
  out->Set("serve.batch_size_mean",
           batches > 0 ? static_cast<double>(serving.Get("serve.completed")) /
                             batches
                       : 0.0,
           "count");
  {
    grimp::ImputationServer server(&registry, server_options);
    Span span("probe.net.in_process");
    in_process = RunInProcessLoad(&server, kRate, 1.0, request, response);
  }
  {
    EchoServer server;
    if (!server.Start()) {
      out->Fail("echo server did not start");
      return;
    }
    Span span("probe.net.echo");
    echo = RunTcpLoad(server.port(), kRate, 1.0, request,
                      [](int64_t, const std::string&) { return true; });
    server.Stop();
  }
  if (tcp.failed > 0 || in_process.failed > 0 || echo.failed > 0) {
    out->Fail("serving probe requests failed");
  }
  if (!TailReportable(tcp.lateness_ms.size(), 0.99)) {
    out->Fail("too few generator samples for a p99");
  }
  out->Set("net.overhead_us",
           (Median(tcp.latency_ms) - Median(in_process.latency_ms)) * 1e3,
           "us");
  out->Set("net.loopback_floor_us", Median(echo.latency_ms) * 1e3, "us");
  out->Set("load.lateness_ms", Quantile(tcp.lateness_ms, 0.99), "ms");
}

// A short stream over the workload's table: a two-epoch sharded fit on a
// prefix, then ingest -> window cycles over the sharded live graph.
void StreamProbe(const ProbeContext& ctx, Outcome* out) {
  constexpr int64_t kSeedRows = 400;
  constexpr int64_t kBatchRows = 32;
  constexpr int kBatches = 8;
  const grimp::Table& table = *ctx.dirty;
  if (table.num_rows() < kSeedRows + kBatchRows * kBatches) {
    out->Fail("table too small for the stream probe");
    return;
  }
  grimp::Table seed = CopyRows(table, 0, kSeedRows);
  const grimp::TableGraph seed_graph = grimp::BuildTableGraph(seed);
  const int64_t seed_bytes =
      grimp::InMemoryGraphStore(&seed_graph.graph).total_bytes();
  grimp::GrimpOptions options;
  options.dim = ctx.dim;
  options.max_epochs = 2;
  options.validation_fraction = 0.0;
  options.seed = ctx.seed;
  options.train.mode = grimp::TrainMode::kSampled;
  options.train.fanouts = ctx.fanouts;
  options.graph.shard_mode = grimp::ShardMode::kSharded;
  options.graph.max_resident_bytes = std::max<int64_t>(1, seed_bytes / 4);
  options.graph.spill_dir = ctx.work_dir + "/probe_stream";
  ::mkdir(options.graph.spill_dir.c_str(), 0755);
  auto engine = std::make_unique<grimp::GrimpEngine>(options);
  if (!engine->Fit(seed).ok()) {
    out->Fail("stream probe fit failed");
    return;
  }
  grimp::StreamingOptions stream_options;
  stream_options.window_rows = kBatchRows;
  auto streaming = grimp::StreamingEngine::Create(std::move(engine),
                                                  std::move(seed),
                                                  stream_options);
  if (!streaming.ok()) {
    out->Fail("stream probe: " + streaming.status().ToString());
    return;
  }
  const CounterDelta stream({"stream.flush.edges", "stream.ingest.batches"});
  grimp::Counter& fetches =
      grimp::MetricsRegistry::Global().GetCounter("graph.shard.fetches");
  int64_t window_fetches = 0;
  for (int b = 0; b < kBatches; ++b) {
    grimp::StreamBatch batch;
    for (int64_t r = 0; r < kBatchRows; ++r) {
      batch.rows.push_back(
          grimp::RowStrings(table, kSeedRows + b * kBatchRows + r));
    }
    bool ok = false;
    Timed("probe.stream.ingest",
          [&] { ok = (*streaming)->IngestBatch(batch).ok(); });
    const int64_t before = fetches.value();
    Timed("probe.stream.window",
          [&] { ok = ok && (*streaming)->ImputeWindow().ok(); });
    window_fetches += fetches.value() - before;
    if (!ok) {
      out->Fail("stream probe ingest/window failed");
      return;
    }
  }
  streaming->reset();
  ::rmdir(options.graph.spill_dir.c_str());
  out->Set("stream.new_edges_per_batch",
           static_cast<double>(stream.Get("stream.flush.edges")) /
               static_cast<double>(stream.Get("stream.ingest.batches")),
           "count");
  out->Set("stream.window_shard_fetches",
           static_cast<double>(window_fetches) / kBatches, "count");
}

}  // namespace

void RunLayerProbes(const ProbeContext& ctx, Outcome* out) {
  Span span("probes");
  GraphProbes(ctx, out);
  ServeProbes(ctx, out);
  StreamProbe(ctx, out);
}

std::vector<std::string> ShardCounterNames() {
  return {"graph.shard.fetches", "graph.shard.hits", "graph.shard.evictions"};
}

void SetShardCounters(const CounterDelta& d, double steps, Outcome* out) {
  const double fetches = static_cast<double>(d.Get("graph.shard.fetches"));
  const double hits = static_cast<double>(d.Get("graph.shard.hits"));
  out->Set("graph.shard_fetches_per_step", steps > 0 ? fetches / steps : 0.0,
           "count");
  out->Set("graph.shard_hit_ratio",
           hits + fetches > 0 ? hits / (hits + fetches) : 0.0, "ratio");
  out->Set("graph.shard_evictions",
           static_cast<double>(d.Get("graph.shard.evictions")), "count");
}

}  // namespace grimpbench
