#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/engine.h"
#include "serve/cache.h"
#include "serve/model_registry.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "transform_copy.h"

namespace grimp {
namespace {

// --- Shared fixtures --------------------------------------------------------

Table TinyTable() {
  Schema schema({{"color", AttrType::kCategorical},
                 {"size", AttrType::kCategorical},
                 {"price", AttrType::kNumerical}});
  Table t(schema);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(t.AppendRow({"red", "small", "1"}).ok());
    EXPECT_TRUE(t.AppendRow({"blue", "large", "9"}).ok());
  }
  return t;
}

// One tuple with a missing cell, schema-compatible with TinyTable.
Table DirtyRow(const std::string& color, const std::string& price) {
  Table t(TinyTable().schema());
  EXPECT_TRUE(t.AppendRow({color, "", price}).ok());
  return t;
}

std::unique_ptr<GrimpEngine> FitTinyEngine(uint64_t seed = 42) {
  GrimpOptions options;
  options.dim = 8;
  options.shared_hidden = 16;
  options.task_hidden = 16;
  options.max_epochs = 8;
  options.validation_fraction = 0.0;
  options.seed = seed;
  auto engine = std::make_unique<GrimpEngine>(options);
  EXPECT_TRUE(engine->Fit(TinyTable()).ok());
  return engine;
}

// Result<T>::operator* on a temporary binds the const& overload, which
// would copy the move-only handle; go through a named lvalue instead.
ModelHandle MustAcquire(ModelRegistry& registry, const std::string& spec) {
  auto handle = registry.Acquire(spec);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  return std::move(*handle);
}

void ExpectSameRow(const Table& a, int64_t ra, const Table& b, int64_t rb) {
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (int c = 0; c < a.num_cols(); ++c) {
    EXPECT_EQ(a.column(c).StringAt(ra), b.column(c).StringAt(rb))
        << "col " << c;
  }
}

// --- Wire codec -------------------------------------------------------------

TEST(WireTest, ParseFlatJsonBasics) {
  auto fields =
      ParseFlatJson(R"({"a":"x","b":null,"c":3.5,"d":true,"e":-2e3})");
  ASSERT_TRUE(fields.ok()) << fields.status().ToString();
  EXPECT_EQ(fields->at("a"), "x");
  EXPECT_EQ(fields->at("b"), "");
  EXPECT_EQ(fields->at("c"), "3.5");
  EXPECT_EQ(fields->at("d"), "true");
  EXPECT_EQ(fields->at("e"), "-2e3");
  EXPECT_TRUE(ParseFlatJson("{}")->empty());
  EXPECT_TRUE(ParseFlatJson("  { \"k\" : \"v\" }  ").ok());
}

TEST(WireTest, ParseFlatJsonEscapes) {
  auto fields = ParseFlatJson(R"({"k":"a\"b\\c\ndA"})");
  ASSERT_TRUE(fields.ok()) << fields.status().ToString();
  EXPECT_EQ(fields->at("k"), "a\"b\\c\ndA");
}

TEST(WireTest, ParseFlatJsonRejectsMalformed) {
  EXPECT_FALSE(ParseFlatJson("").ok());
  EXPECT_FALSE(ParseFlatJson("[1]").ok());
  EXPECT_FALSE(ParseFlatJson(R"({"a":{"b":1}})").ok());   // nested object
  EXPECT_FALSE(ParseFlatJson(R"({"a":[1]})").ok());       // array
  EXPECT_FALSE(ParseFlatJson(R"({"a":bogus})").ok());     // bare word
  EXPECT_FALSE(ParseFlatJson(R"({"a":"x"} junk)").ok());  // trailing
  EXPECT_FALSE(ParseFlatJson(R"({"a":"x","a":"y"})").ok());  // dup key
  EXPECT_FALSE(ParseFlatJson(R"({"a":"unterminated)").ok());
}

TEST(WireTest, EscapeJsonRoundTripsThroughParser) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t";
  auto fields = ParseFlatJson("{\"k\":\"" + EscapeJson(nasty) + "\"}");
  ASSERT_TRUE(fields.ok()) << fields.status().ToString();
  EXPECT_EQ(fields->at("k"), nasty);
}

TEST(WireTest, JsonFieldsToRowBuildsSchemaRow) {
  const Schema schema = TinyTable().schema();
  auto table =
      JsonFieldsToRow(schema, {{"color", "red"}, {"price", "2.5"}});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 1);
  EXPECT_EQ(table->column(0).StringAt(0), "red");
  EXPECT_TRUE(table->IsMissing(0, 1));  // absent field -> missing
  EXPECT_EQ(table->column(2).NumAt(0), 2.5);

  auto bad = JsonFieldsToRow(schema, {{"colour", "red"}});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("colour"), std::string::npos);
}

TEST(WireTest, RowSerialization) {
  Table row = DirtyRow("red", "1");
  EXPECT_EQ(RowToJson(row, 0),
            R"({"color":"red","size":null,"price":"1.00000000"})");
  EXPECT_EQ(RowToCsvLine(row, 0), "red,,1.00000000");
}

// --- Model registry ---------------------------------------------------------

TEST(ModelRegistryTest, AcquireResolvesServingAndPinnedVersions) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("m", "1", FitTinyEngine(1)).ok());
  ASSERT_TRUE(registry.Add("m", "2", FitTinyEngine(2)).ok());
  EXPECT_EQ(registry.size(), 2);

  auto serving = registry.Acquire("m");
  ASSERT_TRUE(serving.ok());
  EXPECT_EQ(serving->version(), "2");  // newest registration serves

  auto pinned = registry.Acquire("m@1");
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->version(), "1");

  EXPECT_TRUE(registry.Acquire("nope").status().IsNotFound());
  EXPECT_TRUE(registry.Acquire("m@9").status().IsNotFound());
  EXPECT_TRUE(registry.Add("m", "2", FitTinyEngine(3)).IsAlreadyExists());
}

TEST(ModelRegistryTest, UnloadDrainsLiveHandles) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("m", "1", FitTinyEngine()).ok());

  // A live handle blocks the drain until released.
  auto handle = registry.Acquire("m");
  ASSERT_TRUE(handle.ok());
  Status timed_out = registry.Unload("m", "1", 0.05);
  EXPECT_TRUE(timed_out.IsDeadlineExceeded()) << timed_out.ToString();
  // The version is gone from the registry either way...
  EXPECT_TRUE(registry.Acquire("m").status().IsNotFound());
  // ...but the straggler handle still works until released.
  EXPECT_TRUE(handle->engine().fitted());
  handle->Release();
}

TEST(ModelRegistryTest, HotSwapDrainsOldVersionAfterRelease) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("m", "1", FitTinyEngine(1)).ok());
  auto in_flight = registry.Acquire("m");
  ASSERT_TRUE(in_flight.ok());

  // Swap: new version starts serving immediately.
  ASSERT_TRUE(registry.Add("m", "2", FitTinyEngine(2)).ok());
  EXPECT_EQ(registry.Acquire("m")->version(), "2");

  // Drain of v1 completes once the in-flight handle lets go (released from
  // another thread while Unload blocks).
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    in_flight->Release();
  });
  EXPECT_TRUE(registry.Unload("m", "1", 5.0).ok());
  releaser.join();
  EXPECT_EQ(registry.size(), 1);
}

// --- Scheduler failure paths ------------------------------------------------

TEST(SchedulerTest, QueueFullRejectsWithUnavailable) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("m", "1", FitTinyEngine()).ok());

  SchedulerOptions options;
  options.max_queue = 1;
  options.max_batch = 8;
  // The worker lingers for a full batch, so the first request stays queued
  // while the second hits the bound.
  options.batch_linger_seconds = 0.5;
  RequestScheduler scheduler(options);

  ImputeRequest first;
  first.model = MustAcquire(registry, "m");
  first.table = DirtyRow("red", "1");
  auto first_future = scheduler.Submit(std::move(first));

  ImputeRequest second;
  second.model = MustAcquire(registry, "m");
  second.table = DirtyRow("blue", "9");
  Result<Table> rejected = scheduler.Impute(std::move(second));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable()) << rejected.status().ToString();
  EXPECT_NE(rejected.status().message().find("queue is full"),
            std::string::npos);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter("serve.rejected.queue_full")
                .value() > 0,
            true);

  // The admitted request still completes normally.
  EXPECT_TRUE(first_future.get().ok());
}

TEST(SchedulerTest, ExpiredDeadlineRejectedInsteadOfExecuted) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("m", "1", FitTinyEngine()).ok());

  SchedulerOptions options;
  options.max_batch = 8;
  options.batch_linger_seconds = 0.2;  // requests wait in queue ~200ms
  RequestScheduler scheduler(options);

  ImputeRequest patient;
  patient.model = MustAcquire(registry, "m");
  patient.table = DirtyRow("red", "1");
  auto patient_future = scheduler.Submit(std::move(patient));

  ImputeRequest hurried;
  hurried.model = MustAcquire(registry, "m");
  hurried.table = DirtyRow("blue", "9");
  hurried.deadline_seconds = 0.01;  // expires during the linger window
  Result<Table> expired = scheduler.Impute(std::move(hurried));
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsDeadlineExceeded())
      << expired.status().ToString();
  EXPECT_NE(expired.status().message().find("deadline expired"),
            std::string::npos);

  // The deadline-free batch-mate is unaffected.
  EXPECT_TRUE(patient_future.get().ok());
}

TEST(SchedulerTest, SchemaMismatchRejectedWithoutPoisoningBatch) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("m", "1", FitTinyEngine()).ok());
  auto engine_handle = registry.Acquire("m");
  ASSERT_TRUE(engine_handle.ok());
  const GrimpEngine& engine = engine_handle->engine();

  SchedulerOptions options;
  options.max_batch = 8;
  options.batch_linger_seconds = 0.2;  // good requests share one batch
  RequestScheduler scheduler(options);

  ImputeRequest good1;
  good1.model = MustAcquire(registry, "m");
  good1.table = DirtyRow("red", "1");
  auto f1 = scheduler.Submit(std::move(good1));

  Table wrong_schema(Schema({{"totally", AttrType::kCategorical},
                             {"different", AttrType::kCategorical}}));
  ASSERT_TRUE(wrong_schema.AppendRow({"a", "b"}).ok());
  ImputeRequest bad;
  bad.model = MustAcquire(registry, "m");
  bad.table = std::move(wrong_schema);
  Result<Table> rejected = scheduler.Impute(std::move(bad));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsFailedPrecondition())
      << rejected.status().ToString();

  ImputeRequest good2;
  good2.model = MustAcquire(registry, "m");
  good2.table = DirtyRow("blue", "9");
  auto f2 = scheduler.Submit(std::move(good2));

  // Both good requests impute exactly what a direct offline call does.
  auto r1 = f1.get();
  auto r2 = f2.get();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  auto direct1 = TransformCopy(engine, DirtyRow("red", "1"));
  auto direct2 = TransformCopy(engine, DirtyRow("blue", "9"));
  ASSERT_TRUE(direct1.ok() && direct2.ok());
  ExpectSameRow(*r1, 0, *direct1, 0);
  ExpectSameRow(*r2, 0, *direct2, 0);
}

TEST(SchedulerTest, ShutdownDrainsQueuedRequestsThenRejectsNew) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("m", "1", FitTinyEngine()).ok());

  SchedulerOptions options;
  options.max_batch = 4;
  RequestScheduler scheduler(options);

  std::vector<std::future<Result<Table>>> futures;
  for (int i = 0; i < 6; ++i) {
    ImputeRequest request;
    request.model = MustAcquire(registry, "m");
    request.table = DirtyRow(i % 2 == 0 ? "red" : "blue", "1");
    futures.push_back(scheduler.Submit(std::move(request)));
  }
  scheduler.Shutdown();  // must drain, not drop
  for (auto& future : futures) {
    Result<Table> result = future.get();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }

  ImputeRequest late;
  late.model = MustAcquire(registry, "m");
  late.table = DirtyRow("red", "1");
  Result<Table> rejected = scheduler.Impute(std::move(late));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable());
}

TEST(SchedulerTest, MicroBatchedResultsMatchSoloTransforms) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("m", "1", FitTinyEngine()).ok());
  auto engine_handle = registry.Acquire("m");
  const GrimpEngine& engine = engine_handle->engine();

  SchedulerOptions options;
  options.max_batch = 8;
  options.batch_linger_seconds = 0.2;
  RequestScheduler scheduler(options);

  const int64_t batches_before =
      MetricsRegistry::Global().GetCounter("serve.batches").value();
  std::vector<std::future<Result<Table>>> futures;
  std::vector<Table> inputs;
  for (int i = 0; i < 5; ++i) {
    inputs.push_back(DirtyRow(i % 2 == 0 ? "red" : "blue",
                              i % 2 == 0 ? "1" : "9"));
    ImputeRequest request;
    request.model = MustAcquire(registry, "m");
    request.table = inputs.back();
    futures.push_back(scheduler.Submit(std::move(request)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<Table> served = futures[i].get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    auto direct = TransformCopy(engine, inputs[i]);
    ASSERT_TRUE(direct.ok());
    ExpectSameRow(*served, 0, *direct, 0);
  }
  // The linger window really did fuse requests: fewer batches than
  // requests ran, and the batch-size histogram saw multi-request batches.
  const int64_t batches =
      MetricsRegistry::Global().GetCounter("serve.batches").value() -
      batches_before;
  EXPECT_GE(batches, 1);
  EXPECT_LT(batches, 5);
  EXPECT_GT(MetricsRegistry::Global().GetHistogram("serve.batch_size").max(),
            1.0);
}

// --- Server / loopback end-to-end -------------------------------------------

TEST(ServerTest, LoopbackServedRowIsBitIdenticalToOfflineTransform) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("demo", "1", FitTinyEngine()).ok());
  auto handle = registry.Acquire("demo");
  const GrimpEngine& engine = handle->engine();

  ServerOptions options;
  options.scheduler.max_batch = 4;
  ImputationServer server(&registry, options);
  LoopbackClient client(&server);

  const Table dirty = DirtyRow("red", "1");
  auto direct = TransformCopy(engine, dirty);
  ASSERT_TRUE(direct.ok());

  const std::string response =
      client.Call(R"({"model":"demo","color":"red","size":null,"price":"1"})");
  const std::string expected =
      std::string(R"({"ok":true,"model":"demo@1","row":)") +
      RowToJson(*direct, 0) + "}";
  EXPECT_EQ(response, expected);
}

TEST(ServerTest, ConcurrentLoopbackClientsAllGetCorrectAnswers) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("demo", "1", FitTinyEngine()).ok());
  auto handle = registry.Acquire("demo");
  const GrimpEngine& engine = handle->engine();

  ServerOptions options;
  options.scheduler.max_batch = 8;
  ImputationServer server(&registry, options);

  auto direct_red = TransformCopy(engine, DirtyRow("red", "1"));
  auto direct_blue = TransformCopy(engine, DirtyRow("blue", "9"));
  ASSERT_TRUE(direct_red.ok() && direct_blue.ok());
  const std::string want_red =
      std::string(R"({"ok":true,"model":"demo@1","row":)") +
      RowToJson(*direct_red, 0) + "}";
  const std::string want_blue =
      std::string(R"({"ok":true,"model":"demo@1","row":)") +
      RowToJson(*direct_blue, 0) + "}";

  constexpr int kClients = 8;
  constexpr int kCallsPerClient = 4;
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LoopbackClient client(&server);
      for (int i = 0; i < kCallsPerClient; ++i) {
        const bool red = (c + i) % 2 == 0;
        const std::string response = client.Call(
            red ? R"({"color":"red","size":null,"price":"1"})"
                : R"({"color":"blue","size":null,"price":"9"})");
        if (response != (red ? want_red : want_blue)) failures[c]++;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], 0) << "client " << c;
}

TEST(ServerTest, ErrorResponsesCarryTypedCodes) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("demo", "1", FitTinyEngine()).ok());
  ServerOptions options;
  ImputationServer server(&registry, options);
  LoopbackClient client(&server);

  EXPECT_NE(client.Call("not json").find("\"ok\":false"), std::string::npos);
  EXPECT_NE(client.Call(R"({"model":"ghost","color":"red"})")
                .find("\"code\":\"Not found\""),
            std::string::npos);
  EXPECT_NE(client.Call(R"({"bogus":"x"})").find("unknown column"),
            std::string::npos);
}

// --- Result cache -----------------------------------------------------------

std::shared_ptr<const Table> CachedRow(const std::string& color,
                                       const std::string& price) {
  return std::make_shared<const Table>(DirtyRow(color, price));
}

TEST(ResultCacheTest, RowKeyIsUnambiguousAcrossRowsAndModels) {
  const Table red1 = DirtyRow("red", "1");
  const Table red2 = DirtyRow("red", "2");
  const Table blue1 = DirtyRow("blue", "1");
  const std::string k = ResultCache::RowKey("demo@1", red1, 0);
  EXPECT_EQ(k, ResultCache::RowKey("demo@1", DirtyRow("red", "1"), 0));
  EXPECT_NE(k, ResultCache::RowKey("demo@2", red1, 0));  // version in key
  EXPECT_NE(k, ResultCache::RowKey("demo@1", red2, 0));
  EXPECT_NE(k, ResultCache::RowKey("demo@1", blue1, 0));
}

TEST(ResultCacheTest, HitAfterMissReturnsTheInsertedTable) {
  ResultCache cache(ResultCacheOptions{/*capacity=*/8});
  const std::string key = ResultCache::RowKey("demo@1", DirtyRow("red", "1"), 0);
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.misses(), 1);

  auto value = CachedRow("red", "1");
  cache.Insert(key, value);
  std::shared_ptr<const Table> hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), value.get());  // same object, not a copy
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.size(), 1);
}

TEST(ResultCacheTest, LruEvictsLeastRecentlyUsedAndStaysBounded) {
  ResultCache cache(ResultCacheOptions{/*capacity=*/3});
  auto key_of = [](int i) {
    return ResultCache::RowKey("demo@1", DirtyRow("red", std::to_string(i)), 0);
  };
  for (int i = 0; i < 3; ++i) cache.Insert(key_of(i), CachedRow("red", "1"));
  // Touch key 0 so key 1 becomes the LRU entry, then overflow.
  ASSERT_NE(cache.Lookup(key_of(0)), nullptr);
  cache.Insert(key_of(3), CachedRow("red", "1"));
  EXPECT_EQ(cache.size(), 3);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.Lookup(key_of(1)), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(key_of(0)), nullptr);  // refreshed, survived

  // Churn far past capacity: the bound holds and old keys are gone.
  for (int i = 0; i < 100; ++i) {
    cache.Insert(key_of(10 + i), CachedRow("red", "1"));
    EXPECT_LE(cache.size(), 3);
  }
  EXPECT_EQ(cache.Lookup(key_of(10)), nullptr);
  EXPECT_NE(cache.Lookup(key_of(109)), nullptr);
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching) {
  ResultCache cache(ResultCacheOptions{/*capacity=*/0});
  const std::string key = ResultCache::RowKey("demo@1", DirtyRow("red", "1"), 0);
  cache.Insert(key, CachedRow("red", "1"));
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.size(), 0);
}

// --- Server + cache ---------------------------------------------------------

TEST(ServerCacheTest, HitAfterMissIsBitIdentical) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("demo", "1", FitTinyEngine()).ok());
  ServerOptions options;
  options.cache.capacity = 16;
  ImputationServer server(&registry, options);
  LoopbackClient client(&server);

  const std::string line = R"({"color":"red","size":null,"price":"1"})";
  const std::string first = client.Call(line);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(server.cache().hits(), 0);
  EXPECT_EQ(server.cache().misses(), 1);

  const std::string second = client.Call(line);
  EXPECT_EQ(second, first);  // bit-identical replay from the cache
  EXPECT_EQ(server.cache().hits(), 1);
  EXPECT_EQ(server.cache().misses(), 1);
}

TEST(ServerCacheTest, HotSwapInvalidatesThroughVersionedKeys) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("demo", "1", FitTinyEngine(/*seed=*/42)).ok());
  ServerOptions options;
  options.cache.capacity = 16;
  ImputationServer server(&registry, options);
  LoopbackClient client(&server);

  const std::string line = R"({"color":"red","size":null,"price":"1"})";
  const std::string v1 = client.Call(line);
  EXPECT_NE(v1.find("\"model\":\"demo@1\""), std::string::npos);
  ASSERT_NE(client.Call(line).find("\"model\":\"demo@1\""),
            std::string::npos);  // cached under demo@1
  EXPECT_EQ(server.cache().hits(), 1);

  // Hot swap: version 2 becomes the serving version. The same request must
  // miss (new key) and be answered by the new engine, never the stale entry.
  ASSERT_TRUE(registry.Add("demo", "2", FitTinyEngine(/*seed=*/43)).ok());
  const std::string v2 = client.Call(line);
  EXPECT_NE(v2.find("\"model\":\"demo@2\""), std::string::npos);
  EXPECT_EQ(server.cache().hits(), 1);
  EXPECT_EQ(server.cache().misses(), 2);

  // The swapped version now has its own hot entry.
  EXPECT_EQ(client.Call(line), v2);
  EXPECT_EQ(server.cache().hits(), 2);

  // Pinned requests against the old version still work and still match.
  const std::string pinned = client.Call(
      R"({"model":"demo@1","color":"red","size":null,"price":"1"})");
  EXPECT_EQ(pinned, v1);
}

TEST(ServerCacheTest, CacheBoundHoldsUnderRequestChurn) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("demo", "1", FitTinyEngine()).ok());
  ServerOptions options;
  options.cache.capacity = 2;
  ImputationServer server(&registry, options);
  LoopbackClient client(&server);
  for (int i = 0; i < 20; ++i) {
    const std::string line = std::string(R"({"color":"red","size":null,)") +
                             "\"price\":\"" + std::to_string(i % 5) + "\"}";
    EXPECT_NE(client.Call(line).find("\"ok\":true"), std::string::npos);
    EXPECT_LE(server.cache().size(), 2);
  }
}

// --- Wire robustness (fuzz-style) -------------------------------------------

// Feeds one line through a WireSession and blocks for its response.
std::string CallSession(WireSession& session, const std::string& line) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  session.Submit(line, [&promise](std::string response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

TEST(WireFuzzTest, MalformedNdjsonFramesGetTypedErrors) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("demo", "1", FitTinyEngine()).ok());
  ImputationServer server(&registry, ServerOptions{});
  LoopbackClient client(&server);

  const char* kBad[] = {
      "{",                                      // truncated frame
      "}",                                      //
      R"({"color":"red")",                      // truncated after value
      R"({"color":)",                           // truncated mid-pair
      R"({"color":"red",})",                    // trailing comma
      R"({"color":"red"}})",                    // trailing garbage
      R"("color")",                             // not an object
      R"([{"color":"red"}])",                   // array frame
      R"({"color":{"r":1}})",                   // nested object
      R"({"color":"unterminated)",              // unterminated string
      R"({"color":"red","color":"blue"})",      // duplicate key
      R"({"bogus":"x"})",                       // unknown column
      R"({"model":"ghost","color":"red"})",     // unknown model
      R"({"deadline_ms":"soon","color":"red"})",  // bad deadline
      R"({"priority":"urgent","color":"red"})",   // bad priority
      "\x01\x02\xfe binary junk",               // raw bytes
  };
  for (const char* bad : kBad) {
    const std::string response = client.Call(bad);
    EXPECT_EQ(response.rfind("{\"ok\":false,\"code\":\"", 0), 0)
        << "input: " << bad << " -> " << response;
  }
  // The session is not poisoned: a valid request still succeeds.
  EXPECT_NE(client.Call(R"({"color":"red","size":null,"price":"1"})")
                .find("\"ok\":true"),
            std::string::npos);
}

TEST(WireFuzzTest, RandomGarbageNeverCrashesAndAlwaysAnswers) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("demo", "1", FitTinyEngine()).ok());
  ImputationServer server(&registry, ServerOptions{});
  LoopbackClient client(&server);

  // Deterministic garbage over a charset heavy in JSON structure, so the
  // parser's state machine gets driven into its corners rather than
  // rejecting everything at byte 0.
  const std::string charset = "{}[]\":,\\nul0.9xe -\t";
  Rng rng(2024);
  for (int iter = 0; iter < 300; ++iter) {
    std::string line;
    const int len = 1 + static_cast<int>(rng.Uniform(48));
    for (int i = 0; i < len; ++i) {
      line += charset[rng.Uniform(static_cast<uint64_t>(charset.size()))];
    }
    const std::string response = client.Call(line);
    // Every answer is a well-formed response line: either a typed error or
    // (for the rare accidentally-valid frame) a served row.
    EXPECT_EQ(response.rfind("{\"ok\":", 0), 0)
        << "input: " << line << " -> " << response;
  }
}

TEST(WireFuzzTest, MalformedCsvFramesGetTypedErrorLines) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("demo", "1", FitTinyEngine()).ok());
  ServerOptions options;
  options.format = WireFormat::kCsv;
  ImputationServer server(&registry, options);

  WireSession session(&server);
  EXPECT_EQ(CallSession(session, "color,size,price"), "");  // header
  // Truncated row (too few fields) and padded row (too many).
  EXPECT_EQ(CallSession(session, "red,1").rfind("#error Invalid argument", 0),
            0);
  EXPECT_EQ(
      CallSession(session, "red,,1,extra").rfind("#error Invalid argument", 0),
      0);
  // A valid row after the garbage still serves.
  const std::string served = CallSession(session, "red,,1");
  EXPECT_EQ(served.rfind("#error", 0), std::string::npos) << served;
  EXPECT_NE(served.find("red"), std::string::npos);

  // A header naming a column the schema does not have fails per-row with
  // the offending name in the message.
  WireSession bad_header(&server);
  EXPECT_EQ(CallSession(bad_header, "colour,size,price"), "");
  const std::string bad = CallSession(bad_header, "red,,1");
  EXPECT_EQ(bad.rfind("#error", 0), 0) << bad;
  EXPECT_NE(bad.find("colour"), std::string::npos);
}

}  // namespace
}  // namespace grimp
