// Serving-layer benchmark over real loopback TCP: a fitted model is served
// by the NetServer front end while client threads (8..64) drive it with a
// Zipfian request mix (uniform / theta 0.9 / theta 0.99) drawn from a
// 1024-row key space against a 256-entry hot-row cache. Reports
// throughput and client-observed p50/p99 per (clients, skew) cell plus the
// cache hit rate, then runs an overload soak: 64 clients with tight
// wire-propagated deadlines against a small queue, verifying requests are
// shed with typed deadline errors while completed-request p99 stays
// bounded (no queue collapse).
//
// Gates (non-zero exit on violation):
//   - one served response per config is bit-identical to offline TransformMany
//   - cache hit rate >= 70% at theta 0.99 for every client count
//   - overload run sheds with typed errors, completes the rest, and the
//     completed-request p99 stays under a fixed multiple of the deadline
//
// Writes machine-readable results to BENCH_serve.json (cwd).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/metrics.h"
#include "core/engine.h"
#include "net/net_server.h"
#include "net/socket.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "zipf.h"

namespace {

using grimp::AttrType;
using grimp::GrimpEngine;
using grimp::GrimpOptions;
using grimp::ImputationServer;
using grimp::MetricsRegistry;
using grimp::ModelRegistry;
using grimp::NetServer;
using grimp::NetServerOptions;
using grimp::Schema;
using grimp::ServerOptions;
using grimp::Table;
using grimp::TcpClient;
using grimp::ZipfGenerator;

constexpr int64_t kKeySpace = 1024;    // distinct request rows
constexpr int64_t kCacheCapacity = 256;
constexpr int kRequestsPerClient = 32;  // measured phase, per client
constexpr int64_t kWarmupRequests = 1536;  // per config, split across clients
constexpr double kOverloadDeadlineMs = 2.0;
constexpr double kOverloadP99BoundMs = 30.0 * kOverloadDeadlineMs;

const char* kBrands[] = {"acer", "dell", "apple", "lenovo", "asus"};
const char* kLines[] = {"swift", "xps", "mac", "yoga", "zen"};
const char* kTiers[] = {"low", "mid", "high"};

Table TrainingTable() {
  Schema schema({{"brand", AttrType::kCategorical},
                 {"line", AttrType::kCategorical},
                 {"tier", AttrType::kCategorical},
                 {"price", AttrType::kNumerical}});
  Table t(schema);
  const char* prices[] = {"4", "7", "12", "6", "3"};
  for (int rep = 0; rep < 8; ++rep) {
    for (int i = 0; i < 5; ++i) {
      if (!t.AppendRow({kBrands[i], kLines[i], kTiers[i % 3], prices[i]})
               .ok()) {
        std::abort();
      }
    }
  }
  return t;
}

// Request key k in [0, kKeySpace): the "line" cell is missing (the impute
// target); the present cells vary with k so every key produces a distinct
// cache entry.
std::string RequestJson(int64_t k) {
  return std::string("{\"brand\":\"") + kBrands[k % 5] + "\",\"line\":null" +
         ",\"tier\":\"" + kTiers[k % 3] + "\",\"price\":\"" +
         std::to_string(k) + "\"}";
}

Table RequestTable(const Schema& schema, int64_t k) {
  Table t(schema);
  if (!t.AppendRow({kBrands[k % 5], "", kTiers[k % 3], std::to_string(k)})
           .ok()) {
    std::abort();
  }
  return t;
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t idx = static_cast<size_t>(
      std::min<double>(static_cast<double>(values->size()) - 1,
                       p / 100.0 * static_cast<double>(values->size())));
  return (*values)[idx];
}

struct SweepResult {
  int clients = 0;
  double theta = 0.0;
  double seconds = 0.0;
  double throughput = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double hit_rate = 0.0;
  int64_t requests = 0;
  int64_t errors = 0;
};

// One client pass: each of `clients` threads opens its own connection and
// performs `per_client` request/response round trips with Zipf-sampled
// keys. Latencies (ms) are appended per thread; returns total errors.
int64_t RunClients(int port, int clients, int per_client, double theta,
                   uint64_t seed_base, const std::string& extra_fields,
                   std::vector<std::vector<double>>* latencies,
                   std::vector<std::string>* first_responses) {
  std::atomic<int64_t> errors{0};
  std::vector<std::thread> threads;
  latencies->assign(clients, {});
  if (first_responses != nullptr) first_responses->assign(clients, "");
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = TcpClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        errors += per_client;
        return;
      }
      ZipfGenerator zipf(kKeySpace, theta, seed_base + c * 7919 + 1);
      auto& lats = (*latencies)[c];
      lats.reserve(per_client);
      for (int i = 0; i < per_client; ++i) {
        std::string line = RequestJson(zipf.Next());
        if (!extra_fields.empty()) {
          line.insert(1, extra_fields + ",");
        }
        const auto t0 = std::chrono::steady_clock::now();
        if (!client->SendLine(line).ok()) {
          errors++;
          continue;
        }
        auto response = client->RecvLine();
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (!response.ok()) {
          errors++;
          continue;
        }
        lats.push_back(ms);
        if (first_responses != nullptr && (*first_responses)[c].empty()) {
          (*first_responses)[c] = *response;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return errors.load();
}

std::string SweepJson(const SweepResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"clients\": %d, \"theta\": %.2f, \"requests\": %lld, "
                "\"seconds\": %.4f, \"throughput_rps\": %.1f, "
                "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                "\"cache_hit_rate\": %.4f, \"errors\": %lld}",
                r.clients, r.theta, static_cast<long long>(r.requests),
                r.seconds, r.throughput, r.p50_ms, r.p99_ms, r.hit_rate,
                static_cast<long long>(r.errors));
  return buf;
}

}  // namespace

int main() {
  const int max_threads = grimp::bench::ResolveMaxThreads();
  GrimpOptions options;
  options.dim = 16;
  options.max_epochs = 20;
  options.validation_fraction = 0.0;
  options.seed = 11;
  options.num_threads = max_threads;
  auto engine = std::make_unique<GrimpEngine>(options);
  if (!engine->Fit(TrainingTable()).ok()) {
    std::fprintf(stderr, "fit failed\n");
    return 1;
  }
  const GrimpEngine& engine_ref = *engine;
  const Schema schema = engine_ref.schema();

  ModelRegistry registry;
  if (!registry.Add("laptops", "1", std::move(engine)).ok()) {
    std::fprintf(stderr, "registry add failed\n");
    return 1;
  }

  MetricsRegistry& metrics = MetricsRegistry::Global();
  const int sweep_clients[] = {8, 16, 32, 64};
  const double thetas[] = {0.0, 0.9, 0.99};
  std::vector<SweepResult> sweep;
  bool failed = false;

  std::printf(
      "serving sweep over loopback TCP: %lld keys, cache capacity %lld, "
      "%d requests/client\n\n",
      static_cast<long long>(kKeySpace),
      static_cast<long long>(kCacheCapacity), kRequestsPerClient);
  std::printf("%8s %6s %10s %9s %9s %9s %7s\n", "clients", "theta", "req/s",
              "p50 ms", "p99 ms", "hit rate", "errors");

  for (int clients : sweep_clients) {
    for (double theta : thetas) {
      ServerOptions server_options;
      server_options.default_model = "laptops";
      server_options.cache.capacity = kCacheCapacity;
      server_options.scheduler.max_batch = 8;
      server_options.scheduler.batch_linger_seconds = 0.001;
      server_options.scheduler.num_workers = std::max(2, max_threads / 2);
      ImputationServer server(&registry, server_options);
      NetServer net(&server, NetServerOptions{});
      if (auto status = net.Start(); !status.ok()) {
        std::fprintf(stderr, "net start: %s\n", status.ToString().c_str());
        return 1;
      }

      // Warmup: fills the cache to LRU steady state under this skew, warms
      // the scheduler's EWMA and the per-thread engine scratch.
      std::vector<std::vector<double>> warm_lats;
      const int warm_per_client = static_cast<int>(
          (kWarmupRequests + clients - 1) / clients);
      RunClients(net.port(), clients, warm_per_client, theta,
                 /*seed_base=*/1000 + clients, "", &warm_lats, nullptr);
      metrics.Reset();

      std::vector<std::vector<double>> lats;
      std::vector<std::string> first_responses;
      const auto start = std::chrono::steady_clock::now();
      const int64_t errors =
          RunClients(net.port(), clients, kRequestsPerClient, theta,
                     /*seed_base=*/5000 + clients, "", &lats,
                     &first_responses);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();

      const double hits =
          static_cast<double>(metrics.GetCounter("serve.cache.hits").value());
      const double misses = static_cast<double>(
          metrics.GetCounter("serve.cache.misses").value());
      net.Stop();
      server.scheduler().Shutdown();

      // Bit-identity spot check: any successful response must match the
      // offline TransformMany of the same key. Responses name the key via the
      // price cell.
      for (const std::string& response : first_responses) {
        if (response.empty() || response.find("\"ok\":true") ==
                                    std::string::npos) {
          continue;
        }
        const size_t price_pos = response.find("\"price\":\"");
        if (price_pos == std::string::npos) continue;
        const int64_t k = std::atoll(response.c_str() + price_pos + 9);
        grimp::Table direct = RequestTable(schema, k);
        grimp::Table* one[] = {&direct};
        const grimp::Status direct_status = engine_ref.TransformMany(one);
        const std::string want =
            std::string("{\"ok\":true,\"model\":\"laptops@1\",\"row\":") +
            grimp::RowToJson(direct, 0) + "}";
        if (!direct_status.ok() || response != want) {
          std::fprintf(stderr,
                       "FAIL: served response differs from offline "
                       "TransformMany for key %lld\n  got:  %s\n  want: %s\n",
                       static_cast<long long>(k), response.c_str(),
                       want.c_str());
          failed = true;
        }
        break;
      }

      SweepResult r;
      r.clients = clients;
      r.theta = theta;
      r.seconds = seconds;
      r.requests = static_cast<int64_t>(clients) * kRequestsPerClient;
      r.throughput = static_cast<double>(r.requests) / seconds;
      r.errors = errors;
      std::vector<double> all;
      for (auto& v : lats) all.insert(all.end(), v.begin(), v.end());
      r.p50_ms = Percentile(&all, 50.0);
      r.p99_ms = Percentile(&all, 99.0);
      r.hit_rate = (hits + misses) > 0 ? hits / (hits + misses) : 0.0;
      sweep.push_back(r);
      std::printf("%8d %6.2f %10.1f %9.3f %9.3f %8.1f%% %7lld\n", clients,
                  theta, r.throughput, r.p50_ms, r.p99_ms, 100.0 * r.hit_rate,
                  static_cast<long long>(errors));

      if (errors > 0) {
        std::fprintf(stderr, "FAIL: %lld transport errors at clients=%d "
                     "theta=%.2f\n",
                     static_cast<long long>(errors), clients, theta);
        failed = true;
      }
      if (theta == 0.99 && r.hit_rate < 0.70) {
        std::fprintf(stderr,
                     "FAIL: cache hit rate %.1f%% < 70%% at theta 0.99, "
                     "clients=%d\n",
                     100.0 * r.hit_rate, clients);
        failed = true;
      }
    }
  }

  // Overload soak: cache off so every request reaches the scheduler, a
  // small queue, tight deadlines carried on the wire, half the clients in
  // the high lane. The server must shed with typed deadline errors while
  // completed requests keep a bounded p99.
  std::printf("\noverload soak: 64 clients, deadline %.0f ms on the wire\n",
              kOverloadDeadlineMs);
  int64_t shed = 0, queue_full = 0, expired = 0, ok_count = 0;
  double ok_p50 = 0.0, ok_p99 = 0.0;
  {
    ServerOptions server_options;
    server_options.default_model = "laptops";
    server_options.cache.capacity = 0;  // force every request through
    // Deliberately constrained: one worker draining pairs with no linger,
    // so 64 closed-loop clients outrun the service rate and the queue
    // grows. Queue capacity exceeds the client count so deadline shedding,
    // not the queue-full backstop, is the operative overload control.
    server_options.scheduler.max_batch = 2;
    server_options.scheduler.max_queue = 256;
    server_options.scheduler.batch_linger_seconds = 0.0;
    server_options.scheduler.num_workers = 1;
    ImputationServer server(&registry, server_options);
    NetServer net(&server, NetServerOptions{});
    if (auto status = net.Start(); !status.ok()) {
      std::fprintf(stderr, "net start: %s\n", status.ToString().c_str());
      return 1;
    }
    // Warm the EWMA so admission-time shedding has a batch-cost estimate.
    std::vector<std::vector<double>> warm_lats;
    RunClients(net.port(), 8, 16, 0.99, 77, "", &warm_lats, nullptr);
    metrics.Reset();

    constexpr int kOverloadClients = 64;
    constexpr int kOverloadPerClient = 24;
    std::atomic<int64_t> counts_ok{0}, counts_shed{0}, counts_queue{0},
        counts_expired{0}, counts_other{0};
    std::vector<std::vector<double>> ok_lats(kOverloadClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kOverloadClients; ++c) {
      threads.emplace_back([&, c] {
        auto client = TcpClient::Connect("127.0.0.1", net.port());
        if (!client.ok()) {
          counts_other += kOverloadPerClient;
          return;
        }
        ZipfGenerator zipf(kKeySpace, 0.99, 31337 + c);
        char extra[96];
        std::snprintf(extra, sizeof(extra),
                      "\"deadline_ms\":%.1f%s", kOverloadDeadlineMs,
                      c % 2 == 0 ? ",\"priority\":\"high\"" : "");
        for (int i = 0; i < kOverloadPerClient; ++i) {
          std::string line = RequestJson(zipf.Next());
          line.insert(1, std::string(extra) + ",");
          const auto t0 = std::chrono::steady_clock::now();
          if (!client->SendLine(line).ok()) {
            counts_other++;
            continue;
          }
          auto response = client->RecvLine();
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
          if (!response.ok()) {
            counts_other++;
            continue;
          }
          if (response->find("\"ok\":true") != std::string::npos) {
            counts_ok++;
            ok_lats[c].push_back(ms);
          } else if (response->find("shed at admission") !=
                     std::string::npos) {
            counts_shed++;
          } else if (response->find("queue is full") != std::string::npos) {
            counts_queue++;
          } else if (response->find("\"code\":\"Deadline exceeded\"") !=
                     std::string::npos) {
            counts_expired++;
          } else {
            counts_other++;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    net.Stop();
    server.scheduler().Shutdown();

    shed = counts_shed.load();
    queue_full = counts_queue.load();
    expired = counts_expired.load();
    ok_count = counts_ok.load();
    std::vector<double> all;
    for (auto& v : ok_lats) all.insert(all.end(), v.begin(), v.end());
    ok_p50 = Percentile(&all, 50.0);
    ok_p99 = Percentile(&all, 99.0);

    const int64_t total = static_cast<int64_t>(kOverloadClients) *
                          kOverloadPerClient;
    const int64_t answered =
        ok_count + shed + queue_full + expired;
    std::printf(
        "  ok=%lld shed=%lld queue_full=%lld expired=%lld other=%lld "
        "(of %lld)\n  completed p50=%.2f ms p99=%.2f ms\n",
        static_cast<long long>(ok_count), static_cast<long long>(shed),
        static_cast<long long>(queue_full), static_cast<long long>(expired),
        static_cast<long long>(counts_other.load()),
        static_cast<long long>(total), ok_p50, ok_p99);

    if (counts_other.load() != 0 || answered != total) {
      std::fprintf(stderr,
                   "FAIL: overload run lost responses (answered %lld of "
                   "%lld, other=%lld)\n",
                   static_cast<long long>(answered),
                   static_cast<long long>(total),
                   static_cast<long long>(counts_other.load()));
      failed = true;
    }
    if (shed == 0) {
      std::fprintf(stderr,
                   "FAIL: overload run shed nothing (expected typed "
                   "deadline rejections at admission)\n");
      failed = true;
    }
    if (ok_count == 0) {
      std::fprintf(stderr, "FAIL: overload run completed nothing\n");
      failed = true;
    }
    if (ok_p99 > kOverloadP99BoundMs) {
      std::fprintf(stderr,
                   "FAIL: completed-request p99 %.1f ms exceeds bound "
                   "%.1f ms (queue collapse?)\n",
                   ok_p99, kOverloadP99BoundMs);
      failed = true;
    }
  }

  std::string json =
      "{\n  \"key_space\": " + std::to_string(kKeySpace) +
      ",\n  \"cache_capacity\": " + std::to_string(kCacheCapacity) +
      ",\n  \"requests_per_client\": " + std::to_string(kRequestsPerClient) +
      ",\n  \"max_threads\": " + std::to_string(max_threads) +
      ",\n  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    json += SweepJson(sweep[i]);
    json += (i + 1 < sweep.size()) ? ",\n" : "\n";
  }
  char overload_buf[512];
  std::snprintf(overload_buf, sizeof(overload_buf),
                "  ],\n  \"overload\": {\"clients\": 64, "
                "\"deadline_ms\": %.1f, \"ok\": %lld, \"shed\": %lld, "
                "\"queue_full\": %lld, \"expired\": %lld, "
                "\"ok_p50_ms\": %.3f, \"ok_p99_ms\": %.3f, "
                "\"p99_bound_ms\": %.1f}\n}\n",
                kOverloadDeadlineMs, static_cast<long long>(ok_count),
                static_cast<long long>(shed),
                static_cast<long long>(queue_full),
                static_cast<long long>(expired), ok_p50, ok_p99,
                kOverloadP99BoundMs);
  json += overload_buf;

  if (FILE* f = std::fopen("BENCH_serve.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_serve.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_serve.json\n");
    return 1;
  }
  return failed ? 1 : 0;
}
