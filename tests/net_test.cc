// Socket front-end tests: NetServer + TcpClient over real loopback TCP.
// Covers multi-client correctness, pipelined response ordering, half-close
// draining, oversized-frame rejection, the connection limit, and the CSV
// dialect — everything the event loop must get right beyond what the
// in-process LoopbackClient can exercise.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/engine.h"
#include "net/net_server.h"
#include "net/socket.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "transform_copy.h"

namespace grimp {
namespace {

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

// Registry + server + running NetServer, torn down in reverse order.
struct NetFixture {
  explicit NetFixture(ServerOptions server_options = {},
                      NetServerOptions net_options = {})
      : server(&registry_after_add(), server_options),
        net(&server, net_options) {
    EXPECT_TRUE(net.Start().ok());
  }
  ~NetFixture() {
    net.Stop();
    server.scheduler().Shutdown();
  }

  ModelRegistry& registry_after_add() {
    EXPECT_TRUE(registry.Add("demo", "1", FitTinyEngine()).ok());
    return registry;
  }

  TcpClient Connect() {
    auto client = TcpClient::Connect("127.0.0.1", net.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  ModelRegistry registry;
  ImputationServer server;
  NetServer net;
};

std::string WantResponse(const GrimpEngine& engine, const std::string& color,
                         const std::string& price) {
  auto direct = TransformCopy(engine, DirtyRow(color, price));
  EXPECT_TRUE(direct.ok());
  return std::string(R"({"ok":true,"model":"demo@1","row":)") +
         RowToJson(*direct, 0) + "}";
}

TEST(NetServerTest, MultiClientTrafficAllGetCorrectAnswers) {
  NetFixture fx;
  auto handle = fx.registry.Acquire("demo");
  const std::string want_red = WantResponse(handle->engine(), "red", "1");
  const std::string want_blue = WantResponse(handle->engine(), "blue", "9");

  const int64_t requests_before =
      MetricsRegistry::Global().GetCounter("serve.net.requests").value();

  constexpr int kClients = 6;
  constexpr int kCalls = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TcpClient client = fx.Connect();
      for (int i = 0; i < kCalls; ++i) {
        const bool red = (c + i) % 2 == 0;
        if (!client
                 .SendLine(red
                               ? R"({"color":"red","size":null,"price":"1"})"
                               : R"({"color":"blue","size":null,"price":"9"})")
                 .ok()) {
          failures[c]++;
          continue;
        }
        auto response = client.RecvLine();
        if (!response.ok() || *response != (red ? want_red : want_blue)) {
          failures[c]++;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], 0) << "client " << c;

  const int64_t requests =
      MetricsRegistry::Global().GetCounter("serve.net.requests").value() -
      requests_before;
  EXPECT_EQ(requests, kClients * kCalls);
}

TEST(NetServerTest, PipelinedResponsesArriveInRequestOrder) {
  ServerOptions options;
  options.scheduler.num_workers = 4;  // give the scheduler room to reorder
  options.scheduler.max_batch = 2;
  NetFixture fx(options);
  TcpClient client = fx.Connect();

  constexpr int kDepth = 12;
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(client
                    .SendLine(std::string(R"({"color":"red","size":null,)") +
                              "\"price\":\"" + std::to_string(i) + "\"}")
                    .ok());
  }
  for (int i = 0; i < kDepth; ++i) {
    auto response = client.RecvLine();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    // The response for request i carries request i's price cell back.
    EXPECT_NE(
        response->find("\"price\":\"" + std::to_string(i) + ".00000000\""),
        std::string::npos)
        << "response " << i << ": " << *response;
  }
}

TEST(NetServerTest, HalfCloseDrainsPendingResponsesThenEof) {
  NetFixture fx;
  TcpClient client = fx.Connect();
  constexpr int kDepth = 5;
  for (int i = 0; i < kDepth; ++i) {
    ASSERT_TRUE(
        client.SendLine(R"({"color":"red","size":null,"price":"1"})").ok());
  }
  client.ShutdownWrite();
  for (int i = 0; i < kDepth; ++i) {
    auto response = client.RecvLine();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_NE(response->find("\"ok\":true"), std::string::npos);
  }
  EXPECT_FALSE(client.RecvLine().ok());  // server closed after the drain
}

TEST(NetServerTest, BlankLinesProduceNoResponse) {
  NetFixture fx;
  TcpClient client = fx.Connect();
  ASSERT_TRUE(client.SendLine("").ok());
  ASSERT_TRUE(
      client.SendLine(R"({"color":"red","size":null,"price":"1"})").ok());
  client.ShutdownWrite();
  auto response = client.RecvLine();
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find("\"ok\":true"), std::string::npos);
  EXPECT_FALSE(client.RecvLine().ok());  // exactly one response, then EOF
}

TEST(NetServerTest, OversizedFrameGetsTypedErrorThenClose) {
  NetServerOptions net_options;
  net_options.max_frame_bytes = 256;
  NetFixture fx(ServerOptions{}, net_options);
  TcpClient client = fx.Connect();

  // A newline-less flood larger than the frame limit: the server must
  // answer with a typed error (not silence) and hang up.
  const std::string flood(1024, 'x');
  ASSERT_EQ(
      ::send(client.fd(), flood.data(), flood.size(), MSG_NOSIGNAL),
      static_cast<ssize_t>(flood.size()));
  auto response = client.RecvLine();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->rfind(R"({"ok":false,"code":"Invalid argument")", 0), 0)
      << *response;
  EXPECT_NE(response->find("max_frame_bytes"), std::string::npos);
  EXPECT_FALSE(client.RecvLine().ok());  // connection closed
}

TEST(NetServerTest, ConnectionLimitRejectsExtraClients) {
  NetServerOptions net_options;
  net_options.max_connections = 1;
  NetFixture fx(ServerOptions{}, net_options);
  const int64_t rejected_before =
      MetricsRegistry::Global().GetCounter("serve.net.rejected_conns").value();

  TcpClient first = fx.Connect();
  ASSERT_TRUE(
      first.SendLine(R"({"color":"red","size":null,"price":"1"})").ok());
  ASSERT_TRUE(first.RecvLine().ok());  // first client is fully established

  // The second connect completes at the TCP level (listen backlog) but the
  // server closes it on accept: the client sees EOF, never a hung socket.
  TcpClient second = fx.Connect();
  (void)second.SendLine(R"({"color":"red","size":null,"price":"1"})");
  EXPECT_FALSE(second.RecvLine().ok());
  EXPECT_GE(
      MetricsRegistry::Global().GetCounter("serve.net.rejected_conns").value(),
      rejected_before + 1);

  // The admitted client keeps working.
  ASSERT_TRUE(
      first.SendLine(R"({"color":"blue","size":null,"price":"9"})").ok());
  EXPECT_TRUE(first.RecvLine().ok());
}

TEST(NetServerTest, CsvDialectServesRowsAndTypedErrorLines) {
  ServerOptions options;
  options.format = WireFormat::kCsv;
  NetFixture fx(options);
  TcpClient client = fx.Connect();

  ASSERT_TRUE(client.SendLine("color,size,price").ok());  // header, no reply
  ASSERT_TRUE(client.SendLine("red,,1").ok());
  ASSERT_TRUE(client.SendLine("red,1").ok());  // truncated: 2 fields
  client.ShutdownWrite();

  auto row = client.RecvLine();
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->rfind("#error", 0), std::string::npos) << *row;
  EXPECT_NE(row->find("red"), std::string::npos);

  auto err = client.RecvLine();
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->rfind("#error Invalid argument", 0), 0) << *err;
  EXPECT_FALSE(client.RecvLine().ok());
}

}  // namespace
}  // namespace grimp
