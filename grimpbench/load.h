// Open-loop request generation for the serving measurements: requests are
// due on a fixed schedule (start + i / rate) whatever the server does, each
// request is timed from its due time, and the generator reports how late
// it ran. Used by the serving-layer probes.

#ifndef GRIMPBENCH_LOAD_H_
#define GRIMPBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "serve/server.h"
#include "table/table.h"

namespace grimpbench {

struct LoadResult {
  int64_t sent = 0;
  int64_t ok = 0;
  // Non-ok responses, transport errors and timeouts.
  int64_t failed = 0;
  std::vector<double> latency_ms;   // ok responses, from the due time
  std::vector<double> lateness_ms;  // actual send time minus due time
};

// Request line for request i; must be thread-safe.
using RequestFn = std::function<std::string(int64_t i)>;
// Sees every response line (request index, line); must be thread-safe.
// Returns false when the response is not a success.
using ResponseFn = std::function<bool(int64_t i, const std::string& line)>;

// Open loop over one TCP connection to 127.0.0.1:port with pipelined
// requests: a sender thread writes each request when due while the calling
// thread reads the responses, which arrive in request order. A request
// unanswered `timeout_seconds` after it was due fails.
LoadResult RunTcpLoad(int port, double rate, double seconds,
                      const RequestFn& request, const ResponseFn& response,
                      double timeout_seconds = 5.0);

// The same schedule driven in-process through
// ImputationServer::SubmitRequestLine from one sender thread; returns once
// every request has been answered.
LoadResult RunInProcessLoad(grimp::ImputationServer* server, double rate,
                            double seconds, const RequestFn& request,
                            const ResponseFn& response);

// Raw TCP line echo on an ephemeral loopback port: the network floor under
// any served request.
class EchoServer {
 public:
  EchoServer() = default;
  ~EchoServer() { Stop(); }
  bool Start();
  void Stop();
  int port() const { return port_; }

 private:
  void Loop();
  grimp::UniqueFd listener_;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// True for a success response line ({"ok":true,...}).
bool IsOkResponse(const std::string& line);

// NDJSON request for row `row` of `clean` with column `missing_col` left
// null (the cell to impute); every other cell is sent as a string.
std::string RequestLine(const grimp::Table& clean, int64_t row,
                        int missing_col);

}  // namespace grimpbench

#endif  // GRIMPBENCH_LOAD_H_
