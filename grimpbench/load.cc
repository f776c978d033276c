#include "load.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "harness.h"
#include "serve/wire.h"

namespace grimpbench {

namespace {

// Wakes the calling thread as close to `due` (NowSeconds() time) as the
// scheduler allows.
void SleepUntil(double due) {
  const double wait = due - NowSeconds();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

// Keeps the generator's wake-ups tight: the default 50 us timer slack
// would show up as lateness.
void TightTimers() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

int64_t ScheduledCount(double rate, double seconds) {
  return static_cast<int64_t>(rate * seconds);
}

}  // namespace

LoadResult RunTcpLoad(int port, double rate, double seconds,
                      const RequestFn& request, const ResponseFn& response,
                      double timeout_seconds) {
  LoadResult result;
  const int64_t total = ScheduledCount(rate, seconds);
  result.sent = total;
  result.failed = total;
  auto connected = grimp::TcpClient::Connect("127.0.0.1", port);
  if (!connected.ok()) return result;
  grimp::TcpClient& client = *connected;
  // The receiver wakes at least every 20 ms to notice the end of the run.
  timeval tv{0, 20000};
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  std::vector<double> due(static_cast<size_t>(total));
  std::vector<double> latency(static_cast<size_t>(total), -1.0);
  std::vector<char> ok(static_cast<size_t>(total), 0);
  const double start = NowSeconds() + 0.005;
  for (int64_t i = 0; i < total; ++i) {
    due[static_cast<size_t>(i)] = start + static_cast<double>(i) / rate;
  }

  std::atomic<int64_t> sent{0};
  std::atomic<bool> sender_done{false};
  std::thread sender([&] {
    TightTimers();
    for (int64_t i = 0; i < total; ++i) {
      SleepUntil(due[static_cast<size_t>(i)]);
      result.lateness_ms.push_back((NowSeconds() - due[static_cast<size_t>(i)]) *
                                   1e3);
      if (!client.SendLine(request(i)).ok()) break;
      sent.store(i + 1, std::memory_order_release);
    }
    sender_done.store(true, std::memory_order_release);
  });
  // Receiver: responses arrive in request order on the connection.
  int64_t k = 0;
  for (;;) {
    const bool done = sender_done.load(std::memory_order_acquire);
    const int64_t s = sent.load(std::memory_order_acquire);
    if (done && k >= s) break;
    auto line = client.RecvLine();
    const double now = NowSeconds();
    if (!line.ok()) {
      if (k < s && now - due[static_cast<size_t>(k)] > timeout_seconds) {
        break;  // the remaining requests time out
      }
      if (line.status().message().find("closed") != std::string::npos) break;
      continue;
    }
    latency[static_cast<size_t>(k)] = (now - due[static_cast<size_t>(k)]) * 1e3;
    ok[static_cast<size_t>(k)] = response(k, *line) ? 1 : 0;
    Tracer::Get().Add("load.request", due[static_cast<size_t>(k)], now, k);
    ++k;
  }
  // After a timeout the sender may still be blocked on a full socket;
  // closing our end makes its write fail.
  if (!(sender_done.load() && k >= sent.load())) client.ShutdownWrite();
  sender.join();

  // Unsent or unanswered requests count as failed.
  result.ok = 0;
  for (int64_t i = 0; i < total; ++i) {
    if (latency[static_cast<size_t>(i)] >= 0 && ok[static_cast<size_t>(i)]) {
      ++result.ok;
      result.latency_ms.push_back(latency[static_cast<size_t>(i)]);
    }
  }
  result.failed = total - result.ok;
  return result;
}

LoadResult RunInProcessLoad(grimp::ImputationServer* server, double rate,
                            double seconds, const RequestFn& request,
                            const ResponseFn& response) {
  LoadResult result;
  const int64_t total = ScheduledCount(rate, seconds);
  struct Slot {
    double due = 0.0;
    double latency_ms = -1.0;
    bool ok = false;
  };
  std::vector<Slot> slots(static_cast<size_t>(total));
  std::mutex mu;
  std::condition_variable cv;
  int64_t completed = 0;

  const double start = NowSeconds() + 0.005;
  std::thread sender([&] {
    TightTimers();
    for (int64_t i = 0; i < total; ++i) {
      Slot& slot = slots[static_cast<size_t>(i)];
      slot.due = start + static_cast<double>(i) / rate;
      SleepUntil(slot.due);
      result.lateness_ms.push_back((NowSeconds() - slot.due) * 1e3);
      server->SubmitRequestLine(request(i), [&, i](std::string line) {
        const double now = NowSeconds();
        Slot& s = slots[static_cast<size_t>(i)];
        s.ok = response(i, line);
        s.latency_ms = (now - s.due) * 1e3;
        std::lock_guard<std::mutex> lock(mu);
        ++completed;
        cv.notify_all();
      });
    }
  });
  sender.join();
  {
    // Responses still in flight would write into `slots` after it is gone;
    // the scheduler answers every submitted request, so wait for them all.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == total; });
  }
  for (const Slot& slot : slots) {
    if (slot.ok) {
      ++result.ok;
      result.latency_ms.push_back(slot.latency_ms);
    }
  }
  result.sent = total;
  result.failed = total - result.ok;
  return result;
}

bool EchoServer::Start() {
  auto listener = grimp::ListenTcp("127.0.0.1", 0, 16, &port_);
  if (!listener.ok()) return false;
  listener_ = std::move(*listener);
  thread_ = std::thread([this] { Loop(); });
  return true;
}

void EchoServer::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

void EchoServer::Loop() {
  std::vector<grimp::UniqueFd> conns;
  std::vector<pollfd> fds;
  char buf[16384];
  while (!stop_) {
    fds.clear();
    fds.push_back({listener_.get(), POLLIN, 0});
    for (const auto& c : conns) fds.push_back({c.get(), POLLIN, 0});
    if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listener_.get(), nullptr, nullptr);
      if (fd >= 0) conns.emplace_back(fd);
    }
    for (size_t j = 1; j < fds.size(); ++j) {
      if (!(fds[j].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const ssize_t n = ::recv(fds[j].fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        conns[j - 1].Close();
        continue;
      }
      // Echo the bytes back as they came: the client's line framing makes
      // every request line its own response line.
      ssize_t off = 0;
      while (off < n) {
        const ssize_t w = ::send(fds[j].fd, buf + off,
                                 static_cast<size_t>(n - off), MSG_NOSIGNAL);
        if (w <= 0) break;
        off += w;
      }
    }
    std::erase_if(conns, [](const grimp::UniqueFd& c) { return !c; });
  }
}

bool IsOkResponse(const std::string& line) {
  return line.rfind("{\"ok\":true", 0) == 0;
}

std::string RequestLine(const grimp::Table& clean, int64_t row,
                        int missing_col) {
  std::string line = "{";
  for (int c = 0; c < clean.num_cols(); ++c) {
    if (c > 0) line += ',';
    line += '"';
    line += grimp::EscapeJson(clean.schema().field(c).name);
    line += "\":";
    if (c == missing_col || clean.IsMissing(row, c)) {
      line += "null";
    } else {
      line += '"';
      line += grimp::EscapeJson(clean.column(c).StringAt(row));
      line += '"';
    }
  }
  line += "}";
  return line;
}

}  // namespace grimpbench
