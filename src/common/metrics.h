#ifndef GRIMP_COMMON_METRICS_H_
#define GRIMP_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace grimp {

// Process-wide observability registry (GraphLab-style metrics subsystem):
// named counters, gauges, log-scale histograms, append-only series, and
// aggregated trace-span timings (see common/trace.h). All value updates are
// thread-safe and wait-free (relaxed atomics); name lookup takes a mutex,
// so hot paths should cache the returned reference once:
//
//   static Counter& calls = MetricsRegistry::Global().GetCounter("gemm.calls");
//   calls.Increment();
//
// Registered metrics are never removed, so cached references stay valid for
// the life of the process (Reset() zeroes values but keeps registrations).
// Instrumentation must never influence control flow: metrics are outputs
// only, so results stay bit-identical whether or not anyone reads them.
//
// If the GRIMP_METRICS_JSON environment variable names a file, the full
// registry is serialized there (MetricsRegistry::ToJson()) at process exit.

// Monotonically increasing integer (events, calls, items processed).
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-write-wins floating point value (configuration, pool size, rates).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  // Compare-and-raise: sets the value to `value` only if that is larger, so
  // concurrent and later writers never lower a running maximum.
  void RaiseTo(double value) {
    double current = value_.load(std::memory_order_relaxed);
    while (current < value &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Histogram over fixed log2-scale buckets: bucket 0 counts values < 1,
// bucket i (i >= 1) counts values in [2^(i-1), 2^i). Suited to quantities
// spanning many orders of magnitude (flops per kernel call, batch sizes,
// microsecond durations). Also tracks count / sum / min / max exactly.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Record(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // Min/max of recorded values; 0 when empty.
  double min() const;
  double max() const;
  int64_t bucket_count(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  // Exclusive upper bound of `bucket` (1, 2, 4, ... ; +inf for the last).
  static double BucketUpperBound(int bucket);
  // Bucket index a value falls into.
  static int BucketIndex(double value);
  // Approximate percentile (0..100) by nearest rank over the log2 buckets,
  // linearly interpolated inside the winning bucket and clamped to the
  // exact observed min/max. Resolution is the bucket width (a factor of
  // two), so record in fine-grained units (e.g. microseconds, not
  // seconds) when tail latencies matter. Returns 0 when empty.
  double ValueAtPercentile(double percentile) const;

  void Reset();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // +/-inf sentinels make the CAS loops initialization-free; accessors
  // report 0 while count_ == 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// Append-only sequence of values in recording order (per-epoch losses,
// per-epoch seconds). Mutex-protected: meant for coarse-grained events,
// not per-element kernels.
class Series {
 public:
  void Append(double value);
  std::vector<double> Snapshot() const;
  int64_t size() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

// Aggregate wall-time of one named trace span (common/trace.h).
struct SpanStats {
  int64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
};

class MetricsRegistry {
 public:
  // The process-wide registry. Never destroyed (leaked on purpose) so that
  // metric references and the atexit JSON dump stay valid during shutdown.
  static MetricsRegistry& Global();

  // Get-or-create by name. Returned references are valid forever.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);
  Series& GetSeries(const std::string& name);

  // Span aggregation (called by TraceSpan on scope exit).
  void RecordSpan(const std::string& name, double seconds);
  // Stats for `name`; zero-count stats if the span never ran.
  SpanStats GetSpanStats(const std::string& name) const;

  // Serializes every metric to a deterministic (name-sorted) JSON object
  // with top-level keys "counters", "gauges", "histograms", "series",
  // "spans".
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

  // Zeroes all values; keeps every registration (references stay valid).
  void Reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  // Node-based maps: values are heap-allocated once and never move.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
  std::map<std::string, SpanStats> spans_;
};

}  // namespace grimp

#endif  // GRIMP_COMMON_METRICS_H_
