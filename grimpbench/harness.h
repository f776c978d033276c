// Shared machinery of the repository benchmark: command-line arguments, the
// result every workload fills in, statistics, registry deltas, scoring
// against ground truth, and the in-memory span tracer.
//
// The benchmark drives the library only through public entry points and
// measures layers from outside by timing calls into each module. Spans are
// recorded from the benchmark's own files around those calls, kept in
// memory, and written out as a Chrome trace-event file when the run ends.

#ifndef GRIMPBENCH_HARNESS_H_
#define GRIMPBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "table/table.h"

namespace grimpbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory (inside the checkout) for spill files, published models and
  // the trace file. Created by main.
  std::string work_dir;
};

// What one workload run reports. `metrics` holds the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run), in print order.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Set(const std::string& name, double value, const std::string& unit);
  // Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
};

double NowSeconds();

// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// True when at least ten samples lie beyond quantile q of n samples, the
// rule for reporting a percentile.
bool TailReportable(size_t n, double q);

// Process high-water resident set size in MB.
double PeakRssMb();

// Thread budget: hardware concurrency, capped by GRIMP_NUM_THREADS.
int MaxThreads();

// Registry counters read as deltas (the registry is never reset mid-run).
class CounterDelta {
 public:
  explicit CounterDelta(const std::vector<std::string>& names);
  // Value accumulated since construction.
  int64_t Get(const std::string& name) const;

 private:
  std::map<std::string, int64_t> start_;
};

// Imputation quality against the ground truth `clean`: categorical
// accuracy, the accuracy of always answering the column's most frequent
// value in `reference` (the table the model saw; the floor a model must
// beat), and numerical RMSE in units of the clean column's standard
// deviation. Both tables must outlive the scorer.
class Scorer {
 public:
  Scorer(const grimp::Table& reference, const grimp::Table& clean);

  // Scores `imputed` rows [0, n) against clean rows [clean_begin,
  // clean_begin + n), over the cells missing in `dirty` (indexed like
  // `clean`).
  void AddRows(const grimp::Table& imputed, const grimp::Table& dirty,
               int64_t clean_begin);

  double Accuracy() const;
  double ModeAccuracy() const;
  double Rmse() const;
  int64_t categorical() const { return categorical_; }
  int64_t numerical() const { return numerical_; }

 private:
  // Scores one imputed cell given as a string.
  void AddCell(int64_t row, int col, const std::string& value);

  const grimp::Table& clean_;
  std::vector<std::string> modes_;
  std::vector<double> stddev_;
  int64_t categorical_ = 0;
  int64_t correct_ = 0;
  int64_t mode_correct_ = 0;
  int64_t numerical_ = 0;
  double squared_error_norm_ = 0.0;
};

// Prints the score and fails the run unless the model beats the
// most-frequent-value baseline on the same cells. Accuracy varies too much
// from seed to seed to be a gated metric; this is its correctness floor.
void CheckQuality(const Scorer& score, Outcome* out);

// Tables equal cell by cell (missingness and string form).
bool TablesEqual(const grimp::Table& a, const grimp::Table& b);

// Copies rows [begin, end) of `table` into a new table with its schema.
grimp::Table CopyRows(const grimp::Table& table, int64_t begin, int64_t end);

// In-memory span tracer. Disabled (every call a no-op) unless the run was
// started with --trace 1.
class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Opens a span on the calling thread; its parent is the innermost span
  // still open on this thread. Returns the span id (-1 when disabled).
  int64_t Open(const char* name, int64_t request = -1);
  void Close(int64_t id);
  // Records an already-finished span (start/end in NowSeconds() time),
  // parented like Open.
  void Add(const char* name, double start, double end, int64_t request = -1);

  size_t size() const;

  // Writes the spans as Chrome trace-event JSON, plus a per-name summary
  // of count, total and self time (duration minus the part covered by
  // child spans). `env` is embedded verbatim as metadata.
  bool Write(const std::string& path, const std::string& env_json) const;

 private:
  struct Record {
    const char* name;
    int64_t parent;
    int64_t request;
    double start;
    double end;  // < start while open
    uint32_t thread;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

// RAII span: Tracer::Open on construction, Close on destruction.
class Span {
 public:
  explicit Span(const char* name, int64_t request = -1)
      : id_(Tracer::Get().Open(name, request)) {}
  ~Span() { Tracer::Get().Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_;
};

// Tracing overhead in a traced run: span recording is switched off and on
// op by op, so the traced and the untraced ops see the same phases of the
// workload. Reports their medians' difference as a percentage of the
// untraced median (trace.overhead_pct). Inactive (a no-op) when untraced.
class TraceInterleave {
 public:
  explicit TraceInterleave(bool active);
  ~TraceInterleave();  // leaves span recording on
  TraceInterleave(const TraceInterleave&) = delete;
  TraceInterleave& operator=(const TraceInterleave&) = delete;

  // Files the op that just finished under the current state, then flips
  // it for the next op.
  void Record(double op_ms);
  void Report(Outcome* out) const;

 private:
  bool active_;
  std::vector<double> traced_ms_;
  std::vector<double> untraced_ms_;
};

// Runs fn() inside a span named `name` and returns its wall seconds.
template <typename F>
double Timed(const char* name, F&& fn) {
  Span span(name);
  const double t0 = NowSeconds();
  fn();
  return NowSeconds() - t0;
}

}  // namespace grimpbench

#endif  // GRIMPBENCH_HARNESS_H_
