#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <atomic>
#include <fstream>
#include <thread>

#include "common/metrics.h"

namespace grimpbench {

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& m : metrics) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Outcome::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "grimpbench: CHECK FAILED: %s\n", why.c_str());
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::clamp(
      rank - 1.0, 0.0, static_cast<double>(values.size() - 1)));
  return values[idx];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

bool TailReportable(size_t n, double q) {
  return (1.0 - q) * static_cast<double>(n) >= 10.0 - 1e-9;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

int MaxThreads() {
  int threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads <= 0) threads = 1;
  if (const char* env = std::getenv("GRIMP_NUM_THREADS")) {
    const int cap = std::atoi(env);
    if (cap > 0) threads = std::min(threads, cap);
  }
  return threads;
}

CounterDelta::CounterDelta(const std::vector<std::string>& names) {
  grimp::MetricsRegistry& registry = grimp::MetricsRegistry::Global();
  for (const std::string& name : names) {
    start_[name] = registry.GetCounter(name).value();
  }
}

int64_t CounterDelta::Get(const std::string& name) const {
  const auto it = start_.find(name);
  const int64_t start = it == start_.end() ? 0 : it->second;
  return grimp::MetricsRegistry::Global().GetCounter(name).value() - start;
}

Scorer::Scorer(const grimp::Table& reference, const grimp::Table& clean)
    : clean_(clean) {
  for (int c = 0; c < clean.num_cols(); ++c) {
    std::map<std::string, int64_t> counts;
    const grimp::Column& ref = reference.column(c);
    for (int64_t r = 0; r < reference.num_rows(); ++r) {
      if (!ref.IsMissing(r)) ++counts[ref.StringAt(r)];
    }
    std::string mode;
    int64_t best = 0;
    for (const auto& [value, count] : counts) {
      if (count > best) {
        best = count;
        mode = value;
      }
    }
    modes_.push_back(mode);

    double stddev = 1.0;
    const grimp::Column& column = clean.column(c);
    if (!column.is_categorical()) {
      double sum = 0.0, sum_sq = 0.0;
      int64_t n = 0;
      for (int64_t r = 0; r < clean.num_rows(); ++r) {
        if (column.IsMissing(r)) continue;
        sum += column.NumAt(r);
        sum_sq += column.NumAt(r) * column.NumAt(r);
        ++n;
      }
      const double mean = n > 0 ? sum / static_cast<double>(n) : 0.0;
      const double var =
          n > 1 ? sum_sq / static_cast<double>(n) - mean * mean : 0.0;
      if (var > 1e-12) stddev = std::sqrt(var);
    }
    stddev_.push_back(stddev);
  }
}

void Scorer::AddRows(const grimp::Table& imputed, const grimp::Table& dirty,
                     int64_t clean_begin) {
  for (int64_t w = 0; w < imputed.num_rows(); ++w) {
    const int64_t r = clean_begin + w;
    for (int c = 0; c < imputed.num_cols(); ++c) {
      if (!dirty.IsMissing(r, c)) continue;
      AddCell(r, c,
              imputed.IsMissing(w, c) ? std::string()
                                      : imputed.column(c).StringAt(w));
    }
  }
}

void Scorer::AddCell(int64_t row, int col, const std::string& value) {
  const grimp::Column& column = clean_.column(col);
  if (column.is_categorical()) {
    ++categorical_;
    if (value == column.StringAt(row)) ++correct_;
    if (modes_[static_cast<size_t>(col)] == column.StringAt(row)) {
      ++mode_correct_;
    }
    return;
  }
  ++numerical_;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  // An unparseable or empty numeric answer scores as one stddev off.
  const double err = end == value.c_str()
                         ? 1.0
                         : (v - column.NumAt(row)) /
                               stddev_[static_cast<size_t>(col)];
  squared_error_norm_ += err * err;
}

double Scorer::Accuracy() const {
  return categorical_ > 0 ? static_cast<double>(correct_) /
                                static_cast<double>(categorical_)
                          : 0.0;
}

double Scorer::ModeAccuracy() const {
  return categorical_ > 0 ? static_cast<double>(mode_correct_) /
                                static_cast<double>(categorical_)
                          : 0.0;
}

double Scorer::Rmse() const {
  return numerical_ > 0 ? std::sqrt(squared_error_norm_ /
                                    static_cast<double>(numerical_))
                        : 0.0;
}

void CheckQuality(const Scorer& score, Outcome* out) {
  std::printf("  accuracy %.4f over %lld categorical cells (mode baseline "
              "%.4f), numerical rmse %.4f stddev over %lld cells\n",
              score.Accuracy(), static_cast<long long>(score.categorical()),
              score.ModeAccuracy(), score.Rmse(),
              static_cast<long long>(score.numerical()));
  if (score.categorical() == 0 || score.Accuracy() <= score.ModeAccuracy()) {
    out->Fail("imputation accuracy does not beat the most-frequent-value "
              "baseline");
  }
}

bool TablesEqual(const grimp::Table& a, const grimp::Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_cols() != b.num_cols()) {
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_cols(); ++c) {
      if (a.IsMissing(r, c) != b.IsMissing(r, c)) return false;
      if (!a.IsMissing(r, c) &&
          a.column(c).StringAt(r) != b.column(c).StringAt(r)) {
        return false;
      }
    }
  }
  return true;
}

grimp::Table CopyRows(const grimp::Table& table, int64_t begin, int64_t end) {
  grimp::Table out(table.schema());
  std::vector<std::string> cells(static_cast<size_t>(table.num_cols()));
  for (int64_t r = begin; r < end; ++r) {
    for (int c = 0; c < table.num_cols(); ++c) {
      cells[static_cast<size_t>(c)] =
          table.IsMissing(r, c) ? std::string() : table.column(c).StringAt(r);
    }
    if (!out.AppendRow(cells).ok()) std::abort();
  }
  return out;
}

// --- Tracer -----------------------------------------------------------------

namespace {

thread_local std::vector<int64_t> open_spans;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next++;
  return index;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t Tracer::Open(const char* name, int64_t request) {
  if (!enabled_) return -1;
  const int64_t parent = open_spans.empty() ? -1 : open_spans.back();
  const double now = NowSeconds();
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(records_.size());
    records_.push_back({name, parent, request, now, now - 1.0, ThreadIndex()});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::Close(int64_t id) {
  if (id < 0) return;
  const double now = NowSeconds();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<size_t>(id)].end = now;
}

void Tracer::Add(const char* name, double start, double end,
                 int64_t request) {
  if (!enabled_) return;
  const int64_t parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back({name, parent, request, start, end, ThreadIndex()});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

TraceInterleave::TraceInterleave(bool active) : active_(active) {}

TraceInterleave::~TraceInterleave() {
  if (active_) Tracer::Get().Enable();
}

void TraceInterleave::Record(double op_ms) {
  if (!active_) return;
  Tracer& tracer = Tracer::Get();
  (tracer.enabled() ? traced_ms_ : untraced_ms_).push_back(op_ms);
  if (tracer.enabled()) {
    tracer.Disable();
  } else {
    tracer.Enable();
  }
}

void TraceInterleave::Report(Outcome* out) const {
  const double base = Median(untraced_ms_);
  out->Set("trace.overhead_pct",
           base > 0 ? (Median(traced_ms_) - base) / base * 100.0 : 0.0, "%");
}

bool Tracer::Write(const std::string& path,
                   const std::string& env_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  // Self time: duration minus the union of direct children's intervals
  // (children of one parent run on the parent's thread, or are finished
  // spans parented explicitly, so they are treated as disjoint).
  std::vector<double> child_time(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0 && r.end >= r.start) {
      child_time[static_cast<size_t>(r.parent)] += r.end - r.start;
    }
  }
  struct Summary {
    int64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Summary> summary;
  const double t0 = records_.empty() ? 0.0 : records_.front().start;
  out << "{\"metadata\": " << env_json << ",\n \"traceEvents\": [\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end < r.start) continue;
    const double dur = r.end - r.start;
    Summary& s = summary[r.name];
    ++s.count;
    s.total += dur;
    s.self += std::max(0.0, dur - child_time[i]);
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %lld, \"request\": %lld}},\n",
                  r.name, r.thread, (r.start - t0) * 1e6, dur * 1e6, i,
                  static_cast<long long>(r.parent),
                  static_cast<long long>(r.request));
    out << buf;
  }
  out << "  {\"name\": \"end\", \"ph\": \"i\", \"pid\": 1, \"tid\": 0, "
         "\"ts\": 0, \"s\": \"g\"}\n ],\n \"summary\": {\n";
  size_t k = 0;
  for (const auto& [name, s] : summary) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"%s\": {\"count\": %lld, \"total_s\": %.6f, "
                  "\"self_s\": %.6f}%s\n",
                  name.c_str(), static_cast<long long>(s.count), s.total,
                  s.self, ++k < summary.size() ? "," : "");
    out << buf;
  }
  out << " }\n}\n";
  return static_cast<bool>(out);
}

}  // namespace grimpbench
