#include "table/column.h"

#include <limits>

#include "common/string_util.h"

namespace grimp {

namespace {
const std::string& EmptyStringRef() {
  static const std::string* const kEmpty = new std::string();
  return *kEmpty;
}
}  // namespace

void Column::AppendMissing() {
  codes_.push_back(-1);
  if (!is_categorical()) {
    nums_.push_back(std::numeric_limits<double>::quiet_NaN());
  }
}

void Column::AppendCategorical(const std::string& value) {
  GRIMP_CHECK(is_categorical());
  int32_t code = dict_.GetOrAdd(value);
  dict_.AddOccurrence(code);
  codes_.push_back(code);
}

void Column::AppendNumerical(double value) {
  GRIMP_CHECK(!is_categorical());
  int32_t code = dict_.GetOrAdd(CanonicalNumeric(value));
  dict_.AddOccurrence(code);
  codes_.push_back(code);
  nums_.push_back(value);
}

void Column::AppendCodes(std::span<const int32_t> codes) {
  GRIMP_CHECK(is_categorical());
  dict_.AddOccurrences(codes);
  codes_.insert(codes_.end(), codes.begin(), codes.end());
}

void Column::AppendCodes(std::span<const int32_t> codes,
                         std::span<const double> values) {
  GRIMP_CHECK(!is_categorical());
  GRIMP_CHECK_EQ(codes.size(), values.size());
  dict_.AddOccurrences(codes);
  codes_.insert(codes_.end(), codes.begin(), codes.end());
  for (size_t i = 0; i < codes.size(); ++i) {
    nums_.push_back(codes[i] >= 0 ? values[i]
                                  : std::numeric_limits<double>::quiet_NaN());
  }
}

void Column::Reserve(int64_t rows) {
  codes_.reserve(static_cast<size_t>(rows));
  if (!is_categorical()) nums_.reserve(static_cast<size_t>(rows));
}

Status Column::AppendFromString(const std::string& value) {
  if (is_categorical()) {
    AppendCategorical(value);
    return Status::OK();
  }
  double v = 0.0;
  if (!ParseDouble(value, &v)) {
    return Status::InvalidArgument("unparseable numeric cell '" + value +
                                   "' in column " + name());
  }
  AppendNumerical(v);
  return Status::OK();
}

double Column::NumAt(int64_t row) const {
  GRIMP_CHECK(!is_categorical());
  return nums_[Idx(row)];
}

const std::string& Column::StringAt(int64_t row) const {
  int32_t code = codes_[Idx(row)];
  if (code < 0) return EmptyStringRef();
  return dict_.ValueOf(code);
}

void Column::SetMissing(int64_t row) {
  size_t i = Idx(row);
  if (codes_[i] >= 0) dict_.AddOccurrence(codes_[i], -1);
  codes_[i] = -1;
  if (!is_categorical()) nums_[i] = std::numeric_limits<double>::quiet_NaN();
}

void Column::SetCategorical(int64_t row, const std::string& value) {
  GRIMP_CHECK(is_categorical());
  size_t i = Idx(row);
  if (codes_[i] >= 0) dict_.AddOccurrence(codes_[i], -1);
  int32_t code = dict_.GetOrAdd(value);
  dict_.AddOccurrence(code);
  codes_[i] = code;
}

void Column::SetNumerical(int64_t row, double value) {
  GRIMP_CHECK(!is_categorical());
  size_t i = Idx(row);
  if (codes_[i] >= 0) dict_.AddOccurrence(codes_[i], -1);
  int32_t code = dict_.GetOrAdd(CanonicalNumeric(value));
  dict_.AddOccurrence(code);
  codes_[i] = code;
  nums_[i] = value;
}

void Column::SetFromCode(int64_t row, int32_t code) {
  GRIMP_CHECK(code >= 0 && code < dict_.size());
  if (is_categorical()) {
    SetCategorical(row, dict_.ValueOf(code));
  } else {
    double v = 0.0;
    GRIMP_CHECK(ParseDouble(dict_.ValueOf(code), &v));
    SetNumerical(row, v);
  }
}

int64_t Column::NumPresent() const {
  int64_t n = 0;
  for (int32_t c : codes_) n += c >= 0;
  return n;
}

void Column::NumericMoments(double* mean, double* stddev) const {
  GRIMP_CHECK(!is_categorical());
  double sum = 0.0;
  int64_t n = 0;
  for (double v : nums_) {
    if (!std::isnan(v)) {
      sum += v;
      ++n;
    }
  }
  if (n == 0) {
    *mean = 0.0;
    *stddev = 1.0;
    return;
  }
  *mean = sum / static_cast<double>(n);
  double sq = 0.0;
  for (double v : nums_) {
    if (!std::isnan(v)) {
      const double d = v - *mean;
      sq += d * d;
    }
  }
  *stddev = n > 1 ? std::sqrt(sq / static_cast<double>(n)) : 1.0;
  if (*stddev < 1e-12) *stddev = 1.0;
}

std::string Column::CanonicalNumeric(double value) {
  return FormatDouble(value, kNumericPrecision);
}

}  // namespace grimp
