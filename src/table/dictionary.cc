#include "table/dictionary.h"

#include "common/logging.h"

namespace grimp {

int32_t Dictionary::GetOrAdd(const std::string& value) {
  auto it = index_.find(value);
  if (it != index_.end()) return it->second;
  int32_t code = static_cast<int32_t>(values_.size());
  index_.emplace(value, code);
  values_.push_back(value);
  counts_.push_back(0);
  return code;
}

int32_t Dictionary::Find(const std::string& value) const {
  auto it = index_.find(value);
  return it == index_.end() ? -1 : it->second;
}

const std::string& Dictionary::ValueOf(int32_t code) const {
  GRIMP_CHECK(code >= 0 && code < size());
  return values_[static_cast<size_t>(code)];
}

void Dictionary::AddOccurrence(int32_t code, int64_t delta) {
  GRIMP_CHECK(code >= 0 && code < size());
  counts_[static_cast<size_t>(code)] += delta;
}

void Dictionary::AddOccurrences(std::span<const int32_t> codes) {
  const int32_t n = size();
  for (const int32_t code : codes) {
    GRIMP_CHECK(code >= -1 && code < n);
    if (code >= 0) ++counts_[static_cast<size_t>(code)];
  }
}

int64_t Dictionary::CountOf(int32_t code) const {
  GRIMP_CHECK(code >= 0 && code < size());
  return counts_[static_cast<size_t>(code)];
}

int32_t Dictionary::MostFrequent() const {
  int32_t best = -1;
  int64_t best_count = -1;
  for (int32_t i = 0; i < size(); ++i) {
    if (counts_[static_cast<size_t>(i)] > best_count) {
      best_count = counts_[static_cast<size_t>(i)];
      best = i;
    }
  }
  return best;
}

int32_t Dictionary::ArgmaxLive(const float* scores) const {
  int32_t best = -1;
  float best_score = 0.0f;
  for (int32_t code = 0; code < size(); ++code) {
    if (counts_[static_cast<size_t>(code)] <= 0) continue;
    if (best < 0 || scores[code] > best_score) {
      best = code;
      best_score = scores[code];
    }
  }
  return best;
}

}  // namespace grimp
