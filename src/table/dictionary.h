#ifndef GRIMP_TABLE_DICTIONARY_H_
#define GRIMP_TABLE_DICTIONARY_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace grimp {

// Per-attribute value dictionary: bidirectional mapping between the string
// values of Dom(A_i) and dense int32 codes, plus occurrence counts (needed
// by the frequency-based metrics of §5 and EmbDI edge weights).
class Dictionary {
 public:
  // Returns the code for `value`, inserting it if new.
  int32_t GetOrAdd(const std::string& value);
  // Returns the code or -1 if absent.
  int32_t Find(const std::string& value) const;
  // Code -> string. Code must be valid.
  const std::string& ValueOf(int32_t code) const;

  void AddOccurrence(int32_t code, int64_t delta = 1);
  // One occurrence per non-negative entry of `codes` (-1 is a missing cell
  // and counts nothing); every entry is range-checked.
  void AddOccurrences(std::span<const int32_t> codes);
  int64_t CountOf(int32_t code) const;

  int32_t size() const { return static_cast<int32_t>(values_.size()); }
  const std::vector<std::string>& values() const { return values_; }
  const std::vector<int64_t>& counts() const { return counts_; }

  // Code with the highest occurrence count (-1 if empty).
  int32_t MostFrequent() const;

  // The paper's decode rule (§3.7: candidates come from Dom(A_i) only):
  // the live code (CountOf > 0) with the highest score, where scores[code]
  // is the code's score and the first maximum wins. -1 when no code is
  // live.
  int32_t ArgmaxLive(const float* scores) const;

 private:
  std::unordered_map<std::string, int32_t> index_;
  std::vector<std::string> values_;
  std::vector<int64_t> counts_;
};

}  // namespace grimp

#endif  // GRIMP_TABLE_DICTIONARY_H_
