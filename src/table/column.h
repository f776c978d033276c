#ifndef GRIMP_TABLE_COLUMN_H_
#define GRIMP_TABLE_COLUMN_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "table/dictionary.h"
#include "table/schema.h"

namespace grimp {

// One attribute's data. Missing values (the paper's sentinel token) are
// code -1 / NaN. Both categorical and numerical columns keep a value
// Dictionary: the paper treats numbers as strings (rounded to
// `kNumericPrecision` decimal places) when assigning graph cell nodes, so
// numeric cells also carry a dense code identifying their rounded value.
class Column {
 public:
  // Decimal places used to canonicalize numeric values as strings (§3.2).
  static constexpr int kNumericPrecision = 8;

  explicit Column(Field field) : field_(std::move(field)) {}

  const Field& field() const { return field_; }
  const std::string& name() const { return field_.name; }
  AttrType type() const { return field_.type; }
  bool is_categorical() const { return field_.type == AttrType::kCategorical; }

  int64_t num_rows() const { return static_cast<int64_t>(codes_.size()); }

  // --- Appends ------------------------------------------------------------
  void AppendMissing();
  // Categorical columns only.
  void AppendCategorical(const std::string& value);
  // Numerical columns only.
  void AppendNumerical(double value);
  // Type-dispatching append from a string cell (numeric columns parse).
  // InvalidArgument if a numeric column receives an unparseable value, in
  // which case nothing was appended.
  Status AppendFromString(const std::string& value);

  // --- Bulk construction ---------------------------------------------------
  // The append path above hashes every cell's string into the dictionary;
  // at millions of rows that dominates generation. Bulk builders instead
  // intern each distinct value once, then append dense codes.
  //
  // Interns `value` (without recording an occurrence) and returns its code.
  int32_t InternValue(const std::string& value) {
    return dict_.GetOrAdd(value);
  }
  // Appends a run of cells by pre-interned code (-1 == missing) in one
  // call, each code range-checked and counted (Dictionary::
  // AddOccurrences). Categorical only.
  void AppendCodes(std::span<const int32_t> codes);
  // Numerical variant: values[i] is cell i's numeric value (it should
  // round-trip with the interned canonical string, like AppendNumerical).
  void AppendCodes(std::span<const int32_t> codes,
                   std::span<const double> values);
  void Reserve(int64_t rows);

  // --- Accessors ------------------------------------------------------------
  bool IsMissing(int64_t row) const { return codes_[Idx(row)] < 0; }
  // Dense code of the (possibly rounded) cell value; -1 when missing.
  int32_t CodeAt(int64_t row) const { return codes_[Idx(row)]; }
  // Numeric value; NaN when missing. Numerical columns only.
  double NumAt(int64_t row) const;
  // String form: dictionary value, or "" when missing.
  const std::string& StringAt(int64_t row) const;

  const Dictionary& dict() const { return dict_; }

  // --- Mutators (corruption / imputation) ----------------------------------
  void SetMissing(int64_t row);
  void SetCategorical(int64_t row, const std::string& value);
  void SetNumerical(int64_t row, double value);
  // Overwrites from the rounded-string domain code (imputation output).
  void SetFromCode(int64_t row, int32_t code);

  // Number of non-missing cells.
  int64_t NumPresent() const;
  // Mean/stddev over present numeric cells (0/1 fallback when empty).
  void NumericMoments(double* mean, double* stddev) const;

  // Canonical rounded-string form of a double (identity of numeric nodes).
  static std::string CanonicalNumeric(double value);

 private:
  size_t Idx(int64_t row) const {
    GRIMP_CHECK(row >= 0 && row < num_rows());
    return static_cast<size_t>(row);
  }

  Field field_;
  Dictionary dict_;
  std::vector<int32_t> codes_;  // -1 == missing
  std::vector<double> nums_;    // parallel to codes_ for numerical columns
};

}  // namespace grimp

#endif  // GRIMP_TABLE_COLUMN_H_
