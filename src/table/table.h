#ifndef GRIMP_TABLE_TABLE_H_
#define GRIMP_TABLE_TABLE_H_

#include <string>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "table/column.h"
#include "table/schema.h"

namespace grimp {

// A relational dataset D with n tuples and m attributes (paper §2).
// Columnar storage; cells can be missing (the sentinel token).
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  // Builds a table from parsed CSV. Column types are inferred: a column is
  // numerical iff every non-missing cell parses as a double. Cells matching
  // one of `missing_tokens` become missing.
  static Result<Table> FromCsv(
      const CsvData& csv,
      const std::vector<std::string>& missing_tokens = {"", "?", "NULL",
                                                        "NA"});
  static Result<Table> FromCsvFile(const std::string& path);

  const Schema& schema() const { return schema_; }
  int num_cols() const { return schema_.num_fields(); }
  int64_t num_rows() const { return num_rows_; }

  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  Column& mutable_column(int i) { return columns_[static_cast<size_t>(i)]; }

  // Appends a row of string cells; empty string == missing. Numeric columns
  // parse their cells. All-or-nothing: on error (cell-count mismatch,
  // unparseable numeric cell) the table is unchanged.
  Status AppendRow(const std::vector<std::string>& cells);

  // Validates a candidate row against the schema without mutating anything
  // (what AppendRow checks before it writes). Lets batch ingest reject a
  // whole batch up front instead of stopping halfway.
  Status CheckRow(const std::vector<std::string>& cells) const;

  // Overwrites one cell from its string form (empty string == set
  // missing); numeric columns parse. Typed sibling of the raw Column
  // mutators: OutOfRange for a bad coordinate, InvalidArgument for an
  // unparseable numeric value; the table is unchanged on error.
  Status UpdateCell(int64_t row, int col, const std::string& value);

  // Bulk construction: after cells have been written straight into the
  // columns (Column::AppendCodes), commits the new row count. Fails if the
  // columns disagree on how many rows they now hold.
  Status CommitBulkRows();

  bool IsMissing(int64_t row, int col) const {
    return column(col).IsMissing(row);
  }
  // Total missing cells / total cells.
  double MissingFraction() const;
  // Number of distinct non-missing values over the whole table.
  int64_t NumDistinctValues() const;
  // Rows containing at least one missing value.
  int64_t NumDirtyRows() const;

  CsvData ToCsv() const;

 private:
  // CheckRow's work; also stores each numeric cell's parsed value at
  // numeric[col] when `numeric` is non-null.
  Status ParseRow(const std::vector<std::string>& cells,
                  double* numeric) const;

  Schema schema_;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
};

}  // namespace grimp

#endif  // GRIMP_TABLE_TABLE_H_
