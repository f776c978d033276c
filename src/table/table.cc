#include "table/table.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"

namespace grimp {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (const Field& f : schema_.fields()) columns_.emplace_back(f);
}

Result<Table> Table::FromCsv(const CsvData& csv,
                             const std::vector<std::string>& missing_tokens) {
  if (csv.header.empty()) return Status::InvalidArgument("CSV has no header");
  auto is_missing = [&missing_tokens](const std::string& s) {
    return std::find(missing_tokens.begin(), missing_tokens.end(), s) !=
           missing_tokens.end();
  };
  const int ncols = static_cast<int>(csv.header.size());
  // Type inference: numerical iff all non-missing cells parse as doubles
  // and at least one cell is present.
  std::vector<Field> fields(static_cast<size_t>(ncols));
  for (int c = 0; c < ncols; ++c) {
    fields[static_cast<size_t>(c)].name = csv.header[static_cast<size_t>(c)];
    bool all_numeric = true;
    bool any_present = false;
    for (const auto& row : csv.rows) {
      const std::string& cell = row[static_cast<size_t>(c)];
      if (is_missing(cell)) continue;
      any_present = true;
      double v;
      if (!ParseDouble(cell, &v)) {
        all_numeric = false;
        break;
      }
    }
    fields[static_cast<size_t>(c)].type = (all_numeric && any_present)
                                              ? AttrType::kNumerical
                                              : AttrType::kCategorical;
  }
  Table table{Schema(std::move(fields))};
  for (const auto& row : csv.rows) {
    for (int c = 0; c < ncols; ++c) {
      Column& col = table.mutable_column(c);
      const std::string& cell = row[static_cast<size_t>(c)];
      if (is_missing(cell)) {
        col.AppendMissing();
      } else {
        GRIMP_RETURN_IF_ERROR(col.AppendFromString(cell));
      }
    }
    ++table.num_rows_;
  }
  return table;
}

Result<Table> Table::FromCsvFile(const std::string& path) {
  GRIMP_ASSIGN_OR_RETURN(auto csv, ReadCsvFile(path));
  return FromCsv(csv);
}

Status Table::AppendRow(const std::vector<std::string>& cells) {
  // Parse every numeric cell before writing anything, so the append is
  // all-or-nothing, and append the parsed values without parsing again.
  std::vector<double> parsed(cells.size());
  GRIMP_RETURN_IF_ERROR(ParseRow(cells, parsed.data()));
  for (int c = 0; c < num_cols(); ++c) {
    Column& col = mutable_column(c);
    const std::string& cell = cells[static_cast<size_t>(c)];
    if (cell.empty()) {
      col.AppendMissing();
    } else if (col.is_categorical()) {
      col.AppendCategorical(cell);
    } else {
      col.AppendNumerical(parsed[static_cast<size_t>(c)]);
    }
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::CheckRow(const std::vector<std::string>& cells) const {
  return ParseRow(cells, nullptr);
}

Status Table::ParseRow(const std::vector<std::string>& cells,
                       double* numeric) const {
  if (static_cast<int>(cells.size()) != num_cols()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(cells.size()) + " cells, schema has " +
        std::to_string(num_cols()));
  }
  for (int c = 0; c < num_cols(); ++c) {
    const Column& col = column(c);
    const std::string& cell = cells[static_cast<size_t>(c)];
    if (cell.empty() || col.is_categorical()) continue;
    double v = 0.0;
    if (!ParseDouble(cell, &v)) {
      return Status::InvalidArgument("unparseable numeric cell '" + cell +
                                     "' in column " + col.name());
    }
    if (numeric != nullptr) numeric[c] = v;
  }
  return Status::OK();
}

Status Table::UpdateCell(int64_t row, int col, const std::string& value) {
  if (row < 0 || row >= num_rows_ || col < 0 || col >= num_cols()) {
    return Status::OutOfRange("cell (" + std::to_string(row) + ", " +
                              std::to_string(col) + ") outside a " +
                              std::to_string(num_rows_) + "x" +
                              std::to_string(num_cols()) + " table");
  }
  Column& target = mutable_column(col);
  if (value.empty()) {
    target.SetMissing(row);
    return Status::OK();
  }
  if (target.is_categorical()) {
    target.SetCategorical(row, value);
    return Status::OK();
  }
  double v = 0.0;
  if (!ParseDouble(value, &v)) {
    return Status::InvalidArgument("unparseable numeric cell '" + value +
                                   "' in column " + target.name());
  }
  target.SetNumerical(row, v);
  return Status::OK();
}

Status Table::CommitBulkRows() {
  if (columns_.empty()) return Status::OK();
  const int64_t rows = columns_[0].num_rows();
  for (const Column& col : columns_) {
    if (col.num_rows() != rows) {
      return Status::InvalidArgument(
          "bulk-appended columns disagree on row count: " + col.name() +
          " has " + std::to_string(col.num_rows()) + ", " +
          columns_[0].name() + " has " + std::to_string(rows));
    }
  }
  num_rows_ = rows;
  return Status::OK();
}

double Table::MissingFraction() const {
  if (num_rows_ == 0 || num_cols() == 0) return 0.0;
  int64_t missing = 0;
  for (const Column& col : columns_) {
    missing += col.num_rows() - col.NumPresent();
  }
  return static_cast<double>(missing) /
         static_cast<double>(num_rows_ * num_cols());
}

int64_t Table::NumDistinctValues() const {
  int64_t total = 0;
  for (const Column& col : columns_) {
    const auto& counts = col.dict().counts();
    for (int64_t c : counts) total += c > 0;
  }
  return total;
}

int64_t Table::NumDirtyRows() const {
  int64_t dirty = 0;
  for (int64_t r = 0; r < num_rows_; ++r) {
    for (int c = 0; c < num_cols(); ++c) {
      if (IsMissing(r, c)) {
        ++dirty;
        break;
      }
    }
  }
  return dirty;
}

CsvData Table::ToCsv() const {
  CsvData csv;
  for (const Field& f : schema_.fields()) csv.header.push_back(f.name);
  csv.rows.reserve(static_cast<size_t>(num_rows_));
  for (int64_t r = 0; r < num_rows_; ++r) {
    std::vector<std::string> row;
    row.reserve(static_cast<size_t>(num_cols()));
    for (int c = 0; c < num_cols(); ++c) {
      row.push_back(column(c).StringAt(r));
    }
    csv.rows.push_back(std::move(row));
  }
  return csv;
}

}  // namespace grimp
