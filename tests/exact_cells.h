#ifndef GRIMP_TESTS_EXACT_CELLS_H_
#define GRIMP_TESTS_EXACT_CELLS_H_

#include <cstdio>
#include <string>

#include "table/table.h"

namespace grimp {

// Every cell of `table` in row-major order, each followed by a unit
// separator: a categorical cell as its string, a numerical one as its hex
// float (exact, unlike the 8-digit canonical string), a missing one as
// nothing. Pin tests digest it with Checksum64.
inline std::string ExactCells(const Table& table) {
  std::string cells;
  char hex[32];
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_cols(); ++c) {
      const Column& column = table.column(c);
      if (column.is_categorical() || column.IsMissing(r)) {
        cells += column.StringAt(r);
      } else {
        std::snprintf(hex, sizeof(hex), "%a", column.NumAt(r));
        cells += hex;
      }
      cells += '\x1f';
    }
  }
  return cells;
}

}  // namespace grimp

#endif  // GRIMP_TESTS_EXACT_CELLS_H_
