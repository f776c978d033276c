#ifndef GRIMP_TESTS_TRANSFORM_COPY_H_
#define GRIMP_TESTS_TRANSFORM_COPY_H_

#include <span>
#include <vector>

#include "core/engine.h"

namespace grimp {

// Imputes a copy of `table` with GrimpEngine::TransformMany.
inline Result<Table> TransformCopy(const GrimpEngine& engine, Table table) {
  Table* one = &table;
  GRIMP_RETURN_IF_ERROR(
      engine.TransformMany(std::span<Table* const>(&one, 1)));
  return table;
}

// Imputes copies of `tables` with one batched TransformMany call.
inline Result<std::vector<Table>> TransformCopies(
    const GrimpEngine& engine, const std::vector<const Table*>& tables) {
  std::vector<Table> copies;
  copies.reserve(tables.size());
  for (const Table* t : tables) copies.push_back(*t);
  std::vector<Table*> ptrs;
  for (Table& t : copies) ptrs.push_back(&t);
  GRIMP_RETURN_IF_ERROR(engine.TransformMany(ptrs));
  return copies;
}

}  // namespace grimp

#endif  // GRIMP_TESTS_TRANSFORM_COPY_H_
