#ifndef GRIMP_CORE_TASK_INDEX_H_
#define GRIMP_CORE_TASK_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/batch.h"
#include "core/corpus.h"
#include "core/trainer.h"
#include "graph/builder.h"
#include "table/normalizer.h"
#include "table/table.h"

namespace grimp {

// The gather indices of GRIMP's fit (paper §3.3, Fig. 4) and of its
// imputation phase (§3.7). A tuple's vector is its row of cell node ids
// with one cell masked, so both are built from a rows x columns table of
// node ids resolved once per row rather than once per vector: the K masked
// copies of a row are copies of one table row.

// How a fit maps a cell to its task and label: one task per column, or,
// with `class_offsets` (multi_task=false), one task over every column whose
// classes for column c start at class_offsets[c].
struct TaskLabeling {
  std::span<const int32_t> class_offsets;
  const Normalizer* normalizer = nullptr;

  size_t TaskOf(int col) const {
    return class_offsets.empty() ? static_cast<size_t>(col) : 0;
  }
};

// Fills every task's training and validation gather indices, labels and
// targets from the samples of `train` and `validation` over `table` and
// its graph. A task's samples keep their order in the spans. `tasks` holds
// one entry per task with `categorical` set and empty lists.
void BuildTrainTasks(const Table& table, const TableGraph& tg,
                     std::span<const TrainingSample> train,
                     std::span<const TrainingSample> validation,
                     const TaskLabeling& labeling,
                     std::vector<TrainTask>* tasks);

// One missing cell an inference pass imputes: table `request` of the
// batch, its row relative to the collected range, its column, and the
// entry of its row in ImputeIndex::row_nodes.
struct MissingCell {
  size_t request = 0;
  int64_t row = 0;
  int col = 0;
  int32_t slot = 0;
};

// Every missing cell of an inference pass, per task in (request, row,
// column) order, and each task's gather indices over them. Recycled
// storage: Clear keeps every buffer.
struct ImputeIndex {
  // num_cols node ids per collected row (a row with a missing cell), -1
  // for a missing cell.
  std::vector<int32_t> row_nodes;
  std::vector<std::vector<MissingCell>> task_cells;
  // Per task, num_cols ids per cell: its row's node ids.
  std::vector<std::vector<int32_t>> task_idx;

  void Clear(size_t num_tasks);
};

// Appends the missing cells of `table`'s rows [row_begin, row_begin +
// num_rows) to *index as request `request`, with node ids shifted by
// `node_offset` (a request's first node in a batched union graph).
// Column c's cells go to task labeling.TaskOf(c).
void CollectMissingCells(const Table& table, const TableGraph& tg,
                         int64_t row_begin, int64_t num_rows, size_t request,
                         int64_t node_offset, const TaskLabeling& labeling,
                         ImputeIndex* index);

// Fills index->task_idx with node ids (sampled inference reads the graph
// by node id).
void FillTaskIndices(int num_cols, ImputeIndex* index);

// The whole-graph inference form: sets *read_rows to the ascending nodes
// (below num_nodes) the collected rows name and fills index->task_idx with
// positions in it (CompactToReadRows' rule).
void CompactImputeIndex(int num_cols, int64_t num_nodes, ImputeIndex* index,
                        std::vector<int32_t>* read_rows,
                        ReadRowScratch* scratch);

}  // namespace grimp

#endif  // GRIMP_CORE_TASK_INDEX_H_
