#include "core/task_index.h"

#include <algorithm>
#include <limits>

#include "common/thread_pool.h"

namespace grimp {

namespace {

// Writes the cell node ids of `table`'s row `row` to out[c], shifted by
// `node_offset`; -1 for a missing cell or a value without a node.
void ResolveRow(const Table& table, const TableGraph& tg, int64_t row,
                int64_t node_offset, int32_t* out) {
  for (int c = 0; c < table.num_cols(); ++c) {
    const int64_t node = tg.CellNode(c, table.column(c).CodeAt(row));
    out[c] = node < 0 ? -1 : static_cast<int32_t>(node + node_offset);
  }
}

}  // namespace

void BuildTrainTasks(const Table& table, const TableGraph& tg,
                     std::span<const TrainingSample> train,
                     std::span<const TrainingSample> validation,
                     const TaskLabeling& labeling,
                     std::vector<TrainTask>* tasks) {
  const int m = table.num_cols();
  const size_t num_train = train.size();
  const size_t num_samples = num_train + validation.size();
  if (num_samples == 0) return;
  const auto sample = [&](size_t i) -> const TrainingSample& {
    return i < num_train ? train[i] : validation[i - num_train];
  };

  // Each sample's position in its task's list, and every list's length.
  std::vector<int32_t> pos(num_samples);
  std::vector<int64_t> num_kept(tasks->size() * 2, 0);
  int64_t row_lo = std::numeric_limits<int64_t>::max();
  int64_t row_hi = -1;
  for (size_t i = 0; i < num_samples; ++i) {
    const TrainingSample& s = sample(i);
    const bool val = i >= num_train;
    pos[i] = static_cast<int32_t>(
        num_kept[labeling.TaskOf(s.target_col) * 2 + (val ? 1 : 0)]++);
    row_lo = std::min(row_lo, s.row);
    row_hi = std::max(row_hi, s.row);
  }

  // One row of node ids per row some sample names, in row order: row_slot
  // maps a row of [row_lo, row_hi] to its place in `nodes`.
  std::vector<int32_t> row_slot(static_cast<size_t>(row_hi - row_lo + 1), -1);
  for (size_t i = 0; i < num_samples; ++i) {
    row_slot[static_cast<size_t>(sample(i).row - row_lo)] = 0;
  }
  std::vector<int64_t> rows;
  for (size_t r = 0; r < row_slot.size(); ++r) {
    if (row_slot[r] < 0) continue;
    row_slot[r] = static_cast<int32_t>(rows.size());
    rows.push_back(row_lo + static_cast<int64_t>(r));
  }
  std::vector<int32_t> nodes(rows.size() * static_cast<size_t>(m));
  ParallelFor(0, static_cast<int64_t>(rows.size()), 256,
              [&](int64_t lo, int64_t hi) {
    for (int64_t k = lo; k < hi; ++k) {
      ResolveRow(table, tg, rows[static_cast<size_t>(k)], /*node_offset=*/0,
                 nodes.data() + k * m);
    }
  });

  for (size_t t = 0; t < tasks->size(); ++t) {
    TrainTask& task = (*tasks)[t];
    const int64_t n_train = num_kept[t * 2];
    const int64_t n_val = num_kept[t * 2 + 1];
    task.train_idx.resize(static_cast<size_t>(n_train * m));
    task.val_idx.resize(static_cast<size_t>(n_val * m));
    if (task.categorical) {
      task.train_labels.resize(static_cast<size_t>(n_train));
      task.val_labels.resize(static_cast<size_t>(n_val));
    } else {
      task.train_targets.resize(static_cast<size_t>(n_train));
      task.val_targets.resize(static_cast<size_t>(n_val));
    }
  }

  // A sample's vector is its row with the target masked.
  ParallelFor(0, static_cast<int64_t>(num_samples), 1024,
              [&](int64_t lo, int64_t hi) {
    for (auto i = static_cast<size_t>(lo); i < static_cast<size_t>(hi); ++i) {
      const TrainingSample& s = sample(i);
      const bool val = i >= num_train;
      const int col = s.target_col;
      TrainTask& task = (*tasks)[labeling.TaskOf(col)];
      const auto p = static_cast<size_t>(pos[i]);
      int32_t* dst = (val ? task.val_idx : task.train_idx).data() + p * m;
      const int32_t* src =
          nodes.data() +
          static_cast<size_t>(row_slot[static_cast<size_t>(s.row - row_lo)]) *
              static_cast<size_t>(m);
      std::copy(src, src + m, dst);
      dst[col] = -1;
      const Column& column = table.column(col);
      if (task.categorical) {
        int32_t label = column.CodeAt(s.row);
        if (!labeling.class_offsets.empty()) {
          label += labeling.class_offsets[static_cast<size_t>(col)];
        }
        (val ? task.val_labels : task.train_labels)[p] = label;
      } else {
        (val ? task.val_targets : task.train_targets)[p] =
            static_cast<float>(
                labeling.normalizer->Normalize(col, column.NumAt(s.row)));
      }
    }
  });
}

void ImputeIndex::Clear(size_t num_tasks) {
  row_nodes.clear();
  task_cells.resize(num_tasks);
  task_idx.resize(num_tasks);
  for (size_t t = 0; t < num_tasks; ++t) {
    task_cells[t].clear();
    task_idx[t].clear();
  }
}

void CollectMissingCells(const Table& table, const TableGraph& tg,
                         int64_t row_begin, int64_t num_rows, size_t request,
                         int64_t node_offset, const TaskLabeling& labeling,
                         ImputeIndex* index) {
  const int m = table.num_cols();
  std::vector<int32_t>& nodes = index->row_nodes;
  const size_t base = nodes.size();
  nodes.resize(base + static_cast<size_t>(num_rows * m));
  ParallelFor(0, num_rows, 256, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      ResolveRow(table, tg, row_begin + r, node_offset,
                 nodes.data() + base + r * m);
    }
  });
  // Keep the rows with a missing cell, moved down over the others.
  auto slot = static_cast<int32_t>(base / static_cast<size_t>(m));
  for (int64_t r = 0; r < num_rows; ++r) {
    bool kept = false;
    for (int c = 0; c < m; ++c) {
      if (!table.IsMissing(row_begin + r, c)) continue;
      if (!kept) {
        const auto from = base + static_cast<size_t>(r * m);
        const auto to = static_cast<size_t>(slot) * static_cast<size_t>(m);
        if (from != to) {
          std::copy(nodes.begin() + from, nodes.begin() + from + m,
                    nodes.begin() + to);
        }
        kept = true;
      }
      index->task_cells[labeling.TaskOf(c)].push_back(
          MissingCell{request, r, c, slot});
    }
    slot += kept ? 1 : 0;
  }
  nodes.resize(static_cast<size_t>(slot) * static_cast<size_t>(m));
}

void FillTaskIndices(int num_cols, ImputeIndex* index) {
  const auto m = static_cast<size_t>(num_cols);
  for (size_t t = 0; t < index->task_cells.size(); ++t) {
    const std::vector<MissingCell>& cells = index->task_cells[t];
    std::vector<int32_t>& idx = index->task_idx[t];
    idx.resize(cells.size() * m);
    for (size_t i = 0; i < cells.size(); ++i) {
      const auto src =
          index->row_nodes.begin() + static_cast<size_t>(cells[i].slot) * m;
      std::copy(src, src + m, idx.begin() + i * m);
    }
  }
}

void CompactImputeIndex(int num_cols, int64_t num_nodes, ImputeIndex* index,
                        std::vector<int32_t>* read_rows,
                        ReadRowScratch* scratch) {
  const std::vector<int32_t>* nodes = &index->row_nodes;
  CompactToReadRows(std::span(&nodes, 1), num_nodes, read_rows,
                    std::span(&index->row_nodes, 1), scratch);
  FillTaskIndices(num_cols, index);
}

}  // namespace grimp
