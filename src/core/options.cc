#include "core/options.h"

#include <string>

namespace grimp {

Status GrimpOptions::Validate() const {
  if (dim <= 0) {
    return Status::InvalidArgument("GrimpOptions.dim must be > 0, got " +
                                   std::to_string(dim));
  }
  if (shared_hidden <= 0) {
    return Status::InvalidArgument(
        "GrimpOptions.shared_hidden must be > 0, got " +
        std::to_string(shared_hidden));
  }
  if (task_hidden <= 0) {
    return Status::InvalidArgument(
        "GrimpOptions.task_hidden must be > 0, got " +
        std::to_string(task_hidden));
  }
  if (gnn_layers <= 0) {
    return Status::InvalidArgument(
        "GrimpOptions.gnn_layers must be > 0, got " +
        std::to_string(gnn_layers));
  }
  if (max_epochs <= 0) {
    return Status::InvalidArgument(
        "GrimpOptions.max_epochs must be > 0, got " +
        std::to_string(max_epochs));
  }
  if (patience < 0) {
    return Status::InvalidArgument("GrimpOptions.patience must be >= 0, got " +
                                   std::to_string(patience));
  }
  // 0 disables validation (used for tiny tables); 1.0 would leave no
  // training split.
  if (validation_fraction < 0.0 || validation_fraction >= 1.0) {
    return Status::InvalidArgument(
        "GrimpOptions.validation_fraction must be in [0, 1), got " +
        std::to_string(validation_fraction));
  }
  if (!(learning_rate > 0.0f)) {  // rejects NaN too
    return Status::InvalidArgument(
        "GrimpOptions.learning_rate must be > 0, got " +
        std::to_string(learning_rate));
  }
  if (grad_clip < 0.0f) {
    return Status::InvalidArgument(
        "GrimpOptions.grad_clip must be >= 0, got " +
        std::to_string(grad_clip));
  }
  if (focal_gamma < 0.0f) {
    return Status::InvalidArgument(
        "GrimpOptions.focal_gamma must be >= 0, got " +
        std::to_string(focal_gamma));
  }
  GRIMP_RETURN_IF_ERROR(graph.Validate());
  if (graph.shard_mode == ShardMode::kSharded &&
      train.mode != TrainMode::kSampled) {
    return Status::InvalidArgument(
        "GrimpOptions.graph.shard_mode=sharded requires train.mode=sampled: "
        "full-mode training runs whole-graph forwards");
  }
  if (max_samples_per_task < 0) {
    return Status::InvalidArgument(
        "GrimpOptions.max_samples_per_task must be >= 0, got " +
        std::to_string(max_samples_per_task));
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "GrimpOptions.num_threads must be >= 0, got " +
        std::to_string(num_threads));
  }
  if (simd != "auto" && simd != "avx2" && simd != "scalar") {
    return Status::InvalidArgument(
        "GrimpOptions.simd must be one of auto|avx2|scalar, got \"" + simd +
        "\"");
  }
  if (k_strategy == KStrategy::kWeakDiagonalFd && fds.empty()) {
    return Status::InvalidArgument(
        "GrimpOptions.k_strategy=weak_diagonal_fd requires non-empty fds");
  }
  if (train.batch_size < 0) {
    return Status::InvalidArgument(
        "GrimpOptions.train.batch_size must be >= 0, got " +
        std::to_string(train.batch_size));
  }
  if (train.pipeline_depth < 0 ||
      train.pipeline_depth > TrainConfig::kMaxPipelineDepth) {
    return Status::InvalidArgument(
        "GrimpOptions.train.pipeline_depth must be in [0, " +
        std::to_string(TrainConfig::kMaxPipelineDepth) + "], got " +
        std::to_string(train.pipeline_depth));
  }
  if (!train.fanouts.empty() &&
      static_cast<int>(train.fanouts.size()) != gnn_layers) {
    return Status::InvalidArgument(
        "GrimpOptions.train.fanouts must be empty or have one entry per "
        "GNN layer (" +
        std::to_string(gnn_layers) + "), got " +
        std::to_string(train.fanouts.size()));
  }
  if (train.mode == TrainMode::kSampled) {
    if (!use_gnn) {
      return Status::InvalidArgument(
          "GrimpOptions.train.mode=sampled contradicts use_gnn=false: "
          "neighbor sampling only shapes message passing");
    }
    if (train.batch_size <= 0) {
      return Status::InvalidArgument(
          "GrimpOptions.train.mode=sampled requires train.batch_size > 0, "
          "got " +
          std::to_string(train.batch_size));
    }
    for (int fanout : train.fanouts) {
      if (fanout <= 0) {
        return Status::InvalidArgument(
            "GrimpOptions.train.mode=sampled contradicts a fanout of " +
            std::to_string(fanout) +
            ": every layer must sample at least one neighbor");
      }
    }
  }
  return Status::OK();
}

}  // namespace grimp
