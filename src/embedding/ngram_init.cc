#include "embedding/ngram_init.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "embedding/random_init.h"

namespace grimp {

namespace {
// Deterministic pseudo-random unit-scale component for (bucket, dim d).
float BucketComponent(uint64_t bucket, int d, uint64_t seed) {
  uint64_t h = bucket * 0x9e3779b97f4a7c15ULL + seed;
  h ^= static_cast<uint64_t>(d) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  // Map to roughly N(0,1) via sum of two uniforms minus 1 (triangular, good
  // enough for feature hashing).
  const double u1 = static_cast<double>(h >> 32) / 4294967296.0;
  const double u2 = static_cast<double>(h & 0xffffffffULL) / 4294967296.0;
  return static_cast<float>(u1 + u2 - 1.0) * 2.0f;
}
}  // namespace

std::vector<float> NgramFeatureInit::EmbedString(const std::string& value,
                                                 int dim,
                                                 uint64_t seed) const {
  std::vector<float> vec(static_cast<size_t>(dim), 0.0f);
  std::string padded;
  EmbedInto(value, dim, seed, vec.data(), &padded);
  return vec;
}

void NgramFeatureInit::EmbedInto(const std::string& value, int dim,
                                 uint64_t seed, float* out,
                                 std::string* padded_scratch) const {
  for (int d = 0; d < dim; ++d) out[d] = 0.0f;
  if (value.empty()) return;
  std::string& padded = *padded_scratch;
  padded.clear();
  padded += '<';
  padded += value;
  padded += '>';
  int num_ngrams = 0;
  for (int n = min_n_; n <= max_n_; ++n) {
    if (static_cast<size_t>(n) > padded.size()) break;
    for (size_t i = 0; i + static_cast<size_t>(n) <= padded.size(); ++i) {
      const uint64_t h =
          Fnv1a(std::string_view(padded).substr(i, static_cast<size_t>(n)),
                seed) %
          static_cast<uint64_t>(num_buckets_);
      for (int d = 0; d < dim; ++d) {
        out[d] += BucketComponent(h, d, seed);
      }
      ++num_ngrams;
    }
  }
  if (num_ngrams == 0) {
    // Very short value: hash the whole padded token once.
    const uint64_t h =
        Fnv1a(padded, seed) % static_cast<uint64_t>(num_buckets_);
    for (int d = 0; d < dim; ++d) {
      out[d] = BucketComponent(h, d, seed);
    }
    num_ngrams = 1;
  }
  double norm_sq = 0.0;
  for (int d = 0; d < dim; ++d) {
    norm_sq += static_cast<double>(out[d]) * out[d];
  }
  if (norm_sq > 0.0) {
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (int d = 0; d < dim; ++d) out[d] *= inv;
  }
}

Result<PretrainedFeatures> NgramFeatureInit::Init(const Table& table,
                                                  const TableGraph& tg,
                                                  int dim,
                                                  uint64_t seed) const {
  if (dim <= 0) return Status::InvalidArgument("dim must be positive");
  GRIMP_TRACE_SPAN("feature_init");
  PretrainedFeatures out;
  out.node_features = Tensor::Zeros(tg.graph.num_nodes(), dim);
  Tensor& features = out.node_features;
  const int m = table.num_cols();
  // Cell nodes: embed each value string straight into its node's feature
  // row, the (column, code) pairs laid end to end and run on the pool.
  std::vector<int64_t> code_starts(static_cast<size_t>(m) + 1, 0);
  for (int c = 0; c < m; ++c) {
    code_starts[static_cast<size_t>(c) + 1] =
        code_starts[static_cast<size_t>(c)] + table.column(c).dict().size();
  }
  ParallelFor(0, code_starts.back(), 64, [&](int64_t lo, int64_t hi) {
    // One padded-string scratch per chunk; no per-value heap traffic.
    std::string padded;
    int c = static_cast<int>(
        std::upper_bound(code_starts.begin(), code_starts.end(), lo) -
        code_starts.begin() - 1);
    for (int64_t i = lo; i < hi; ++i) {
      while (code_starts[static_cast<size_t>(c) + 1] <= i) ++c;
      const auto code =
          static_cast<int32_t>(i - code_starts[static_cast<size_t>(c)]);
      const int64_t node = tg.CellNode(c, code);
      if (node < 0) continue;
      EmbedInto(table.column(c).dict().ValueOf(code), dim, seed,
                &features.at(node, 0), &padded);
    }
  });
  // RID nodes: mean of the tuple's present cell vectors, added in column
  // order; rows run on the pool.
  ParallelFor(0, table.num_rows(), 256, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      float* rid = &features.at(tg.rid_nodes[static_cast<size_t>(r)], 0);
      int present = 0;
      for (int c = 0; c < m; ++c) {
        const int64_t cell = tg.CellNode(c, table.column(c).CodeAt(r));
        if (cell < 0) continue;
        const float* value = &features.at(cell, 0);
        for (int d = 0; d < dim; ++d) rid[d] += value[d];
        ++present;
      }
      if (present > 0) {
        const float inv = 1.0f / static_cast<float>(present);
        for (int d = 0; d < dim; ++d) rid[d] *= inv;
      }
    }
  });
  out.column_features = Tensor::Zeros(table.num_cols(), dim);
  FillColumnFeaturesFromCells(table, tg, out.node_features,
                              &out.column_features);
  return out;
}

}  // namespace grimp
