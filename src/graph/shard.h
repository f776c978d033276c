#ifndef GRIMP_GRAPH_SHARD_H_
#define GRIMP_GRAPH_SHARD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/hetero_graph.h"

namespace grimp {

// One contiguous node-range slice [begin, end) of a HeteroGraph's
// adjacency, with every edge type's CSR restricted to the range. The
// neighbor *targets* still carry global node ids (an edge may leave the
// shard); only the source side is range-local. Each per-type index array is
// rebased by its first offset, so a shard sliced out of a big graph stores
// exactly its own edges and nothing else.
//
// A shard either views borrowed storage (View(): zero-copy over a live
// HeteroGraph, used by the in-memory store) or owns copies (Slice() /
// ReadFrom()), and is immutable after construction, so concurrent readers
// need no synchronization.
class GraphShard {
 public:
  GraphShard() = default;
  // Moves transfer the owned heap buffers, so the raw slice pointers stay
  // valid; copies would alias the source's buffers and are disallowed.
  GraphShard(GraphShard&&) = default;
  GraphShard& operator=(GraphShard&&) = default;
  GraphShard(const GraphShard&) = delete;
  GraphShard& operator=(const GraphShard&) = delete;

  // Zero-copy view of a whole graph as a single shard. `graph` must
  // outlive the shard and keep its adjacency unchanged: SetAdjacency
  // replaces the CSR arrays the view points into, so re-View afterwards.
  static GraphShard View(const HeteroGraph& graph);

  // Owned copy of [begin, end)'s rows of every edge type.
  static GraphShard Slice(const HeteroGraph& graph, int64_t begin,
                          int64_t end);

  // Owned shard over a brand-new node range [begin, end) built from
  // per-type (src, dst) runs sorted by (src, dst) with src in the range.
  // Used by ShardedGraphStore::Append for the appended node range of a
  // GraphDelta.
  static GraphShard FromSortedEdges(
      int64_t begin, int64_t end, int num_types,
      const std::vector<std::vector<std::pair<int32_t, int32_t>>>& edges);

  // Owned shard merging `base` with additional per-type sorted (src, dst)
  // runs (srcs within base's range): each node's neighbor list becomes the
  // ascending merge of its base list and its extra edges — bit-identical
  // to slicing a from-scratch rebuild that includes those edges. `extra`
  // must have base.num_edge_types() entries (empty runs allowed).
  static GraphShard Patched(
      const GraphShard& base,
      const std::vector<std::vector<std::pair<int32_t, int32_t>>>& extra);

  int64_t begin() const { return begin_; }
  int64_t end() const { return end_; }
  int64_t num_local_nodes() const { return end_ - begin_; }
  int num_edge_types() const { return static_cast<int>(slices_.size()); }
  bool Contains(int64_t node) const { return node >= begin_ && node < end_; }

  // Neighbors of `node` (which must be in [begin, end)) under edge type
  // `t`, as a [first, last) pointer range of global node ids.
  std::pair<const int32_t*, const int32_t*> Neighbors(int t,
                                                      int64_t node) const {
    GRIMP_DCHECK(t >= 0 && t < num_edge_types());
    GRIMP_DCHECK(Contains(node));
    const TypeSlice& s = slices_[static_cast<size_t>(t)];
    const size_t i = static_cast<size_t>(node - begin_);
    const int32_t b = s.offsets[i] - s.edge_base;
    const int32_t e = s.offsets[i + 1] - s.edge_base;
    return {s.indices + b, s.indices + e};
  }
  int32_t Degree(int t, int64_t node) const {
    auto [b, e] = Neighbors(t, node);
    return static_cast<int32_t>(e - b);
  }

  int64_t num_edges() const;
  // Bytes of adjacency data this shard pins while resident (offsets +
  // indices across all types); views report the same figure even though
  // the bytes belong to the source graph.
  int64_t SizeBytes() const;

  // Compact on-disk format, shard format v2: magic/version header, range,
  // per-type CSR arrays, trailing Checksum64 footer (common/binary_io).
  // ReadFrom reads the file with one open and one read, rejects a wrong
  // magic or version (the error names the expected and found versions)
  // before hashing, verifies the footer over the in-memory image, then
  // bounds-checks the arrays and serves them in place from that image. It
  // times the three phases into the graph.shard.read_micros, verify_micros
  // and parse_micros histograms (store.h).
  Status WriteTo(const std::string& path) const;
  static Result<GraphShard> ReadFrom(const std::string& path);

 private:
  // One edge type's rows: `offsets` has num_local_nodes() + 1 entries
  // (global CSR offsets), `indices` points at the first local edge, and
  // `edge_base == offsets[0]` rebases offset values into `indices`.
  struct TypeSlice {
    const int32_t* offsets = nullptr;
    const int32_t* indices = nullptr;
    int32_t edge_base = 0;
  };

  int64_t begin_ = 0;
  int64_t end_ = 0;
  std::vector<TypeSlice> slices_;
  // Backing storage for owned shards: owned_[2 * t] holds type t's offsets,
  // owned_[2 * t + 1] its indices. Empty for views and loaded shards.
  std::vector<std::vector<int32_t>> owned_;
  // Backing storage for ReadFrom shards: the whole file image, which the
  // slices point into. Null otherwise.
  std::unique_ptr<int32_t[]> file_;

  void RebindOwned();
};

}  // namespace grimp

#endif  // GRIMP_GRAPH_SHARD_H_
