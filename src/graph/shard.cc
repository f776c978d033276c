#include "graph/shard.h"

#include <chrono>
#include <cstring>

#include "common/binary_io.h"
#include "common/metrics.h"

namespace grimp {

namespace {
constexpr uint64_t kShardMagic = 0x4752494d50534844ULL;  // "GRIMPSHD"
// v2: Checksum64 footer (v1 used byte-serial FNV-1a).
constexpr uint32_t kShardVersion = 2;
// Magic, version, begin, end, type count.
constexpr size_t kShardHeaderBytes = 8 + 4 + 8 + 8 + 4;

// Little-endian scalar at byte offset `pos` of `file`; the caller has
// bounds-checked the read.
template <typename T>
T LoadAt(const FileImage& file, size_t pos) {
  T v;
  std::memcpy(&v, file.bytes() + pos, sizeof(v));
  return v;
}

// Records the microseconds since *since into `hist`, and restarts *since.
void RecordLap(Histogram& hist, std::chrono::steady_clock::time_point* since) {
  const auto now = std::chrono::steady_clock::now();
  hist.Record(std::chrono::duration<double, std::micro>(now - *since).count());
  *since = now;
}
}  // namespace

GraphShard GraphShard::View(const HeteroGraph& graph) {
  GraphShard shard;
  shard.begin_ = 0;
  shard.end_ = graph.num_nodes();
  shard.slices_.reserve(static_cast<size_t>(graph.num_edge_types()));
  for (int t = 0; t < graph.num_edge_types(); ++t) {
    const CsrAdjacency& adj = graph.adjacency(t);
    GRIMP_CHECK_EQ(adj.num_nodes(), graph.num_nodes());
    TypeSlice s;
    s.offsets = adj.offsets().data();
    s.indices = adj.indices().data();
    s.edge_base = 0;
    shard.slices_.push_back(s);
  }
  return shard;
}

GraphShard GraphShard::Slice(const HeteroGraph& graph, int64_t begin,
                             int64_t end) {
  GRIMP_CHECK(begin >= 0 && begin <= end && end <= graph.num_nodes());
  GraphShard shard;
  shard.begin_ = begin;
  shard.end_ = end;
  shard.owned_.reserve(static_cast<size_t>(graph.num_edge_types()) * 2);
  for (int t = 0; t < graph.num_edge_types(); ++t) {
    const CsrAdjacency& adj = graph.adjacency(t);
    const auto& off = adj.offsets();
    const auto& idx = adj.indices();
    std::vector<int32_t> offsets(off.begin() + begin,
                                 off.begin() + end + 1);
    std::vector<int32_t> indices(idx.begin() + offsets.front(),
                                 idx.begin() + offsets.back());
    shard.owned_.push_back(std::move(offsets));
    shard.owned_.push_back(std::move(indices));
  }
  shard.RebindOwned();
  return shard;
}

GraphShard GraphShard::FromSortedEdges(
    int64_t begin, int64_t end, int num_types,
    const std::vector<std::vector<std::pair<int32_t, int32_t>>>& edges) {
  GRIMP_CHECK(begin >= 0 && begin <= end);
  GRIMP_CHECK_EQ(static_cast<int64_t>(edges.size()),
                 static_cast<int64_t>(num_types));
  GraphShard shard;
  shard.begin_ = begin;
  shard.end_ = end;
  shard.owned_.reserve(static_cast<size_t>(num_types) * 2);
  for (int t = 0; t < num_types; ++t) {
    const auto& run = edges[static_cast<size_t>(t)];
    std::vector<int32_t> offsets;
    offsets.reserve(static_cast<size_t>(end - begin) + 1);
    std::vector<int32_t> indices;
    indices.reserve(run.size());
    size_t d = 0;
    offsets.push_back(0);
    for (int64_t v = begin; v < end; ++v) {
      while (d < run.size() && run[d].first == v) {
        indices.push_back(run[d++].second);
      }
      offsets.push_back(static_cast<int32_t>(indices.size()));
    }
    GRIMP_CHECK_EQ(static_cast<int64_t>(d), static_cast<int64_t>(run.size()));
    shard.owned_.push_back(std::move(offsets));
    shard.owned_.push_back(std::move(indices));
  }
  shard.RebindOwned();
  return shard;
}

GraphShard GraphShard::Patched(
    const GraphShard& base,
    const std::vector<std::vector<std::pair<int32_t, int32_t>>>& extra) {
  GRIMP_CHECK_EQ(static_cast<int64_t>(extra.size()),
                 static_cast<int64_t>(base.num_edge_types()));
  GraphShard shard;
  shard.begin_ = base.begin_;
  shard.end_ = base.end_;
  shard.owned_.reserve(extra.size() * 2);
  for (int t = 0; t < base.num_edge_types(); ++t) {
    const auto& run = extra[static_cast<size_t>(t)];
    std::vector<int32_t> offsets;
    offsets.reserve(static_cast<size_t>(base.end_ - base.begin_) + 1);
    std::vector<int32_t> indices;
    size_t d = 0;
    offsets.push_back(0);
    for (int64_t v = base.begin_; v < base.end_; ++v) {
      auto [b, e] = base.Neighbors(t, v);
      while (b != e || (d < run.size() && run[d].first == v)) {
        const bool extra_here = d < run.size() && run[d].first == v;
        if (b == e || (extra_here && run[d].second < *b)) {
          GRIMP_DCHECK(extra_here);
          indices.push_back(run[d++].second);
        } else {
          indices.push_back(*b++);
        }
      }
      offsets.push_back(static_cast<int32_t>(indices.size()));
    }
    GRIMP_CHECK_EQ(static_cast<int64_t>(d), static_cast<int64_t>(run.size()));
    shard.owned_.push_back(std::move(offsets));
    shard.owned_.push_back(std::move(indices));
  }
  shard.RebindOwned();
  return shard;
}

void GraphShard::RebindOwned() {
  const size_t num_types = owned_.size() / 2;
  slices_.clear();
  slices_.reserve(num_types);
  for (size_t t = 0; t < num_types; ++t) {
    const std::vector<int32_t>& offsets = owned_[2 * t];
    const std::vector<int32_t>& indices = owned_[2 * t + 1];
    GRIMP_CHECK_EQ(static_cast<int64_t>(offsets.size()), end_ - begin_ + 1);
    TypeSlice s;
    s.offsets = offsets.data();
    s.indices = indices.data();
    s.edge_base = offsets.front();
    slices_.push_back(s);
  }
}

int64_t GraphShard::num_edges() const {
  int64_t total = 0;
  for (const TypeSlice& s : slices_) {
    total += s.offsets[static_cast<size_t>(end_ - begin_)] - s.edge_base;
  }
  return total;
}

int64_t GraphShard::SizeBytes() const {
  const int64_t offsets_bytes =
      static_cast<int64_t>(slices_.size()) * (end_ - begin_ + 1) *
      static_cast<int64_t>(sizeof(int32_t));
  return offsets_bytes + num_edges() * static_cast<int64_t>(sizeof(int32_t));
}

Status GraphShard::WriteTo(const std::string& path) const {
  BinaryWriter writer(path);
  if (!writer.ok()) return Status::IoError("cannot open " + path);
  writer.WriteU64(kShardMagic);
  writer.WriteU32(kShardVersion);
  writer.WriteI64(begin_);
  writer.WriteI64(end_);
  writer.WriteU32(static_cast<uint32_t>(slices_.size()));
  // Same layout as BinaryWriter::WriteI32Vector, straight from the slices.
  auto write_array = [&writer](const int32_t* data, int64_t length) {
    writer.WriteU64(static_cast<uint64_t>(length));
    writer.WriteBytes(data, static_cast<size_t>(length) * sizeof(int32_t));
  };
  const int64_t n = end_ - begin_;
  for (const TypeSlice& s : slices_) {
    write_array(s.offsets, n + 1);
    write_array(s.indices, s.offsets[static_cast<size_t>(n)] - s.edge_base);
  }
  writer.WriteU64(writer.hash());
  return writer.Close();
}

Result<GraphShard> GraphShard::ReadFrom(const std::string& path) {
  static Histogram& read_micros =
      MetricsRegistry::Global().GetHistogram("graph.shard.read_micros");
  static Histogram& verify_micros =
      MetricsRegistry::Global().GetHistogram("graph.shard.verify_micros");
  static Histogram& parse_micros =
      MetricsRegistry::Global().GetHistogram("graph.shard.parse_micros");
  auto lap = std::chrono::steady_clock::now();
  GRIMP_ASSIGN_OR_RETURN(FileImage file, ReadFileImage(path));
  RecordLap(read_micros, &lap);
  if (file.size < kShardHeaderBytes + sizeof(uint64_t)) {
    return Status::IoError("truncated shard file: " + path);
  }
  if (LoadAt<uint64_t>(file, 0) != kShardMagic) {
    return Status::InvalidArgument("not a GRIMP shard file: " + path);
  }
  const uint32_t version = LoadAt<uint32_t>(file, 8);
  if (version != kShardVersion) {
    return Status::InvalidArgument(
        "unsupported shard version in " + path + ": expected " +
        std::to_string(kShardVersion) + ", found " + std::to_string(version));
  }
  GRIMP_RETURN_IF_ERROR(VerifyChecksumFooter(file, path));
  RecordLap(verify_micros, &lap);

  GraphShard shard;
  shard.begin_ = LoadAt<int64_t>(file, 12);
  shard.end_ = LoadAt<int64_t>(file, 20);
  if (shard.begin_ < 0 || shard.end_ < shard.begin_) {
    return Status::InvalidArgument("corrupt shard range in " + path);
  }
  const uint32_t num_types = LoadAt<uint32_t>(file, 28);
  if (num_types > 65536) {
    return Status::InvalidArgument("corrupt shard type count in " + path);
  }
  // Every array is a u64 length then that many int32s. The header is 32
  // bytes and each array 8 + 4n, so every array starts 4-byte aligned in
  // the image and can be used in place.
  const size_t payload_end = file.size - sizeof(uint64_t);
  size_t pos = kShardHeaderBytes;
  auto next_array = [&](uint64_t* length) -> const int32_t* {
    if (payload_end - pos < sizeof(uint64_t)) return nullptr;
    *length = LoadAt<uint64_t>(file, pos);
    pos += sizeof(uint64_t);
    if (*length > (payload_end - pos) / sizeof(int32_t)) return nullptr;
    const int32_t* data = file.words.get() + pos / sizeof(int32_t);
    pos += static_cast<size_t>(*length) * sizeof(int32_t);
    return data;
  };
  shard.slices_.reserve(num_types);
  for (uint32_t t = 0; t < num_types; ++t) {
    uint64_t num_offsets = 0;
    const int32_t* offsets = next_array(&num_offsets);
    if (offsets == nullptr || num_offsets == 0 ||
        num_offsets - 1 != static_cast<uint64_t>(shard.end_ - shard.begin_)) {
      return Status::InvalidArgument("corrupt shard offsets in " + path);
    }
    uint64_t num_indices = 0;
    const int32_t* indices = next_array(&num_indices);
    if (indices == nullptr ||
        static_cast<int64_t>(num_indices) !=
            static_cast<int64_t>(offsets[num_offsets - 1]) - offsets[0]) {
      return Status::InvalidArgument("corrupt shard indices in " + path);
    }
    shard.slices_.push_back(TypeSlice{offsets, indices, offsets[0]});
  }
  if (pos != payload_end) {
    return Status::InvalidArgument("trailing bytes in shard file " + path);
  }
  shard.file_ = std::move(file.words);
  RecordLap(parse_micros, &lap);
  return shard;
}

}  // namespace grimp
