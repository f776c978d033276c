#ifndef GRIMP_COMMON_BINARY_IO_H_
#define GRIMP_COMMON_BINARY_IO_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace grimp {

// Streaming 64-bit checksum behind every file footer (model and shard
// formats). Four independent 64-bit lanes consume 32-byte stripes with
// xxh64-style rounds, acc = rotl(acc + word * P2, 31) * P1, so the
// multiplies of one stripe do not wait on each other. The total length and
// the tail bytes are mixed in at finalisation, followed by an avalanche
// step. Feeding the same bytes in pieces of any size gives the same
// Digest() as one Update over all of them.
class Checksum64 {
 public:
  Checksum64();

  void Update(const void* data, size_t bytes);
  // Digest of everything fed so far; does not disturb the running state.
  uint64_t Digest() const;

  // One-shot digest of `bytes` bytes at `data`.
  static uint64_t Of(const void* data, size_t bytes);

 private:
  static constexpr size_t kStripe = 32;
  uint64_t lanes_[4];
  unsigned char pending_[kStripe];  // a partial stripe awaiting more bytes
  size_t pending_bytes_ = 0;
  uint64_t total_bytes_ = 0;
};

// Little binary serialization layer for model persistence. Fixed-width
// little-endian primitives (this library targets x86-64/AArch64 Linux),
// length-prefixed strings and vectors. Writers/readers fail fast with
// Status on I/O errors; readers validate length prefixes against a sanity
// cap so a truncated or corrupt file cannot trigger huge allocations.
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);

  bool ok() const { return out_.good(); }
  Status status() const;

  void WriteU32(uint32_t v);
  void WriteI32(int32_t v);
  void WriteI64(int64_t v);
  void WriteU64(uint64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteBool(bool v) { WriteU32(v ? 1 : 0); }
  void WriteString(const std::string& s);
  void WriteF32Vector(const std::vector<float>& v);
  void WriteF64Vector(const std::vector<double>& v);
  void WriteI32Vector(const std::vector<int32_t>& v);
  void WriteI64Vector(const std::vector<int64_t>& v);
  void WriteStringVector(const std::vector<std::string>& v);
  // Raw bytes, no length prefix.
  void WriteBytes(const void* data, size_t bytes);

  // Flushes and reports the final status.
  Status Close();

  // Checksum64 digest of every byte written so far. Writing it as the
  // file's final u64 (WriteU64(hash())) produces the trailing-checksum
  // footer that VerifyTrailingChecksum() validates.
  uint64_t hash() const { return checksum_.Digest(); }

 private:
  std::ofstream out_;
  Checksum64 checksum_;
};

// A whole file in memory, read with one open and one read. The storage is
// allocated as (uninitialised) 32-bit words, so arrays of 32-bit values at
// 4-byte-aligned file offsets can be used in place.
struct FileImage {
  std::unique_ptr<int32_t[]> words;
  size_t size = 0;  // in bytes

  const unsigned char* bytes() const {
    return reinterpret_cast<const unsigned char*>(words.get());
  }
};

// IoError naming `path` when it cannot be opened or read in full.
Result<FileImage> ReadFileImage(const std::string& path);

// Validates an image whose last 8 bytes are the little-endian Checksum64
// of everything before them (the footer written via BinaryWriter::hash()).
// Returns IoError when the image is shorter than the footer, and
// InvalidArgument naming `path` on checksum mismatch, catching truncation
// and bit corruption anywhere in the payload.
Status VerifyChecksumFooter(const FileImage& file, const std::string& path);

// ReadFileImage + VerifyChecksumFooter.
Status VerifyTrailingChecksum(const std::string& path);

class BinaryReader {
 public:
  // Caps any single length prefix (elements), guarding corrupt files.
  static constexpr uint64_t kMaxLength = 1ull << 31;

  explicit BinaryReader(const std::string& path);

  bool ok() const { return in_.good() && status_.ok(); }
  Status status() const;

  Result<uint32_t> ReadU32();
  Result<int32_t> ReadI32();
  Result<int64_t> ReadI64();
  Result<uint64_t> ReadU64();
  Result<float> ReadF32();
  Result<double> ReadF64();
  Result<bool> ReadBool();
  Result<std::string> ReadString();
  Result<std::vector<float>> ReadF32Vector();
  Result<std::vector<double>> ReadF64Vector();
  Result<std::vector<int32_t>> ReadI32Vector();
  Result<std::vector<int64_t>> ReadI64Vector();
  Result<std::vector<std::string>> ReadStringVector();

 private:
  Status ReadRaw(void* data, size_t bytes);
  std::ifstream in_;
  Status status_;
};

}  // namespace grimp

#endif  // GRIMP_COMMON_BINARY_IO_H_
