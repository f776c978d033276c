#include "common/binary_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace grimp {

namespace {

constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t word) {
  return Rotl(acc + word * kP2, 31) * kP1;
}

inline uint64_t MergeLane(uint64_t h, uint64_t lane) {
  return (h ^ Round(0, lane)) * kP1 + kP4;
}

}  // namespace

Checksum64::Checksum64() : lanes_{kP1 + kP2, kP2, 0, 0 - kP1} {}

void Checksum64::Update(const void* data, size_t bytes) {
  if (bytes == 0) return;  // `data` may be null (an empty vector's data())
  const unsigned char* p = static_cast<const unsigned char*>(data);
  total_bytes_ += bytes;
  if (pending_bytes_ > 0) {
    const size_t take = std::min(kStripe - pending_bytes_, bytes);
    std::memcpy(pending_ + pending_bytes_, p, take);
    pending_bytes_ += take;
    p += take;
    bytes -= take;
    if (pending_bytes_ < kStripe) return;
    for (int lane = 0; lane < 4; ++lane) {
      lanes_[lane] = Round(lanes_[lane], Load64(pending_ + 8 * lane));
    }
    pending_bytes_ = 0;
  }
  // Locals rather than lanes_[i], so the four chains stay in registers.
  uint64_t v0 = lanes_[0], v1 = lanes_[1], v2 = lanes_[2], v3 = lanes_[3];
  for (; bytes >= kStripe; p += kStripe, bytes -= kStripe) {
    v0 = Round(v0, Load64(p));
    v1 = Round(v1, Load64(p + 8));
    v2 = Round(v2, Load64(p + 16));
    v3 = Round(v3, Load64(p + 24));
  }
  lanes_[0] = v0;
  lanes_[1] = v1;
  lanes_[2] = v2;
  lanes_[3] = v3;
  std::memcpy(pending_, p, bytes);
  pending_bytes_ = bytes;
}

uint64_t Checksum64::Digest() const {
  uint64_t h;
  if (total_bytes_ >= kStripe) {
    h = Rotl(lanes_[0], 1) + Rotl(lanes_[1], 7) + Rotl(lanes_[2], 12) +
        Rotl(lanes_[3], 18);
    for (uint64_t lane : lanes_) h = MergeLane(h, lane);
  } else {
    h = kP5;  // no full stripe: the lanes still hold their seeds
  }
  h += total_bytes_;
  const unsigned char* p = pending_;
  size_t left = pending_bytes_;
  for (; left >= 8; p += 8, left -= 8) {
    h = Rotl(h ^ Round(0, Load64(p)), 27) * kP1 + kP4;
  }
  if (left >= 4) {
    h = Rotl(h ^ (static_cast<uint64_t>(Load32(p)) * kP1), 23) * kP2 + kP3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) {
    h = Rotl(h ^ (static_cast<uint64_t>(*p) * kP5), 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

uint64_t Checksum64::Of(const void* data, size_t bytes) {
  Checksum64 checksum;
  checksum.Update(data, bytes);
  return checksum.Digest();
}

BinaryWriter::BinaryWriter(const std::string& path)
    : out_(path, std::ios::binary) {}

Status BinaryWriter::status() const {
  return out_.good() ? Status::OK() : Status::IoError("write failed");
}

void BinaryWriter::WriteBytes(const void* data, size_t bytes) {
  checksum_.Update(data, bytes);
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
}

void BinaryWriter::WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteI32(int32_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteI64(int64_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteF32(float v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteF64(double v) { WriteBytes(&v, sizeof(v)); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteBytes(s.data(), s.size());
}

void BinaryWriter::WriteF32Vector(const std::vector<float>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size() * sizeof(float));
}

void BinaryWriter::WriteF64Vector(const std::vector<double>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size() * sizeof(double));
}

void BinaryWriter::WriteI32Vector(const std::vector<int32_t>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size() * sizeof(int32_t));
}

void BinaryWriter::WriteI64Vector(const std::vector<int64_t>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size() * sizeof(int64_t));
}

void BinaryWriter::WriteStringVector(const std::vector<std::string>& v) {
  WriteU64(v.size());
  for (const std::string& s : v) WriteString(s);
}

Status BinaryWriter::Close() {
  out_.flush();
  const Status st = status();
  out_.close();
  return st;
}

BinaryReader::BinaryReader(const std::string& path)
    : in_(path, std::ios::binary) {
  if (!in_) status_ = Status::IoError("cannot open " + path);
}

Status BinaryReader::status() const {
  if (!status_.ok()) return status_;
  return in_.good() ? Status::OK() : Status::IoError("read failed");
}

Status BinaryReader::ReadRaw(void* data, size_t bytes) {
  if (!status_.ok()) return status_;
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (!in_.good() || static_cast<size_t>(in_.gcount()) != bytes) {
    status_ = Status::IoError("truncated input");
  }
  return status_;
}

#define GRIMP_READER_POD_IMPL(name, type)       \
  Result<type> BinaryReader::name() {           \
    type v{};                                   \
    GRIMP_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v))); \
    return v;                                   \
  }

GRIMP_READER_POD_IMPL(ReadU32, uint32_t)
GRIMP_READER_POD_IMPL(ReadI32, int32_t)
GRIMP_READER_POD_IMPL(ReadI64, int64_t)
GRIMP_READER_POD_IMPL(ReadU64, uint64_t)
GRIMP_READER_POD_IMPL(ReadF32, float)
GRIMP_READER_POD_IMPL(ReadF64, double)
#undef GRIMP_READER_POD_IMPL

Result<bool> BinaryReader::ReadBool() {
  GRIMP_ASSIGN_OR_RETURN(uint32_t v, ReadU32());
  if (v > 1) return Status::InvalidArgument("corrupt bool");
  return v == 1;
}

Result<std::string> BinaryReader::ReadString() {
  GRIMP_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  if (len > kMaxLength) return Status::InvalidArgument("corrupt string size");
  std::string s(static_cast<size_t>(len), '\0');
  GRIMP_RETURN_IF_ERROR(ReadRaw(s.data(), s.size()));
  return s;
}

Result<std::vector<float>> BinaryReader::ReadF32Vector() {
  GRIMP_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  if (len > kMaxLength) return Status::InvalidArgument("corrupt vector size");
  std::vector<float> v(static_cast<size_t>(len));
  GRIMP_RETURN_IF_ERROR(ReadRaw(v.data(), v.size() * sizeof(float)));
  return v;
}

Result<std::vector<double>> BinaryReader::ReadF64Vector() {
  GRIMP_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  if (len > kMaxLength) return Status::InvalidArgument("corrupt vector size");
  std::vector<double> v(static_cast<size_t>(len));
  GRIMP_RETURN_IF_ERROR(ReadRaw(v.data(), v.size() * sizeof(double)));
  return v;
}

Result<std::vector<int32_t>> BinaryReader::ReadI32Vector() {
  GRIMP_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  if (len > kMaxLength) return Status::InvalidArgument("corrupt vector size");
  std::vector<int32_t> v(static_cast<size_t>(len));
  GRIMP_RETURN_IF_ERROR(ReadRaw(v.data(), v.size() * sizeof(int32_t)));
  return v;
}

Result<std::vector<int64_t>> BinaryReader::ReadI64Vector() {
  GRIMP_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  if (len > kMaxLength) return Status::InvalidArgument("corrupt vector size");
  std::vector<int64_t> v(static_cast<size_t>(len));
  GRIMP_RETURN_IF_ERROR(ReadRaw(v.data(), v.size() * sizeof(int64_t)));
  return v;
}

Result<FileImage> ReadFileImage(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open " + path);
  FileImage file;
  Status status;
  struct stat st;
  if (fstat(fd, &st) != 0 || st.st_size < 0) {
    status = Status::IoError("cannot stat " + path);
  } else {
    file.size = static_cast<size_t>(st.st_size);
    file.words.reset(new int32_t[(file.size + 3) / 4]);
    char* out = reinterpret_cast<char*>(file.words.get());
    size_t done = 0;
    while (done < file.size) {
      const ssize_t n = read(fd, out + done, file.size - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        status = Status::IoError("read failed: " + path);
        break;
      }
      done += static_cast<size_t>(n);
    }
  }
  close(fd);
  if (!status.ok()) return status;
  return file;
}

Status VerifyChecksumFooter(const FileImage& file, const std::string& path) {
  if (file.size < sizeof(uint64_t)) {
    return Status::IoError("file too short for checksum footer: " + path);
  }
  const size_t payload = file.size - sizeof(uint64_t);
  if (Load64(file.bytes() + payload) !=
      Checksum64::Of(file.bytes(), payload)) {
    return Status::InvalidArgument(
        "checksum mismatch in " + path + ": file is truncated or corrupt");
  }
  return Status::OK();
}

Status VerifyTrailingChecksum(const std::string& path) {
  GRIMP_ASSIGN_OR_RETURN(const FileImage file, ReadFileImage(path));
  return VerifyChecksumFooter(file, path);
}

Result<std::vector<std::string>> BinaryReader::ReadStringVector() {
  GRIMP_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  if (len > kMaxLength) return Status::InvalidArgument("corrupt vector size");
  std::vector<std::string> v;
  v.reserve(static_cast<size_t>(len));
  for (uint64_t i = 0; i < len; ++i) {
    GRIMP_ASSIGN_OR_RETURN(std::string s, ReadString());
    v.push_back(std::move(s));
  }
  return v;
}

}  // namespace grimp
