#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>

#include "common/binary_io.h"
#include "core/engine.h"
#include "data/datasets.h"
#include "eval/metrics.h"
#include "transform_copy.h"

namespace grimp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- Binary I/O primitives ---------------------------------------------------

TEST(BinaryIoTest, PodRoundTrip) {
  const std::string path = TempPath("grimp_pod.bin");
  {
    BinaryWriter writer(path);
    writer.WriteU32(7u);
    writer.WriteI32(-3);
    writer.WriteI64(int64_t{1} << 40);
    writer.WriteU64(0xdeadbeefcafef00dULL);
    writer.WriteF32(1.5f);
    writer.WriteF64(-2.25);
    writer.WriteBool(true);
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path);
  EXPECT_EQ(*reader.ReadU32(), 7u);
  EXPECT_EQ(*reader.ReadI32(), -3);
  EXPECT_EQ(*reader.ReadI64(), int64_t{1} << 40);
  EXPECT_EQ(*reader.ReadU64(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(*reader.ReadF32(), 1.5f);
  EXPECT_EQ(*reader.ReadF64(), -2.25);
  EXPECT_TRUE(*reader.ReadBool());
}

TEST(BinaryIoTest, StringAndVectorRoundTrip) {
  const std::string path = TempPath("grimp_vec.bin");
  const std::vector<float> floats{1.0f, -2.0f, 0.5f};
  const std::vector<double> doubles{3.14, -1e10};
  const std::vector<int64_t> ints{1, -2, 3};
  const std::vector<std::string> strings{"", "abc", "with \n newline"};
  {
    BinaryWriter writer(path);
    writer.WriteString("hello");
    writer.WriteF32Vector(floats);
    writer.WriteF64Vector(doubles);
    writer.WriteI64Vector(ints);
    writer.WriteStringVector(strings);
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path);
  EXPECT_EQ(*reader.ReadString(), "hello");
  EXPECT_EQ(*reader.ReadF32Vector(), floats);
  EXPECT_EQ(*reader.ReadF64Vector(), doubles);
  EXPECT_EQ(*reader.ReadI64Vector(), ints);
  EXPECT_EQ(*reader.ReadStringVector(), strings);
}

TEST(BinaryIoTest, TruncatedFileFailsGracefully) {
  const std::string path = TempPath("grimp_trunc.bin");
  {
    BinaryWriter writer(path);
    writer.WriteU64(1000);  // promises 1000 bytes of string
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path);
  EXPECT_FALSE(reader.ReadString().ok());
}

TEST(BinaryIoTest, MissingFileFails) {
  BinaryReader reader("/nonexistent/grimp.bin");
  EXPECT_FALSE(reader.status().ok());
  EXPECT_FALSE(reader.ReadU32().ok());
}

TEST(BinaryIoTest, CorruptLengthRejected) {
  const std::string path = TempPath("grimp_huge.bin");
  {
    BinaryWriter writer(path);
    writer.WriteU64(uint64_t{1} << 60);  // absurd element count
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path);
  EXPECT_FALSE(reader.ReadF32Vector().ok());
}

// --- Checksum64 and the trailing-checksum footer --------------------------------

std::string ReadAll(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Payload bytes with no repeating structure, so every stripe and tail word
// differs.
std::string PayloadBytes(size_t n) {
  std::string bytes(n, '\0');
  uint64_t x = 0x243f6a8885a308d3ULL;
  for (char& c : bytes) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>(x >> 56);
  }
  return bytes;
}

// Writes `payload` through BinaryWriter in `piece`-byte writes and returns
// the writer's final hash().
uint64_t HashInPieces(const std::string& path, const std::string& payload,
                      size_t piece) {
  BinaryWriter writer(path);
  for (size_t at = 0; at < payload.size(); at += piece) {
    writer.WriteBytes(payload.data() + at,
                      std::min(piece, payload.size() - at));
  }
  const uint64_t hash = writer.hash();
  EXPECT_TRUE(writer.Close().ok());
  return hash;
}

// A file holding `payload` plus its trailing-checksum footer.
void WriteChecksummed(const std::string& path, const std::string& payload) {
  BinaryWriter writer(path);
  writer.WriteBytes(payload.data(), payload.size());
  writer.WriteU64(writer.hash());
  ASSERT_TRUE(writer.Close().ok());
}

TEST(Checksum64Test, MatchesReferenceVectors) {
  // The footer is exactly XXH64 with seed 0; pinning public reference
  // values keeps the on-disk format from drifting silently.
  EXPECT_EQ(Checksum64::Of("", 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Checksum64::Of("a", 1), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(Checksum64::Of("abc", 3), 0x44bc2cf5ad770999ULL);
  const std::string sentence = "Nobody inspects the spammish repetition";
  EXPECT_EQ(Checksum64::Of(sentence.data(), sentence.size()),
            0xfbcea83c8a378bf1ULL);
}

TEST(Checksum64Test, PieceSizeDoesNotChangeTheHash) {
  const std::string path = TempPath("grimp_pieces.bin");
  const std::string payload = PayloadBytes(10007);
  const uint64_t whole = HashInPieces(path, payload, payload.size());
  EXPECT_EQ(whole, Checksum64::Of(payload.data(), payload.size()));
  for (size_t piece : {1, 3, 7, 31, 32, 33, 4096}) {
    EXPECT_EQ(HashInPieces(path, payload, piece), whole) << "piece " << piece;
    EXPECT_EQ(ReadAll(path), payload) << "piece " << piece;
  }
  // hash() is a mid-stream digest: reading it must not disturb the stream.
  BinaryWriter writer(path);
  writer.WriteBytes(payload.data(), 100);
  (void)writer.hash();
  writer.WriteBytes(nullptr, 0);  // an empty vector's data() may be null
  writer.WriteBytes(payload.data() + 100, payload.size() - 100);
  EXPECT_EQ(writer.hash(), whole);
  EXPECT_TRUE(writer.Close().ok());
}

TEST(Checksum64Test, EveryPayloadBitFlipIsRejected) {
  // 257 bytes: eight full 32-byte stripes plus a 1-byte tail, so flips hit
  // every lane of every stripe and the tail path.
  const std::string path = TempPath("grimp_bitflip.bin");
  const std::string payload = PayloadBytes(257);
  WriteChecksummed(path, payload);
  const std::string good = ReadAll(path);
  ASSERT_TRUE(VerifyTrailingChecksum(path).ok());
  for (size_t at = 0; at < payload.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[at] = static_cast<char>(bad[at] ^ (1 << bit));
      WriteAll(path, bad);
      const Status status = VerifyTrailingChecksum(path);
      ASSERT_TRUE(status.IsInvalidArgument())
          << "byte " << at << " bit " << bit << ": " << status.ToString();
    }
  }
}

TEST(Checksum64Test, FooterByteFlipIsRejected) {
  const std::string path = TempPath("grimp_footer_flip.bin");
  WriteChecksummed(path, PayloadBytes(100));
  const std::string good = ReadAll(path);
  for (size_t at = good.size() - sizeof(uint64_t); at < good.size(); ++at) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    WriteAll(path, bad);
    EXPECT_TRUE(VerifyTrailingChecksum(path).IsInvalidArgument())
        << "footer byte " << at;
  }
}

TEST(Checksum64Test, EveryTruncationFailsTyped) {
  const std::string path = TempPath("grimp_truncations.bin");
  WriteChecksummed(path, PayloadBytes(77));
  const std::string good = ReadAll(path);
  for (size_t len = 0; len < good.size(); ++len) {
    WriteAll(path, good.substr(0, len));
    const Status status = VerifyTrailingChecksum(path);
    // Shorter than the footer: IoError; otherwise the footer is read from
    // payload bytes and cannot match.
    if (len < sizeof(uint64_t)) {
      EXPECT_TRUE(status.IsIoError()) << len << ": " << status.ToString();
    } else {
      EXPECT_TRUE(status.IsInvalidArgument()) << len << ": "
                                              << status.ToString();
    }
  }
  EXPECT_TRUE(VerifyTrailingChecksum("/nonexistent/grimp.bin").IsIoError());
}

// --- Model persistence ---------------------------------------------------------

TEST(ModelPersistenceTest, SaveLoadTransformIsIdentical) {
  auto clean = GenerateDatasetByName("mammogram", 5, 120);
  ASSERT_TRUE(clean.ok());
  const CorruptedTable corrupted = InjectMcar(*clean, 0.25, 3);

  GrimpOptions options;
  options.dim = 16;
  options.max_epochs = 30;
  GrimpEngine engine(options);
  ASSERT_TRUE(engine.Fit(corrupted.dirty).ok());
  auto direct = TransformCopy(engine, corrupted.dirty);
  ASSERT_TRUE(direct.ok());

  const std::string path = TempPath("grimp_model.bin");
  ASSERT_TRUE(engine.Save(path).ok());

  auto loaded_or = GrimpEngine::Load(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  GrimpEngine& loaded = **loaded_or;
  EXPECT_TRUE(loaded.fitted());
  EXPECT_EQ(loaded.options().dim, 16);

  auto from_disk = TransformCopy(loaded, corrupted.dirty);
  ASSERT_TRUE(from_disk.ok()) << from_disk.status().ToString();
  for (int c = 0; c < direct->num_cols(); ++c) {
    for (int64_t r = 0; r < direct->num_rows(); ++r) {
      ASSERT_EQ(direct->column(c).StringAt(r),
                from_disk->column(c).StringAt(r))
          << "col " << c << " row " << r;
    }
  }
}

TEST(ModelPersistenceTest, SaveRequiresFittedEngine) {
  GrimpEngine engine{GrimpOptions{}};
  EXPECT_FALSE(engine.Save(TempPath("grimp_unfitted.bin")).ok());
}

TEST(ModelPersistenceTest, FitValidatesOptions) {
  auto clean = GenerateDatasetByName("mammogram", 5, 60);
  ASSERT_TRUE(clean.ok());
  GrimpOptions options;
  options.max_epochs = -3;
  GrimpEngine engine(options);
  const Status status = engine.Fit(*clean);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST(ModelPersistenceTest, LoadRejectsGarbage) {
  const std::string path = TempPath("grimp_garbage.bin");
  {
    BinaryWriter writer(path);
    writer.WriteU64(0x1234567812345678ULL);  // wrong magic
    ASSERT_TRUE(writer.Close().ok());
  }
  auto loaded = GrimpEngine::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_FALSE(GrimpEngine::Load("/nonexistent/model.bin").ok());
}

// Saves a quickly-fitted model and returns its path.
std::string SaveTinyModel(const std::string& name) {
  auto clean = GenerateDatasetByName("mammogram", 5, 60);
  EXPECT_TRUE(clean.ok());
  GrimpOptions options;
  options.dim = 8;
  options.max_epochs = 8;
  GrimpEngine engine(options);
  EXPECT_TRUE(engine.Fit(*clean).ok());
  const std::string path = TempPath(name);
  EXPECT_TRUE(engine.Save(path).ok());
  return path;
}

TEST(ModelPersistenceTest, CorruptPayloadByteFailsChecksum) {
  const std::string path = SaveTinyModel("grimp_corrupt.bin");
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const auto size = static_cast<int64_t>(file.tellg());
    ASSERT_GT(size, 32);
    file.seekp(size / 2);  // past the header, before the footer
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    file.seekp(size / 2);
    file.write(&byte, 1);
  }
  auto loaded = GrimpEngine::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("checksum mismatch in"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(path), std::string::npos);
}

TEST(ModelPersistenceTest, TruncatedModelFileFails) {
  const std::string path = SaveTinyModel("grimp_truncated_model.bin");
  std::string payload;
  {
    std::ifstream file(path, std::ios::binary);
    payload.assign(std::istreambuf_iterator<char>(file),
                   std::istreambuf_iterator<char>());
  }
  ASSERT_GT(payload.size(), 64u);
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(payload.data(), static_cast<int64_t>(payload.size() / 2));
  }
  auto loaded = GrimpEngine::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(path), std::string::npos)
      << loaded.status().ToString();
}

TEST(ModelPersistenceTest, WrongVersionNamesExpectedAndFound) {
  const std::string path = TempPath("grimp_future_version.bin");
  {
    BinaryWriter writer(path);
    writer.WriteU64(0x4752494d504d444cULL);  // "GRIMPMDL", matches Save()
    writer.WriteU32(99);                     // from a future format
    ASSERT_TRUE(writer.Close().ok());
  }
  auto loaded = GrimpEngine::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  const Status status = loaded.status();  // status() returns by value
  const std::string& message = status.message();
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("expected 3"), std::string::npos) << message;
  EXPECT_NE(message.find("found 99"), std::string::npos) << message;
}

// A model file from before the Checksum64 footer (format v2) fails on its
// version, never as a checksum mismatch.
TEST(ModelPersistenceTest, PreviousFormatVersionFailsOnVersion) {
  const std::string path = SaveTinyModel("grimp_v2_model.bin");
  std::string bytes = ReadAll(path);
  const uint32_t v2 = 2;
  bytes.replace(sizeof(uint64_t), sizeof(v2),
                reinterpret_cast<const char*>(&v2), sizeof(v2));
  WriteAll(path, bytes);
  auto loaded = GrimpEngine::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  const Status status = loaded.status();
  EXPECT_NE(status.message().find("expected 3, found 2"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(status.message().find("checksum mismatch"), std::string::npos)
      << status.ToString();
}

// Writes `bytes` to `path` with its last 8 bytes replaced by a freshly
// computed Checksum64 footer, so Load sees an intact file.
void WriteWithFooter(const std::string& path, std::string bytes) {
  const uint64_t footer =
      Checksum64::Of(bytes.data(), bytes.size() - sizeof(uint64_t));
  bytes.replace(bytes.size() - sizeof(footer), sizeof(footer),
                reinterpret_cast<const char*>(&footer), sizeof(footer));
  WriteAll(path, bytes);
}

// Options decoded from an intact file are validated like Fit's.
TEST(ModelPersistenceTest, InvalidDecodedOptionsFailLoad) {
  const std::string path = SaveTinyModel("grimp_bad_dim_model.bin");
  std::string bytes = ReadAll(path);
  // dim follows magic (u64), version (u32), features, task_kind and
  // k_strategy (i32 each).
  const int32_t dim = 0;
  bytes.replace(24, sizeof(dim), reinterpret_cast<const char*>(&dim),
                sizeof(dim));
  WriteWithFooter(path, bytes);
  auto loaded = GrimpEngine::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("GrimpOptions.dim"),
            std::string::npos)
      << loaded.status().ToString();
}

// A well-formed file (valid footer) whose options name an FD column
// outside the schema fails Load's validation instead of indexing past the
// attention head's K diagonal.
TEST(ModelPersistenceTest, OutOfRangeFdColumnFailsLoad) {
  auto clean = GenerateDatasetByName("mammogram", 5, 60);
  ASSERT_TRUE(clean.ok());
  GrimpOptions options;
  options.dim = 8;
  options.max_epochs = 4;
  options.k_strategy = KStrategy::kWeakDiagonalFd;
  options.fds = {{{0}, 1}};
  GrimpEngine engine(options);
  ASSERT_TRUE(engine.Fit(*clean).ok());
  const std::string path = TempPath("grimp_bad_fd_model.bin");
  ASSERT_TRUE(engine.Save(path).ok());
  ASSERT_TRUE(GrimpEngine::Load(path).ok());

  // The FD block: one FD, one lhs column (0), rhs 1. Point rhs past the
  // schema and recompute the footer.
  std::string bytes = ReadAll(path);
  const std::string fd_block("\1\0\0\0\0\0\0\0\1\0\0\0\0\0\0\0"
                             "\0\0\0\0\1\0\0\0",
                             24);
  const size_t at = bytes.find(fd_block);
  ASSERT_NE(at, std::string::npos);
  const int32_t rhs = static_cast<int32_t>(clean->num_cols()) + 5;
  bytes.replace(at + 20, sizeof(rhs), reinterpret_cast<const char*>(&rhs),
                sizeof(rhs));
  WriteWithFooter(path, bytes);

  auto loaded = GrimpEngine::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
  EXPECT_EQ(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status().ToString();
}

TEST(ModelPersistenceTest, LoadedModelTransformsUnseenTable) {
  // Fit + save on one slice; load and impute a disjoint slice.
  auto all = GenerateDatasetByName("contraceptive", 9, 240);
  ASSERT_TRUE(all.ok());
  const CsvData csv = all->ToCsv();
  Table source(all->schema());
  Table target(all->schema());
  for (int64_t r = 0; r < all->num_rows(); ++r) {
    ASSERT_TRUE((r < 160 ? source : target)
                    .AppendRow(csv.rows[static_cast<size_t>(r)])
                    .ok());
  }
  GrimpOptions options;
  options.dim = 16;
  options.max_epochs = 40;
  GrimpEngine engine(options);
  ASSERT_TRUE(engine.Fit(source).ok());
  const std::string path = TempPath("grimp_transfer_model.bin");
  ASSERT_TRUE(engine.Save(path).ok());

  const CorruptedTable corrupted = InjectMcar(target, 0.25, 7);
  auto loaded = GrimpEngine::Load(path);
  ASSERT_TRUE(loaded.ok());
  auto imputed = TransformCopy(**loaded, corrupted.dirty);
  ASSERT_TRUE(imputed.ok());
  const ImputationScore score = ScoreImputation(*imputed, corrupted, target);
  // Better than uniform guessing over 2-4-value domains.
  EXPECT_GT(score.Accuracy(), 0.45);
}

}  // namespace
}  // namespace grimp
