#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

#include "common/binary_io.h"
#include "data/datasets.h"
#include "table/stats.h"

namespace grimp {
namespace {

TEST(DatasetRegistryTest, AllTenDatasetsExist) {
  const auto names = AllDatasetNames();
  EXPECT_EQ(names.size(), 10u);
  for (const auto& name : names) {
    auto spec = GetDatasetSpec(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_FALSE(spec->abbreviation.empty());
  }
  EXPECT_FALSE(GetDatasetSpec("nope").ok());
}

class DatasetGenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetGenTest, MatchesSpecShape) {
  auto spec = GetDatasetSpec(GetParam());
  ASSERT_TRUE(spec.ok());
  auto table = GenerateDataset(*spec, 11, /*rows_override=*/200);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 200);
  EXPECT_EQ(table->num_cols(),
            static_cast<int>(spec->categorical.size() +
                             spec->numerical.size()));
  EXPECT_EQ(table->schema().NumCategorical(),
            static_cast<int>(spec->categorical.size()));
  EXPECT_EQ(table->schema().NumNumerical(),
            static_cast<int>(spec->numerical.size()));
  EXPECT_DOUBLE_EQ(table->MissingFraction(), 0.0);  // clean by contract
}

TEST_P(DatasetGenTest, DeterministicForSeed) {
  auto a = GenerateDatasetByName(GetParam(), 5, 50);
  auto b = GenerateDatasetByName(GetParam(), 5, 50);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int c = 0; c < a->num_cols(); ++c) {
    for (int64_t r = 0; r < a->num_rows(); ++r) {
      ASSERT_EQ(a->column(c).StringAt(r), b->column(c).StringAt(r))
          << GetParam() << " col " << c << " row " << r;
    }
  }
}

TEST_P(DatasetGenTest, DeclaredFdsHoldExactly) {
  auto spec = GetDatasetSpec(GetParam());
  ASSERT_TRUE(spec.ok());
  auto table = GenerateDataset(*spec, 23, 300);
  ASSERT_TRUE(table.ok());
  auto fds = ResolveFds(*spec, table->schema());
  ASSERT_TRUE(fds.ok());
  for (const FunctionalDependency& fd : *fds) {
    EXPECT_DOUBLE_EQ(FdViolationRate(*table, fd), 0.0)
        << fd.ToString(table->schema());
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetGenTest,
                         ::testing::ValuesIn(AllDatasetNames()),
                         [](const auto& info) { return info.param; });

TEST(DatasetGenTest, FullSizesMatchPaperRowCounts) {
  // Table 1 row counts (generated at native size).
  const std::vector<std::pair<std::string, int64_t>> expected{
      {"adult", 3016},     {"australian", 690}, {"contraceptive", 1473},
      {"credit", 653},     {"flare", 1066},     {"imdb", 4529},
      {"mammogram", 830},  {"tax", 5000},       {"thoracic", 470},
      {"tictactoe", 958}};
  for (const auto& [name, rows] : expected) {
    auto spec = GetDatasetSpec(name);
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec->rows, rows) << name;
  }
}

TEST(DatasetGenTest, ColumnMixesMatchPaperTable1) {
  // |C| and |N| per dataset from Table 1.
  struct Mix {
    const char* name;
    int cat;
    int num;
  };
  for (const Mix& mix : std::initializer_list<Mix>{{"adult", 9, 5},
                                                   {"australian", 9, 6},
                                                   {"contraceptive", 8, 2},
                                                   {"credit", 10, 6},
                                                   {"flare", 10, 3},
                                                   {"imdb", 9, 2},
                                                   {"mammogram", 5, 1},
                                                   {"tax", 5, 7},
                                                   {"thoracic", 14, 3},
                                                   {"tictactoe", 9, 0}}) {
    auto spec = GetDatasetSpec(mix.name);
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(static_cast<int>(spec->categorical.size()), mix.cat)
        << mix.name;
    EXPECT_EQ(static_cast<int>(spec->numerical.size()), mix.num) << mix.name;
  }
}

TEST(DatasetGenTest, SkewRegimesMatchPaperDirections) {
  // Thoracic/Flare: high F+ with few frequent values; Tic-Tac-Toe:
  // near-uniform (low skew); IMDB: many distinct values.
  auto thoracic = GenerateDatasetByName("thoracic", 3, 470);
  auto ttt = GenerateDatasetByName("tictactoe", 3, 958);
  auto imdb = GenerateDatasetByName("imdb", 3, 1000);
  ASSERT_TRUE(thoracic.ok());
  ASSERT_TRUE(ttt.ok());
  ASSERT_TRUE(imdb.ok());
  const TableStats th = ComputeTableStats(*thoracic);
  const TableStats tt = ComputeTableStats(*ttt);
  const TableStats im = ComputeTableStats(*imdb);
  EXPECT_GT(th.frequent_frac_avg, tt.frequent_frac_avg * 0.9);
  EXPECT_GT(th.frequent_frac_avg, 0.5);
  EXPECT_LT(tt.skew_avg, 1.0);  // near-uniform columns
  // IMDB's distinct count dwarfs the others (title/director/actor).
  EXPECT_GT(im.num_distinct, th.num_distinct * 5);
  EXPECT_GT(im.num_frequent_avg, th.num_frequent_avg);
}

TEST(DatasetGenTest, ClustersMakeAttributesMutuallyPredictive) {
  // The generative model must produce learnable structure: knowing one
  // column should reduce uncertainty about another. Check via simple
  // co-occurrence: the modal "b"-value given the most frequent "a"-value
  // is more likely than b's global mode frequency would suggest... use
  // mutual-information-like check on contraceptive (mid skew).
  auto table = GenerateDatasetByName("contraceptive", 9, 1000);
  ASSERT_TRUE(table.ok());
  const Column& a = table->column(0);
  const Column& b = table->column(1);
  // P(b | a = mode(a)) concentration vs P(b) concentration.
  const int32_t a_mode = a.dict().MostFrequent();
  std::vector<int64_t> cond(static_cast<size_t>(b.dict().size()), 0);
  std::vector<int64_t> marg(static_cast<size_t>(b.dict().size()), 0);
  int64_t n_cond = 0;
  for (int64_t r = 0; r < table->num_rows(); ++r) {
    ++marg[static_cast<size_t>(b.CodeAt(r))];
    if (a.CodeAt(r) == a_mode) {
      ++cond[static_cast<size_t>(b.CodeAt(r))];
      ++n_cond;
    }
  }
  const double cond_max =
      *std::max_element(cond.begin(), cond.end()) / static_cast<double>(n_cond);
  const double marg_max = *std::max_element(marg.begin(), marg.end()) /
                          static_cast<double>(table->num_rows());
  EXPECT_GT(cond_max, marg_max);
}

TEST(DatasetGenTest, RejectsBadInputs) {
  auto spec = GetDatasetSpec("adult");
  ASSERT_TRUE(spec.ok());
  DatasetSpec bad_rows = *spec;
  bad_rows.rows = 0;
  EXPECT_FALSE(GenerateDataset(bad_rows, 1).ok());
  DatasetSpec bad_clusters = *spec;
  bad_clusters.num_clusters = 0;
  EXPECT_FALSE(GenerateDataset(bad_clusters, 1, 10).ok());
}

// --- The "scale" spec -------------------------------------------------------

TEST(ScaleDatasetTest, SpecResolvesButStaysOutOfTheSweepList) {
  auto spec = GetDatasetSpec("scale");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->rows, 5000000);
  EXPECT_FALSE(spec->fd_specs.empty());
  // Deliberately not swept by the parameterized suites/accuracy benches.
  for (const std::string& name : AllDatasetNames()) {
    EXPECT_NE(name, "scale");
  }
}

TEST(ScaleDatasetTest, MatchesSpecShape) {
  auto spec = GetDatasetSpec("scale");
  ASSERT_TRUE(spec.ok());
  auto table = GenerateDatasetByName("scale", 11, /*rows_override=*/5000);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 5000);
  EXPECT_EQ(table->num_cols(),
            static_cast<int>(spec->categorical.size() +
                             spec->numerical.size()));
  EXPECT_DOUBLE_EQ(table->MissingFraction(), 0.0);
  // Every categorical domain is bounded by its declared cardinality.
  for (size_t c = 0; c < spec->categorical.size(); ++c) {
    const Column& col = table->column(static_cast<int>(c));
    ASSERT_TRUE(col.is_categorical());
    EXPECT_LE(col.dict().size(), spec->categorical[c].cardinality);
  }
  // Declared FDs hold exactly.
  auto fds = ResolveFds(*spec, table->schema());
  ASSERT_TRUE(fds.ok());
  for (const FunctionalDependency& fd : *fds) {
    EXPECT_DOUBLE_EQ(FdViolationRate(*table, fd), 0.0)
        << fd.ToString(table->schema());
  }
}

TEST(ScaleDatasetTest, DeterministicForSeed) {
  auto a = GenerateDatasetByName("scale", 9, 5000);
  auto b = GenerateDatasetByName("scale", 9, 5000);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int c = 0; c < a->num_cols(); ++c) {
    for (int64_t r = 0; r < a->num_rows(); ++r) {
      ASSERT_EQ(a->column(c).StringAt(r), b->column(c).StringAt(r))
          << "col " << c << " row " << r;
    }
  }
}

// --- Table digests ------------------------------------------------------------

// Checksum64 over everything a generated table holds: per column its name,
// type, dictionary values and occurrence counts in code order, every cell
// code and, for numerical columns, every cell value's bits.
uint64_t TableDigest(const Table& table) {
  Checksum64 sum;
  const int64_t rows = table.num_rows();
  sum.Update(&rows, sizeof(rows));
  for (int c = 0; c < table.num_cols(); ++c) {
    const Column& col = table.column(c);
    const uint64_t name_len = col.name().size();
    sum.Update(&name_len, sizeof(name_len));
    sum.Update(col.name().data(), name_len);
    const uint8_t categorical = col.is_categorical() ? 1 : 0;
    sum.Update(&categorical, sizeof(categorical));
    const Dictionary& dict = col.dict();
    const int32_t size = dict.size();
    sum.Update(&size, sizeof(size));
    for (int32_t code = 0; code < size; ++code) {
      const std::string& value = dict.ValueOf(code);
      const uint64_t len = value.size();
      sum.Update(&len, sizeof(len));
      sum.Update(value.data(), len);
      const int64_t count = dict.CountOf(code);
      sum.Update(&count, sizeof(count));
    }
    for (int64_t r = 0; r < rows; ++r) {
      const int32_t code = col.CodeAt(r);
      sum.Update(&code, sizeof(code));
      if (!col.is_categorical()) {
        const double value = col.NumAt(r);
        sum.Update(&value, sizeof(value));
      }
    }
  }
  return sum.Digest();
}

// Pins every replica bit for bit: the ten evaluation datasets at their
// Table 1 sizes and the 30,000-row scale table, at two seeds each, plus
// adult at 1,200 rows. A faster generator must reproduce these exactly.
TEST(DatasetDigestTest, GeneratedTablesArePinned) {
  struct Pin {
    const char* name;
    int64_t rows;  // -1: the spec's row count
    uint64_t seed;
    uint64_t digest;
  };
  const Pin pins[] = {
      {"adult", -1, 1, 0x9a68d503caad7aa3ULL},
      {"adult", -1, 7, 0xf70bc9578297a23dULL},
      {"australian", -1, 1, 0x6f45f02d4f1011cfULL},
      {"australian", -1, 7, 0xb69f33b6c1fb1f8fULL},
      {"contraceptive", -1, 1, 0x7ee38ed53122de27ULL},
      {"contraceptive", -1, 7, 0x0fadcc11777f7933ULL},
      {"credit", -1, 1, 0x94cb2440e813f528ULL},
      {"credit", -1, 7, 0x2cd796755364d3f0ULL},
      {"flare", -1, 1, 0x77c35bf3df9999f2ULL},
      {"flare", -1, 7, 0x6023b7b95aa763bfULL},
      {"imdb", -1, 1, 0x54d48fbf90492638ULL},
      {"imdb", -1, 7, 0x0e170d6d564f063cULL},
      {"mammogram", -1, 1, 0x9ce3675b5b5ea13cULL},
      {"mammogram", -1, 7, 0x7b323d193f9cf715ULL},
      {"tax", -1, 1, 0x465ea30ea4b7d3fcULL},
      {"tax", -1, 7, 0xe2a463e12f4841e8ULL},
      {"thoracic", -1, 1, 0x6d9d1033e8723e9dULL},
      {"thoracic", -1, 7, 0xdc51cf0b8ff01052ULL},
      {"tictactoe", -1, 1, 0x4cf9a707c5053dd7ULL},
      {"tictactoe", -1, 7, 0xa900500af0209d40ULL},
      {"scale", 30000, 1, 0x13bfdc14c5e56f15ULL},
      {"scale", 30000, 7, 0xce995fbd7cb7bac9ULL},
      {"adult", 1200, 1, 0x41f4f3a8933a4922ULL},
  };
  for (const Pin& pin : pins) {
    auto table = GenerateDatasetByName(pin.name, pin.seed, pin.rows);
    ASSERT_TRUE(table.ok()) << pin.name;
    char actual[32];
    std::snprintf(actual, sizeof(actual), "0x%016" PRIx64 "ULL",
                  TableDigest(*table));
    EXPECT_EQ(TableDigest(*table), pin.digest)
        << pin.name << " rows " << pin.rows << " seed " << pin.seed
        << ": actual " << actual;
  }
}

// A spec built to reach the generator's rare paths: a text column, an FD
// chain, one-value and all-or-nothing-concentration columns, and numerical
// columns whose cells are all signed zeros, too large or too finely
// rounded for the numeric cell cache, or printed at the default precision
// (negative decimals).
TEST(DatasetDigestTest, EdgeSpecIsPinned) {
  DatasetSpec spec;
  spec.name = "edge";
  spec.rows = 3000;
  spec.num_clusters = 3;
  spec.categorical = {
      {"text", 0, 0.0, 0.0, -1, true},
      {"root", 9, 0.0, 1.0, -1, false},
      {"mid", 4, 0.0, 0.0, 1, false},
      {"leaf", 3, 0.0, 0.0, 2, false},
      {"single", 1, 1.0, 0.5, -1, false},
      {"flat", 5, 1.0, 0.0, -1, false},
  };
  spec.numerical = {
      {"zeros", 0.0, 0.0, 0},   {"huge", 1e8, 1e7, 2},
      {"fine", 2.0, 1.0, 9},    {"finer", 2.0, 1.0, 16},
      {"default", 2.0, 1.0, -1}, {"tenths", 0.3, 0.2, 1},
  };
  for (uint64_t seed : {1u, 7u}) {
    auto table = GenerateDataset(spec, seed);
    ASSERT_TRUE(table.ok());
    char actual[32];
    std::snprintf(actual, sizeof(actual), "0x%016" PRIx64 "ULL",
                  TableDigest(*table));
    const uint64_t expected =
        seed == 1 ? 0x0124abb05ef77d50ULL : 0x872fcdf8e34bb68bULL;
    EXPECT_EQ(TableDigest(*table), expected)
        << "seed " << seed << ": actual " << actual;
  }
}

}  // namespace
}  // namespace grimp
