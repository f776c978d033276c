#include <gtest/gtest.h>

#include "table/stats.h"

namespace grimp {
namespace {

TEST(StatsTest, SkewnessOfSymmetricSampleIsZero) {
  EXPECT_NEAR(Skewness({1, 2, 3, 4, 5}), 0.0, 1e-12);
  EXPECT_NEAR(Skewness({-2, 0, 2}), 0.0, 1e-12);
}

TEST(StatsTest, SkewnessSign) {
  // Long right tail -> positive skew.
  EXPECT_GT(Skewness({1, 1, 1, 1, 10}), 0.0);
  EXPECT_LT(Skewness({-10, 1, 1, 1, 1}), 0.0);
}

TEST(StatsTest, SkewnessDegenerateCases) {
  EXPECT_EQ(Skewness({}), 0.0);
  EXPECT_EQ(Skewness({5}), 0.0);
  EXPECT_EQ(Skewness({2, 2, 2}), 0.0);  // zero variance
}

TEST(StatsTest, ExcessKurtosisOfUniformIsNegative) {
  std::vector<double> uniform;
  for (int i = 0; i < 100; ++i) uniform.push_back(i);
  // Continuous uniform has excess kurtosis -1.2.
  EXPECT_NEAR(ExcessKurtosis(uniform), -1.2, 0.05);
}

TEST(StatsTest, ExcessKurtosisHeavyTailIsPositive) {
  std::vector<double> sample(100, 0.0);
  sample[0] = 50.0;
  sample[1] = -50.0;
  EXPECT_GT(ExcessKurtosis(sample), 0.0);
}

TEST(StatsTest, PearsonCorrelation) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  for (double& v : y) v = -v;
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);  // zero variance
}

Table SkewedTable() {
  Schema schema({{"c", AttrType::kCategorical}});
  Table t(schema);
  // "a" x 8, "b" x 1, "c" x 1: one dominant value.
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(t.AppendRow({"a"}).ok());
  EXPECT_TRUE(t.AppendRow({"b"}).ok());
  EXPECT_TRUE(t.AppendRow({"c"}).ok());
  return t;
}

TEST(StatsTest, ColumnStatsFrequentValues) {
  Table t = SkewedTable();
  ColumnStats cs = ComputeColumnStats(t, 0);
  EXPECT_EQ(cs.num_distinct, 3);
  // Counts are {8,1,1}: q90 over sorted {1,1,8} picks 8's predecessor, so
  // only "a" (count 8 > 1) is frequent.
  EXPECT_EQ(cs.num_frequent, 1);
  EXPECT_NEAR(cs.frequent_fraction, 0.8, 1e-12);
  EXPECT_GT(cs.skewness, 0.0);  // frequency distribution is right-skewed
}

TEST(StatsTest, ColumnStatsUniformColumnFallsBackToMode) {
  Schema schema({{"c", AttrType::kCategorical}});
  Table t(schema);
  for (const char* v : {"x", "y", "z", "x", "y", "z"}) {
    ASSERT_TRUE(t.AppendRow({v}).ok());
  }
  ColumnStats cs = ComputeColumnStats(t, 0);
  // All equally frequent: modal values are treated as frequent.
  EXPECT_EQ(cs.num_frequent, 3);
  EXPECT_NEAR(cs.frequent_fraction, 1.0, 1e-12);
  EXPECT_NEAR(cs.skewness, 0.0, 1e-12);
}

TEST(StatsTest, TableStatsAggregates) {
  Table t = SkewedTable();
  TableStats ts = ComputeTableStats(t);
  EXPECT_EQ(ts.num_rows, 10);
  EXPECT_EQ(ts.num_cols, 1);
  EXPECT_EQ(ts.num_categorical, 1);
  EXPECT_EQ(ts.num_distinct, 3);
  ASSERT_EQ(ts.columns.size(), 1u);
  EXPECT_DOUBLE_EQ(ts.frequent_frac_avg, ts.columns[0].frequent_fraction);
}

// The paper's parameter-count formulas must reproduce Table 1 exactly for
// every dataset (|C| is the column count of each dataset).
struct ParamCountCase {
  const char* dataset;
  int num_cols;
  int64_t shared;
  int64_t linear;
  int64_t attention;
};

// Without this, gtest prints the case as raw bytes, which include the address
// of `dataset`; discovered ctest names would then change from run to run.
void PrintTo(const ParamCountCase& c, std::ostream* os) { *os << c.dataset; }

class ParameterCountTest : public ::testing::TestWithParam<ParamCountCase> {};

TEST_P(ParameterCountTest, MatchesPaperTable1) {
  const ParamCountCase& c = GetParam();
  const ParameterCounts pc = ComputeParameterCounts(c.num_cols);
  EXPECT_EQ(pc.shared, c.shared) << c.dataset;
  EXPECT_EQ(pc.linear, c.linear) << c.dataset;
  EXPECT_EQ(pc.attention, c.attention) << c.dataset;
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, ParameterCountTest,
    ::testing::Values(ParamCountCase{"Adult", 14, 2048, 5632, 8572},
                      ParamCountCase{"Australian", 15, 2176, 6016, 9616},
                      ParamCountCase{"Contraceptive", 10, 1536, 4096, 5196},
                      ParamCountCase{"Credit", 16, 2304, 6400, 10752},
                      ParamCountCase{"Flare", 13, 1920, 5248, 7614},
                      ParamCountCase{"IMDB", 11, 1664, 4480, 5932},
                      ParamCountCase{"Mammogram", 6, 1024, 2560, 2812},
                      ParamCountCase{"Tax", 12, 1792, 4864, 6736},
                      ParamCountCase{"Thoracic", 17, 2432, 6784, 11986},
                      ParamCountCase{"TicTacToe", 9, 1408, 3712, 4522}),
    [](const ::testing::TestParamInfo<ParamCountCase>& info) {
      return info.param.dataset;
    });

}  // namespace
}  // namespace grimp
