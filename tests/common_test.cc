#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "common/csv.h"
#include "common/env.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "table/column.h"

namespace grimp {
namespace {

// --- Status / Result -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad dim");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad dim");
}

TEST(StatusTest, CopyPreservesState) {
  Status st = Status::NotFound("x");
  Status copy = st;
  EXPECT_TRUE(copy.IsNotFound());
  EXPECT_EQ(copy.message(), "x");
  Status moved = std::move(copy);
  EXPECT_TRUE(moved.IsNotFound());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kAlreadyExists,
        StatusCode::kFailedPrecondition, StatusCode::kIoError,
        StatusCode::kNotImplemented, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> DoubleIfPositive(int v) {
  GRIMP_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good = ParsePositive(3);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 3);
  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*DoubleIfPositive(4), 8);
  EXPECT_FALSE(DoubleIfPositive(0).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

// --- String utilities --------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, JoinInvertsSplit) {
  const std::vector<std::string> parts{"x", "", "yz"};
  EXPECT_EQ(Split(Join(parts, '|'), '|'), parts);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b \t"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringUtilTest, Fnv1aIsStableAndSeedSensitive) {
  EXPECT_EQ(Fnv1a("abc"), Fnv1a("abc"));
  EXPECT_NE(Fnv1a("abc"), Fnv1a("abd"));
  EXPECT_NE(Fnv1a("abc", 1), Fnv1a("abc", 2));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(-0.5, 0), "-0");  // fixed notation rounding
  EXPECT_EQ(FormatDouble(2.0, 3), "2.000");
}

// printf's "%.*f" into a buffer long enough for any double.
std::string PrintfFixed(double v, int precision) {
  std::vector<char> buf(512 + static_cast<size_t>(std::max(precision, 6)));
  std::snprintf(buf.data(), buf.size(), "%.*f", precision, v);
  return buf.data();
}

TEST(StringUtilTest, FormatDoubleMatchesPrintfAtEveryMagnitude) {
  Rng rng(17);
  const int precisions[] = {-1, 0, 1, 2, 5, 8, 16, 40};
  for (int i = 0; i < 20000; ++i) {
    // Half raw bit patterns (every exponent, subnormals, NaN payloads),
    // half decimal-looking values at table scales, where ties occur.
    double v = 0.0;
    if (i % 2 == 0) {
      const uint64_t bits = rng.Next();
      std::memcpy(&v, &bits, sizeof(v));
    } else {
      v = static_cast<double>(static_cast<int64_t>(rng.Uniform(2000001)) -
                              1000000) /
          static_cast<double>(uint64_t{1} << rng.Uniform(12));
    }
    for (const int precision : precisions) {
      ASSERT_EQ(FormatDouble(v, precision), PrintfFixed(v, precision))
          << std::hexfloat << v << " at precision " << precision;
    }
  }
}

TEST(StringUtilTest, FormatDoubleSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(FormatDouble(0.0, 8), "0.00000000");
  EXPECT_EQ(FormatDouble(-0.0, 8), "-0.00000000");
  EXPECT_EQ(FormatDouble(inf, 8), "inf");
  EXPECT_EQ(FormatDouble(-inf, 8), "-inf");
  EXPECT_EQ(FormatDouble(nan, 8), PrintfFixed(nan, 8));
  EXPECT_EQ(FormatDouble(-nan, 8), PrintfFixed(-nan, 8));
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::denorm_min(), 8),
            "0.00000000");
  const double max = std::numeric_limits<double>::max();
  EXPECT_EQ(FormatDouble(-max, 8).size(), 1u + 309u + 1u + 8u);
  EXPECT_EQ(FormatDouble(-max, 8), PrintfFixed(-max, 8));
}

// A numeric cell's code is keyed by its canonical string, so the string
// must parse back to the value at any magnitude (it was cut at 63
// characters, which read 1e300 back as 1e62).
TEST(StringUtilTest, HugeNumericCellRoundTripsThroughColumn) {
  Column column(Field{"x", AttrType::kNumerical});
  column.AppendNumerical(1.0);
  column.AppendNumerical(1e300);
  double parsed = 0.0;
  ASSERT_TRUE(ParseDouble(column.StringAt(1), &parsed));
  EXPECT_EQ(parsed, 1e300);
  column.SetFromCode(0, column.CodeAt(1));
  EXPECT_EQ(column.NumAt(0), 1e300);
  EXPECT_EQ(column.StringAt(0), column.StringAt(1));
}

// --- RNG ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedMixerIsSplitMix64) {
  // Reference splitmix64 outputs; every keyed stream and Rng's seeding
  // build on this one function.
  EXPECT_EQ(SplitMix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(MixSeed(3, 5, 7),
            SplitMix64(SplitMix64(SplitMix64(3) ^ 5) ^ 7));
  // Seeding through the shared function left every stream unchanged.
  EXPECT_EQ(Rng(0).Next(), 0x99ec5f36cb75f2b4ULL);
  EXPECT_EQ(Rng(42).Next(), 0x15780b2e0c2ec716ULL);
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(13);
  const CategoricalTable table({1.0, 3.0});
  int ones = 0;
  for (int i = 0; i < 4000; ++i) ones += table.Draw(&rng) == 1;
  EXPECT_NEAR(ones / 4000.0, 0.75, 0.03);
}

TEST(RngTest, CategoricalDegenerateInput) {
  Rng rng(13);
  const CategoricalTable zeros({0.0, 0.0, 0.0});
  EXPECT_EQ(zeros.Draw(&rng), 2u);
}

// The linear scan the cumulative table replaces: accumulate the weights
// left to right and stop at the first running sum above r.
size_t LinearScan(const std::vector<double>& weights, double r) {
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

size_t LinearScanDraw(const std::vector<double>& weights, Rng* rng) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return weights.size() - 1;
  return LinearScan(weights, rng->NextDouble() * total);
}

std::vector<double> RunningSums(const std::vector<double>& weights) {
  std::vector<double> acc(weights.size());
  double sum = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    sum += weights[i];
    acc[i] = sum;
  }
  return acc;
}

// Random weights of `size` entries; about a third are zero, and the
// first and last entries are zeroed on alternate trials.
std::vector<double> RandomWeights(size_t size, int trial, Rng* rng) {
  std::vector<double> w(size);
  for (double& x : w) {
    x = rng->Uniform(3) == 0 ? 0.0 : rng->NextDouble() * 10.0;
  }
  if (trial % 2 == 1) w.front() = 0.0;
  if (trial % 4 >= 2) w.back() = 0.0;
  return w;
}

TEST(CategoricalTableTest, DrawsMatchLinearScanOnRandomWeights) {
  Rng gen(41);
  for (size_t size : {1u, 2u, 3u, 17u, 2000u}) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::vector<double> w = RandomWeights(size, trial, &gen);
      const CategoricalTable table(w);
      Rng a(1000 + static_cast<uint64_t>(trial));
      Rng b(1000 + static_cast<uint64_t>(trial));
      for (int d = 0; d < 500; ++d) {
        ASSERT_EQ(table.Draw(&a), LinearScanDraw(w, &b))
            << "size " << size << " trial " << trial << " draw " << d;
      }
      // Both consumed the same stream.
      EXPECT_EQ(a.Next(), b.Next());
    }
  }
}

TEST(CategoricalTableTest, ForcedValuesAtAndJustUnderEachSumMatchLinearScan) {
  Rng gen(43);
  std::vector<std::vector<double>> cases = {
      {0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0.0},  // zeros at both ends and inside
      {5.0},
      {0.0},
      {1.0, 0.0},
      {0.0, 1.0},
      {0.1, 0.2, 0.3},
  };
  for (int trial = 0; trial < 8; ++trial) {
    cases.push_back(RandomWeights(2000, trial, &gen));
  }
  for (const std::vector<double>& w : cases) {
    const CategoricalTable table(w);
    const std::vector<double> acc = RunningSums(w);
    EXPECT_EQ(table.total(), acc.back());
    for (double sum : acc) {
      for (double r : {sum, std::nextafter(sum, 0.0),
                       std::nextafter(sum, 1e300), 0.0}) {
        ASSERT_EQ(table.Find(r), LinearScan(w, r))
            << "size " << w.size() << " r " << r;
      }
    }
  }
}

TEST(CategoricalTableTest, AllZeroWeightsDrawNothingAndGiveTheLastIndex) {
  for (size_t size : {1u, 2u, 2000u}) {
    const CategoricalTable table(std::vector<double>(size, 0.0));
    Rng rng(7);
    for (int d = 0; d < 3; ++d) EXPECT_EQ(table.Draw(&rng), size - 1);
    // No draw consumed the stream.
    EXPECT_EQ(rng.Next(), Rng(7).Next());
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(19);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// --- CSV ---------------------------------------------------------------------

TEST(CsvTest, ParsesSimpleLine) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, ParsesQuotedFields) {
  auto fields = ParseCsvLine(R"("a,b",c,"he said ""hi""")");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields,
            (std::vector<std::string>{"a,b", "c", "he said \"hi\""}));
}

TEST(CsvTest, RejectsMalformedQuotes) {
  EXPECT_FALSE(ParseCsvLine("\"unterminated").ok());
  EXPECT_FALSE(ParseCsvLine("ab\"cd").ok());
}

TEST(CsvTest, ParseStringWithHeader) {
  auto data = ParseCsvString("h1,h2\n1,x\n2,y\n");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->header, (std::vector<std::string>{"h1", "h2"}));
  ASSERT_EQ(data->rows.size(), 2u);
  EXPECT_EQ(data->rows[1][1], "y");
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsvString("a,b\n1\n").ok());
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseCsvString("").ok());
}

TEST(CsvTest, EscapeRoundTrip) {
  const std::string tricky = "a,\"b\"\nc";
  const std::string escaped = EscapeCsvField("v,1", ',');
  EXPECT_EQ(escaped, "\"v,1\"");
  (void)tricky;
}

TEST(CsvTest, FileRoundTrip) {
  CsvData data;
  data.header = {"name", "value"};
  data.rows = {{"x,y", "1"}, {"plain", "2"}};
  const std::string path = ::testing::TempDir() + "/grimp_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, data).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->header, data.header);
  EXPECT_EQ(back->rows, data.rows);
}

TEST(CsvTest, MissingFileIsIoError) {
  auto r = ReadCsvFile("/nonexistent/definitely_missing.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIoError());
}

// --- Environment overrides -------------------------------------------------

// EnvOverrides::PositiveInt of `value` (nullptr == unset) with fallback 7.
int ParsePositiveInt(const char* value) {
  constexpr char kName[] = "GRIMP_TEST_POSITIVE_INT";
  if (value == nullptr) {
    unsetenv(kName);
  } else {
    setenv(kName, value, 1);
  }
  const int parsed = EnvOverrides::PositiveInt(kName, 7);
  unsetenv(kName);
  return parsed;
}

TEST(EnvOverridesTest, PositiveIntParsesPlainDecimals) {
  EXPECT_EQ(ParsePositiveInt("4"), 4);
  EXPECT_EQ(ParsePositiveInt("1"), 1);
  EXPECT_EQ(ParsePositiveInt("2147483647"), 2147483647);
}

TEST(EnvOverridesTest, PositiveIntFallsBackWhenUnsetOrNotPositive) {
  EXPECT_EQ(ParsePositiveInt(nullptr), 7);
  EXPECT_EQ(ParsePositiveInt(""), 7);
  EXPECT_EQ(ParsePositiveInt("0"), 7);
  EXPECT_EQ(ParsePositiveInt("-3"), 7);
}

TEST(EnvOverridesTest, PositiveIntFallsBackOutOfIntRange) {
  // An unchecked int64 -> int cast would wrap these to -1294967296 and 4.
  EXPECT_EQ(ParsePositiveInt("3000000000"), 7);
  EXPECT_EQ(ParsePositiveInt("4294967300"), 7);
  EXPECT_EQ(ParsePositiveInt("2147483648"), 7);
  EXPECT_EQ(ParsePositiveInt("99999999999999999999"), 7);  // > int64
}

TEST(EnvOverridesTest, PositiveIntFallsBackOnNonNumericText) {
  EXPECT_EQ(ParsePositiveInt("4abc"), 7);  // not a numeric prefix parse
  EXPECT_EQ(ParsePositiveInt("abc"), 7);
  EXPECT_EQ(ParsePositiveInt("4 "), 7);
  EXPECT_EQ(ParsePositiveInt(" 4"), 7);
  EXPECT_EQ(ParsePositiveInt("+4"), 7);
  EXPECT_EQ(ParsePositiveInt("4.5"), 7);
}

}  // namespace
}  // namespace grimp
