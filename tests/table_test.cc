#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/csv.h"
#include "table/normalizer.h"
#include "table/table.h"

namespace grimp {
namespace {

Table MakeMixedTable() {
  Schema schema({{"city", AttrType::kCategorical},
                 {"salary", AttrType::kNumerical}});
  Table t(schema);
  EXPECT_TRUE(t.AppendRow({"paris", "100"}).ok());
  EXPECT_TRUE(t.AppendRow({"rome", "200"}).ok());
  EXPECT_TRUE(t.AppendRow({"paris", ""}).ok());
  EXPECT_TRUE(t.AppendRow({"", "400"}).ok());
  return t;
}

TEST(DictionaryTest, CodesCountsAndMode) {
  Dictionary d;
  const int32_t a = d.GetOrAdd("a");
  const int32_t b = d.GetOrAdd("b");
  EXPECT_EQ(d.GetOrAdd("a"), a);
  EXPECT_NE(a, b);
  d.AddOccurrence(a);
  d.AddOccurrence(a);
  d.AddOccurrence(b);
  EXPECT_EQ(d.CountOf(a), 2);
  EXPECT_EQ(d.MostFrequent(), a);
  EXPECT_EQ(d.Find("c"), -1);
  EXPECT_EQ(d.ValueOf(b), "b");
  d.AddOccurrence(a, -2);
  d.AddOccurrence(b, 5);
  EXPECT_EQ(d.MostFrequent(), b);
}

// The decode rule: the highest-scoring live code, first maximum wins.
TEST(DictionaryTest, ArgmaxLiveSkipsDeadCodesAndKeepsFirstMaximum) {
  Dictionary d;
  for (const char* v : {"a", "b", "c", "d"}) d.GetOrAdd(v);
  EXPECT_EQ(d.ArgmaxLive(std::vector<float>{1, 2, 3, 4}.data()), -1);
  d.AddOccurrence(0);
  d.AddOccurrence(2);
  d.AddOccurrence(3);
  // Code 1 scores highest but is dead; codes 2 and 3 tie.
  EXPECT_EQ(d.ArgmaxLive(std::vector<float>{-5, 9, 7, 7}.data()), 2);
  // A live code wins even with a negative score.
  d.AddOccurrence(2, -1);
  d.AddOccurrence(3, -1);
  EXPECT_EQ(d.ArgmaxLive(std::vector<float>{-5, 9, 7, 7}.data()), 0);
}

TEST(ColumnTest, CategoricalAppendAndMissing) {
  Column col(Field{"c", AttrType::kCategorical});
  col.AppendCategorical("x");
  col.AppendMissing();
  col.AppendCategorical("y");
  col.AppendCategorical("x");
  EXPECT_EQ(col.num_rows(), 4);
  EXPECT_EQ(col.NumPresent(), 3);
  EXPECT_TRUE(col.IsMissing(1));
  EXPECT_EQ(col.StringAt(0), "x");
  EXPECT_EQ(col.StringAt(1), "");
  EXPECT_EQ(col.dict().CountOf(col.CodeAt(0)), 2);
}

TEST(ColumnTest, SetMissingUpdatesCounts) {
  Column col(Field{"c", AttrType::kCategorical});
  col.AppendCategorical("x");
  col.AppendCategorical("x");
  const int32_t code = col.CodeAt(0);
  col.SetMissing(0);
  EXPECT_EQ(col.dict().CountOf(code), 1);
  EXPECT_TRUE(col.IsMissing(0));
  col.SetCategorical(0, "y");
  EXPECT_EQ(col.StringAt(0), "y");
}

TEST(ColumnTest, NumericalRoundTripAndCanonicalForm) {
  Column col(Field{"n", AttrType::kNumerical});
  col.AppendNumerical(1.5);
  col.AppendMissing();
  col.AppendNumerical(1.5);
  EXPECT_DOUBLE_EQ(col.NumAt(0), 1.5);
  EXPECT_TRUE(std::isnan(col.NumAt(1)));
  // Identical numbers share a dictionary code (graph node identity).
  EXPECT_EQ(col.CodeAt(0), col.CodeAt(2));
  EXPECT_EQ(col.StringAt(0), Column::CanonicalNumeric(1.5));
}

TEST(ColumnTest, SetFromCodeParsesNumeric) {
  Column col(Field{"n", AttrType::kNumerical});
  col.AppendNumerical(2.25);
  col.AppendMissing();
  col.SetFromCode(1, col.CodeAt(0));
  EXPECT_DOUBLE_EQ(col.NumAt(1), 2.25);
}

TEST(ColumnTest, NumericMoments) {
  Column col(Field{"n", AttrType::kNumerical});
  col.AppendNumerical(1.0);
  col.AppendNumerical(3.0);
  col.AppendMissing();
  double mean = 0, std = 0;
  col.NumericMoments(&mean, &std);
  EXPECT_DOUBLE_EQ(mean, 2.0);
  EXPECT_DOUBLE_EQ(std, 1.0);
}

TEST(TableTest, AppendAndBasicStats) {
  Table t = MakeMixedTable();
  EXPECT_EQ(t.num_rows(), 4);
  EXPECT_EQ(t.num_cols(), 2);
  EXPECT_TRUE(t.IsMissing(2, 1));
  EXPECT_TRUE(t.IsMissing(3, 0));
  EXPECT_DOUBLE_EQ(t.MissingFraction(), 2.0 / 8.0);
  EXPECT_EQ(t.NumDirtyRows(), 2);
  // Distinct live values: paris, rome + three numbers.
  EXPECT_EQ(t.NumDistinctValues(), 5);
}

TEST(TableTest, AppendRowRejectsWrongArity) {
  Table t = MakeMixedTable();
  EXPECT_FALSE(t.AppendRow({"only-one"}).ok());
}

TEST(TableTest, AppendRowParsesNumericCellsOnceAsTheCellPathDoes) {
  Schema schema({{"city", AttrType::kCategorical},
                 {"x", AttrType::kNumerical}});
  Table t(schema);
  // Reference: the per-cell string append, which parses on its own.
  Column ref(Field{"x", AttrType::kNumerical});
  const std::vector<std::string> cells = {"-0", " 1e3 ", "0.10", " 1e3 "};
  for (size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(t.AppendRow({i % 2 == 0 ? "a" : "b", cells[i]}).ok());
    ASSERT_TRUE(ref.AppendFromString(cells[i]).ok());
  }
  const Column& x = t.column(1);
  ASSERT_EQ(x.num_rows(), ref.num_rows());
  for (int64_t r = 0; r < x.num_rows(); ++r) {
    EXPECT_EQ(x.CodeAt(r), ref.CodeAt(r)) << r;
    const double got = x.NumAt(r);
    const double want = ref.NumAt(r);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0) << r;
  }
  EXPECT_EQ(x.dict().values(), ref.dict().values());
  EXPECT_EQ(x.dict().counts(), ref.dict().counts());
  EXPECT_TRUE(std::signbit(x.NumAt(0)));
  EXPECT_EQ(x.StringAt(0), "-0.00000000");
  EXPECT_EQ(x.NumAt(1), 1000.0);
  EXPECT_EQ(x.StringAt(1), "1000.00000000");
  EXPECT_EQ(x.NumAt(2), 0.1);
  EXPECT_EQ(x.StringAt(2), "0.10000000");
  EXPECT_EQ(x.CodeAt(3), x.CodeAt(1));

  // An unparseable numeric cell rejects the whole row: nothing is
  // appended or interned, in either column.
  const std::vector<std::string> city_values = t.column(0).dict().values();
  const std::vector<int64_t> city_counts = t.column(0).dict().counts();
  const std::vector<int64_t> x_counts = x.dict().counts();
  const Status st = t.AppendRow({"c", "x"});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 4);
  EXPECT_EQ(t.column(0).num_rows(), 4);
  EXPECT_EQ(x.num_rows(), 4);
  EXPECT_EQ(t.column(0).dict().values(), city_values);
  EXPECT_EQ(t.column(0).dict().counts(), city_counts);
  EXPECT_EQ(x.dict().counts(), x_counts);
  EXPECT_EQ(x.dict().size(), 3);
}

TEST(TableTest, FromCsvInfersTypes) {
  auto csv = ParseCsvString("name,age,score\nalice,30,1.5\nbob,?,2.5\n,40,\n");
  ASSERT_TRUE(csv.ok());
  auto table = Table::FromCsv(*csv);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().field(0).type, AttrType::kCategorical);
  EXPECT_EQ(table->schema().field(1).type, AttrType::kNumerical);
  EXPECT_EQ(table->schema().field(2).type, AttrType::kNumerical);
  EXPECT_TRUE(table->IsMissing(1, 1));  // "?"
  EXPECT_TRUE(table->IsMissing(2, 0));  // ""
  EXPECT_DOUBLE_EQ(table->column(1).NumAt(2), 40.0);
}

TEST(TableTest, AllMissingColumnStaysCategorical) {
  auto csv = ParseCsvString("a,b\n?,1\n?,2\n");
  ASSERT_TRUE(csv.ok());
  auto table = Table::FromCsv(*csv);
  ASSERT_TRUE(table.ok());
  // Column with no present values defaults to categorical.
  EXPECT_EQ(table->schema().field(0).type, AttrType::kCategorical);
}

TEST(TableTest, ToCsvRoundTrip) {
  Table t = MakeMixedTable();
  CsvData csv = t.ToCsv();
  EXPECT_EQ(csv.header, (std::vector<std::string>{"city", "salary"}));
  ASSERT_EQ(csv.rows.size(), 4u);
  EXPECT_EQ(csv.rows[0][0], "paris");
  EXPECT_EQ(csv.rows[2][1], "");  // missing serializes as empty
  auto back = Table::FromCsv(csv);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 4);
  EXPECT_TRUE(back->IsMissing(2, 1));
  EXPECT_DOUBLE_EQ(back->column(1).NumAt(1), 200.0);
}

TEST(SchemaTest, FieldLookupAndTypeCounts) {
  Schema s({{"a", AttrType::kCategorical},
            {"b", AttrType::kNumerical},
            {"c", AttrType::kNumerical}});
  EXPECT_EQ(s.FieldIndex("b"), 1);
  EXPECT_EQ(s.FieldIndex("nope"), -1);
  EXPECT_EQ(s.NumCategorical(), 1);
  EXPECT_EQ(s.NumNumerical(), 2);
}

TEST(NormalizerTest, NormalizeAndInvert) {
  Table t = MakeMixedTable();  // salary present: 100, 200, 400
  Normalizer norm = Normalizer::Fit(t);
  const double z = norm.Normalize(1, 200.0);
  EXPECT_NEAR(norm.Denormalize(1, z), 200.0, 1e-9);
  // Mean of {100, 200, 400} is 233.33...; its z-score is ~0.
  EXPECT_NEAR(norm.Normalize(1, 700.0 / 3.0), 0.0, 1e-9);
  // Categorical column is untouched (identity stats).
  EXPECT_DOUBLE_EQ(norm.mean(0), 0.0);
  EXPECT_DOUBLE_EQ(norm.stddev(0), 1.0);
}

}  // namespace
}  // namespace grimp
