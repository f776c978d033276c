#include "data/datasets.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace grimp {

namespace {

// Zipf weights w_v proportional to 1/(v+1)^s over `n` values.
std::vector<double> ZipfWeights(int n, double s) {
  std::vector<double> w(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    w[static_cast<size_t>(v)] = 1.0 / std::pow(static_cast<double>(v + 1), s);
  }
  return w;
}

// Pseudo-word generator for high-cardinality text columns (IMDB titles /
// director names).
std::string RandomName(Rng* rng) {
  static constexpr const char* kOnsets[] = {"b",  "br", "c",  "ch", "d",
                                            "dr", "f",  "g",  "gr", "h",
                                            "k",  "l",  "m",  "n",  "p",
                                            "r",  "s",  "st", "t",  "v"};
  static constexpr const char* kVowels[] = {"a", "e", "i", "o", "u", "ai",
                                            "ea", "ou"};
  static constexpr const char* kCodas[] = {"",  "n", "r", "s", "t",
                                           "l", "m", "x", "ck"};
  std::string name;
  const int syllables = 2 + static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < syllables; ++i) {
    name += kOnsets[rng->Uniform(20)];
    name += kVowels[rng->Uniform(8)];
    name += kCodas[rng->Uniform(9)];
  }
  return name;
}

// Appends a numerical column's cells as AppendRow does with the string
// FormatDouble(value, decimals): the cell holds that string parsed back,
// and its code is the canonical form of the parsed value. Both are pure
// functions of the printed string, which is fixed by the sign of `value`
// and q = round(value * 10^decimals) whenever value * 10^decimals is
// clearly away from a .5 tie (the sign matters only at q == 0, printed
// "0.00" or "-0.00"). Those cells come from a cache keyed on (q, sign);
// every other cell is formatted and parsed.
class NumericCellInterner {
 public:
  NumericCellInterner(Column* column, int decimals)
      : column_(column), decimals_(decimals) {
    for (int d = 0; d < decimals; ++d) scale_ *= 10.0;  // exact to 10^22
  }

  void Append(double value) {
    const double scaled = value * scale_;
    // |scaled| < 1e9 keeps the product's rounding error under 1.2e-7, so
    // a margin of 1e-6 from the tie fixes which side the exact decimal
    // rounding falls on.
    if (decimals_ >= 0 && decimals_ <= 15 && std::fabs(scaled) < 1e9) {
      const double whole = std::floor(scaled);
      const double frac = scaled - whole;
      if (std::fabs(frac - 0.5) > 1e-6) {
        const int64_t q = static_cast<int64_t>(whole) + (frac > 0.5 ? 1 : 0);
        const int64_t key = 2 * q + (std::signbit(value) ? 1 : 0);
        auto [it, inserted] = by_key_.try_emplace(key);
        if (inserted) it->second = Intern(value);
        Push(it->second);
        return;
      }
    }
    Push(Intern(value));
  }

  // Appends the buffered cells (Column::AppendCodes).
  void Flush() {
    column_->AppendCodes(codes_, values_);
    codes_.clear();
    values_.clear();
  }

 private:
  struct Cell {
    int32_t code = -1;
    double value = 0.0;
  };

  // Cells go to the column in runs of this many.
  static constexpr size_t kRun = 4096;

  void Push(const Cell& cell) {
    codes_.push_back(cell.code);
    values_.push_back(cell.value);
    if (codes_.size() == kRun) Flush();
  }

  Cell Intern(double value) {
    Cell cell;
    GRIMP_CHECK(ParseDouble(FormatDouble(value, decimals_), &cell.value));
    cell.code = column_->InternValue(Column::CanonicalNumeric(cell.value));
    return cell;
  }

  Column* column_;
  int decimals_;
  double scale_ = 1.0;
  std::unordered_map<int64_t, Cell> by_key_;
  std::vector<int32_t> codes_;
  std::vector<double> values_;
};

}  // namespace

Result<std::vector<FunctionalDependency>> ResolveFds(const DatasetSpec& spec,
                                                     const Schema& schema) {
  std::vector<FunctionalDependency> fds;
  for (const std::string& fd_spec : spec.fd_specs) {
    GRIMP_ASSIGN_OR_RETURN(auto fd, ParseFd(fd_spec, schema));
    fds.push_back(std::move(fd));
  }
  return fds;
}

Result<Table> GenerateDataset(const DatasetSpec& spec, uint64_t seed,
                              int64_t rows_override) {
  const int64_t rows = rows_override > 0 ? rows_override : spec.rows;
  if (rows <= 0) return Status::InvalidArgument("rows must be positive");
  if (spec.num_clusters <= 0) {
    return Status::InvalidArgument("num_clusters must be positive");
  }
  for (size_t j = 0; j < spec.categorical.size(); ++j) {
    const auto& cat = spec.categorical[j];
    if (!cat.high_cardinality_text && cat.cardinality <= 0) {
      return Status::InvalidArgument("non-positive cardinality: " + cat.name);
    }
    // FD children read their parent's codes, drawn earlier in the column
    // loop below.
    if (cat.fd_parent >= 0 && static_cast<size_t>(cat.fd_parent) >= j) {
      return Status::InvalidArgument(
          "FD parent must precede child column: " + cat.name);
    }
  }
  Rng rng(seed ^ Fnv1a(spec.name));

  // Schema: categorical columns first, then numerical (matching the
  // paper's table layouts is irrelevant; column order is arbitrary).
  std::vector<Field> fields;
  for (const auto& cat : spec.categorical) {
    fields.push_back(Field{cat.name, AttrType::kCategorical});
  }
  for (const auto& num : spec.numerical) {
    fields.push_back(Field{num.name, AttrType::kNumerical});
  }
  Table table{Schema(std::move(fields))};
  for (int c = 0; c < table.num_cols(); ++c) {
    table.mutable_column(c).Reserve(rows);
  }

  // Cluster assignment per row, mildly skewed.
  const CategoricalTable cluster_table(ZipfWeights(spec.num_clusters, 0.7));
  std::vector<int> cluster(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    cluster[static_cast<size_t>(r)] =
        static_cast<int>(cluster_table.Draw(&rng));
  }

  // Per-cluster Gaussian means for numerical columns.
  std::vector<std::vector<double>> num_means(spec.numerical.size());
  for (size_t j = 0; j < spec.numerical.size(); ++j) {
    num_means[j].resize(static_cast<size_t>(spec.num_clusters));
    for (int k = 0; k < spec.num_clusters; ++k) {
      num_means[j][static_cast<size_t>(k)] =
          rng.NextGaussian() * spec.numerical[j].cluster_spread;
    }
  }

  // High-cardinality text pools: mostly-unique names with light reuse.
  std::vector<std::vector<std::string>> text_pools(spec.categorical.size());
  for (size_t j = 0; j < spec.categorical.size(); ++j) {
    if (!spec.categorical[j].high_cardinality_text) continue;
    const int64_t pool = std::max<int64_t>(2, (rows * 9) / 10);
    text_pools[j].reserve(static_cast<size_t>(pool));
    for (int64_t i = 0; i < pool; ++i) {
      text_pools[j].push_back(RandomName(&rng));
    }
  }

  // Categorical columns, one at a time: draw each row's value id and
  // append it. FD children read their parent's ids, so parents keep them.
  std::vector<std::vector<int>> parent_ids(spec.categorical.size());
  for (const auto& cat : spec.categorical) {
    if (cat.fd_parent >= 0) {
      parent_ids[static_cast<size_t>(cat.fd_parent)].resize(
          static_cast<size_t>(rows));
    }
  }
  for (size_t j = 0; j < spec.categorical.size(); ++j) {
    const auto& cat = spec.categorical[j];
    // Distinct pseudo-word value names per (column, id). Real categorical
    // values ("France", "Germany") are lexically distinct; near-identical
    // names like "col_v0"/"col_v1" would make every string featurizer
    // (n-gram hashing, DataWig) artificially blind.
    std::vector<std::string> value_names;
    if (!cat.high_cardinality_text) {
      Rng name_rng(Fnv1a(cat.name, seed) ^ 0xabcdef1234567ULL);
      value_names.reserve(static_cast<size_t>(cat.cardinality));
      for (int v = 0; v < cat.cardinality; ++v) {
        value_names.push_back(RandomName(&name_rng) + "_" +
                              std::to_string(v));
      }
    }
    const std::vector<std::string>& names =
        cat.high_cardinality_text ? text_pools[j] : value_names;
    Column& col = table.mutable_column(static_cast<int>(j));
    // An id's name is interned the first time a row uses it, so dictionary
    // codes come in first-occurrence order, as appending the names row by
    // row would give.
    std::vector<int32_t> dict_code(names.size(), -1);
    std::vector<int>& ids = parent_ids[j];
    // The column's codes, appended in one run once drawn.
    std::vector<int32_t> codes(static_cast<size_t>(rows));
    auto append = [&](int64_t r, int id) {
      if (!ids.empty()) ids[static_cast<size_t>(r)] = id;
      int32_t& code = dict_code[static_cast<size_t>(id)];
      if (code < 0) code = col.InternValue(names[static_cast<size_t>(id)]);
      codes[static_cast<size_t>(r)] = code;
    };
    if (cat.high_cardinality_text) {
      const uint64_t pool = text_pools[j].size();
      for (int64_t r = 0; r < rows; ++r) {
        append(r, static_cast<int>(rng.Uniform(pool)));
      }
      col.AppendCodes(codes);
      continue;
    }
    if (cat.fd_parent >= 0) {
      // Deterministic map of the parent value: child = parent % |child|.
      const auto& parent = parent_ids[static_cast<size_t>(cat.fd_parent)];
      for (int64_t r = 0; r < rows; ++r) {
        append(r, parent[static_cast<size_t>(r)] % cat.cardinality);
      }
      col.AppendCodes(codes);
      continue;
    }
    const std::vector<double> marginal = ZipfWeights(cat.cardinality,
                                                     cat.zipf_s);
    const CategoricalTable marginal_table(marginal);
    const double marg_total = marginal_table.total();
    // Per-cluster distributions: a delta mixture. Each cluster prefers one
    // value (drawn from the column's Zipf marginal, so the marginal skew
    // is preserved) with probability `concentration`; the remaining mass
    // follows the marginal. This is what makes attributes mutually
    // predictive: knowing any column's value tilts the cluster posterior,
    // which tilts every other column.
    std::vector<CategoricalTable> cluster_tables;
    cluster_tables.reserve(static_cast<size_t>(spec.num_clusters));
    const uint64_t col_seed = Fnv1a(cat.name, seed);
    std::vector<double> dist(static_cast<size_t>(cat.cardinality));
    for (int k = 0; k < spec.num_clusters; ++k) {
      Rng pref_rng(col_seed * 0x9e3779b97f4a7c15ULL +
                   static_cast<uint64_t>(k) + 1);
      const size_t preferred = marginal_table.Draw(&pref_rng);
      for (int v = 0; v < cat.cardinality; ++v) {
        dist[static_cast<size_t>(v)] = (1.0 - cat.concentration) *
                                       marginal[static_cast<size_t>(v)] /
                                       marg_total;
      }
      dist[preferred] += cat.concentration;
      cluster_tables.emplace_back(dist);
    }
    for (int64_t r = 0; r < rows; ++r) {
      const CategoricalTable& cluster_dist =
          cluster_tables[static_cast<size_t>(cluster[static_cast<size_t>(r)])];
      append(r, static_cast<int>(cluster_dist.Draw(&rng)));
    }
    col.AppendCodes(codes);
  }

  // Numerical cells, drawn row by row.
  std::vector<NumericCellInterner> num_cells;
  num_cells.reserve(spec.numerical.size());
  for (size_t j = 0; j < spec.numerical.size(); ++j) {
    num_cells.emplace_back(
        &table.mutable_column(static_cast<int>(spec.categorical.size() + j)),
        spec.numerical[j].decimals);
  }
  for (int64_t r = 0; r < rows; ++r) {
    const size_t k = static_cast<size_t>(cluster[static_cast<size_t>(r)]);
    for (size_t j = 0; j < spec.numerical.size(); ++j) {
      num_cells[j].Append(num_means[j][k] +
                          rng.NextGaussian() * spec.numerical[j].noise);
    }
  }
  for (NumericCellInterner& cells : num_cells) cells.Flush();
  GRIMP_RETURN_IF_ERROR(table.CommitBulkRows());
  return table;
}

Result<Table> GenerateDatasetByName(const std::string& name, uint64_t seed,
                                    int64_t rows_override) {
  GRIMP_ASSIGN_OR_RETURN(auto spec, GetDatasetSpec(name));
  return GenerateDataset(spec, seed, rows_override);
}

std::vector<std::string> AllDatasetNames() {
  return {"adult",     "australian", "contraceptive", "credit",
          "flare",     "imdb",       "mammogram",     "tax",
          "thoracic",  "tictactoe"};
}

Result<DatasetSpec> GetDatasetSpec(const std::string& name) {
  DatasetSpec s;
  s.name = name;
  if (name == "adult") {
    // 3016 rows, 9 categorical + 5 numerical, 2 FDs (Table 1).
    s.abbreviation = "AD";
    s.rows = 3016;
    s.num_clusters = 8;
    s.categorical = {
        {"workclass", 7, 1.2, 0.75, -1, false},
        {"education", 16, 1.0, 0.85, -1, false},
        {"edu_level", 8, 0.0, 0.0, 1, false},      // FD: education->edu_level
        {"marital", 7, 1.0, 0.8, -1, false},
        {"occupation", 14, 0.8, 0.8, -1, false},
        {"relationship", 6, 1.0, 0.8, -1, false},
        {"race", 5, 1.8, 0.7, -1, false},
        {"sex", 2, 0.8, 0.7, -1, false},
        {"country", 20, 2.2, 0.6, 1, false},       // FD: education->country?
    };
    // The second FD mirrors the paper's two FDs over two attribute pairs.
    s.categorical[8].fd_parent = 3;  // marital -> country stand-in
    s.numerical = {{"age", 2.0, 0.8, 0},
                   {"fnlwgt", 3.0, 1.0, 0},
                   {"capital_gain", 2.5, 0.9, 0},
                   {"hours", 1.5, 0.7, 0},
                   {"salary", 2.5, 0.8, 0}};
    s.fd_specs = {"education->edu_level", "marital->country"};
  } else if (name == "australian") {
    // 690 rows, 9 categorical + 6 numerical, no FDs.
    s.abbreviation = "AU";
    s.rows = 690;
    s.num_clusters = 6;
    s.categorical = {
        {"a1", 2, 0.6, 0.7, -1, false},  {"a4", 3, 1.0, 0.75, -1, false},
        {"a5", 14, 0.9, 0.8, -1, false}, {"a6", 8, 1.1, 0.75, -1, false},
        {"a8", 2, 0.5, 0.7, -1, false},  {"a9", 2, 0.6, 0.7, -1, false},
        {"a11", 2, 0.7, 0.7, -1, false}, {"a12", 3, 1.2, 0.7, -1, false},
        {"a15", 2, 0.9, 0.7, -1, false},
    };
    s.numerical = {{"b1", 2.0, 0.8, 2}, {"b2", 2.5, 1.0, 2},
                   {"b3", 2.0, 0.9, 2}, {"b4", 1.5, 0.7, 1},
                   {"b5", 2.0, 0.8, 0}, {"b6", 3.0, 1.2, 2}};
  } else if (name == "contraceptive") {
    // 1473 rows, 8 categorical + 2 numerical, tiny domains (65 distinct).
    s.abbreviation = "CO";
    s.rows = 1473;
    s.num_clusters = 5;
    s.categorical = {
        {"wife_edu", 4, 0.4, 0.7, -1, false},
        {"husb_edu", 4, 0.4, 0.7, -1, false},
        {"wife_religion", 2, 0.9, 0.65, -1, false},
        {"wife_working", 2, 0.7, 0.65, -1, false},
        {"husb_occupation", 4, 0.3, 0.7, -1, false},
        {"living_index", 4, 0.3, 0.7, -1, false},
        {"media", 2, 1.2, 0.65, -1, false},
        {"method", 3, 0.3, 0.75, -1, false},
    };
    s.numerical = {{"wife_age", 1.5, 0.8, 0}, {"children", 1.2, 0.6, 0}};
  } else if (name == "credit") {
    // 653 rows, 10 categorical + 6 numerical.
    s.abbreviation = "CR";
    s.rows = 653;
    s.num_clusters = 6;
    s.categorical = {
        {"c1", 2, 0.6, 0.7, -1, false},  {"c4", 3, 1.0, 0.75, -1, false},
        {"c5", 3, 1.0, 0.7, -1, false},  {"c6", 14, 0.9, 0.8, -1, false},
        {"c7", 9, 1.1, 0.75, -1, false}, {"c9", 2, 0.5, 0.7, -1, false},
        {"c10", 2, 0.6, 0.7, -1, false}, {"c12", 2, 0.7, 0.65, -1, false},
        {"c13", 3, 1.4, 0.65, -1, false}, {"c16", 2, 0.8, 0.7, -1, false},
    };
    s.numerical = {{"d1", 2.0, 0.9, 2}, {"d2", 2.5, 1.0, 2},
                   {"d3", 2.0, 0.8, 2}, {"d4", 1.5, 0.7, 0},
                   {"d5", 2.5, 1.0, 0}, {"d6", 3.0, 1.2, 0}};
  } else if (name == "flare") {
    // 1066 rows, 10 categorical + 3 numerical, 34 distinct, heavy skew.
    s.abbreviation = "FL";
    s.rows = 1066;
    s.num_clusters = 4;
    s.categorical = {
        {"class", 6, 1.6, 0.7, -1, false},
        {"size", 6, 1.8, 0.7, -1, false},
        {"distribution", 4, 1.8, 0.7, -1, false},
        {"activity", 2, 2.2, 0.6, -1, false},
        {"evolution", 3, 1.5, 0.65, -1, false},
        {"prev_activity", 3, 2.4, 0.6, -1, false},
        {"complex", 2, 2.0, 0.6, -1, false},
        {"complex_pass", 2, 2.4, 0.6, -1, false},
        {"area", 2, 2.6, 0.6, -1, false},
        {"area_largest", 2, 2.6, 0.6, -1, false},
    };
    s.numerical = {{"c_flares", 0.8, 0.4, 0},
                   {"m_flares", 0.6, 0.3, 0},
                   {"x_flares", 0.5, 0.25, 0}};
  } else if (name == "imdb") {
    // 4529 rows, 9 categorical + 2 numerical, 9829 distinct: dominated by
    // near-unique titles / people names.
    s.abbreviation = "IM";
    s.rows = 4529;
    s.num_clusters = 12;
    s.categorical = {
        {"title", 0, 0.0, 0.0, -1, true},
        {"director", 0, 0.0, 0.0, -1, true},
        {"actor", 0, 0.0, 0.0, -1, true},
        {"genre", 18, 1.1, 0.8, -1, false},
        {"country", 30, 1.8, 0.7, -1, false},
        {"language", 25, 2.0, 0.65, -1, false},
        {"color", 2, 2.2, 0.6, -1, false},
        {"certificate", 10, 1.2, 0.7, -1, false},
        {"production", 40, 1.3, 0.7, -1, false},
    };
    s.numerical = {{"year", 2.0, 0.8, 0}, {"rating", 1.0, 0.5, 1}};
  } else if (name == "mammogram") {
    // 830 rows, 5 categorical + 1 numerical, 93 distinct.
    s.abbreviation = "MM";
    s.rows = 830;
    s.num_clusters = 4;
    s.categorical = {
        {"birads", 6, 1.0, 0.75, -1, false},
        {"shape", 4, 0.6, 0.75, -1, false},
        {"margin", 5, 0.7, 0.75, -1, false},
        {"density", 4, 2.0, 0.65, -1, false},
        {"severity", 2, 0.3, 0.8, -1, false},
    };
    s.numerical = {{"age", 1.8, 0.8, 0}};
  } else if (name == "tax") {
    // 5000 rows, 5 categorical + 7 numerical, 6 FDs (synthetic in the
    // paper as well).
    s.abbreviation = "TA";
    s.rows = 5000;
    s.num_clusters = 10;
    s.categorical = {
        {"zip", 120, 0.8, 0.8, -1, false},
        {"city", 60, 0.0, 0.0, 0, false},      // zip -> city
        {"state", 30, 0.0, 0.0, 1, false},     // city -> state
        {"area_code", 20, 0.0, 0.0, 2, false}, // state -> area_code
        {"marital", 4, 0.8, 0.75, -1, false},
    };
    s.numerical = {{"salary", 3.0, 1.0, 0},   {"rate", 1.5, 0.6, 2},
                   {"single_exemp", 1.0, 0.5, 0}, {"married_exemp", 1.0, 0.5, 0},
                   {"child_exemp", 0.8, 0.4, 0},  {"gross", 3.0, 1.2, 0},
                   {"net", 2.5, 1.0, 0}};
    // zip->city, city->state, state->area_code hold directly; the
    // transitive closures hold as well, giving the paper's six FDs.
    s.fd_specs = {"zip->city",        "city->state",  "state->area_code",
                  "zip->state",       "zip->area_code", "city->area_code"};
  } else if (name == "thoracic") {
    // 470 rows, 14 categorical (mostly heavily-skewed binaries) + 3
    // numerical: the high-F+/low-N+ regime.
    s.abbreviation = "TH";
    s.rows = 470;
    s.num_clusters = 4;
    s.categorical = {
        {"dgn", 7, 1.4, 0.7, -1, false},
        {"pre6", 3, 1.8, 0.65, -1, false},
        {"pre7", 2, 2.6, 0.6, -1, false},
        {"pre8", 2, 2.4, 0.6, -1, false},
        {"pre9", 2, 2.8, 0.6, -1, false},
        {"pre10", 2, 1.8, 0.6, -1, false},
        {"pre11", 2, 2.2, 0.6, -1, false},
        {"pre14", 4, 1.6, 0.65, -1, false},
        {"pre17", 2, 2.6, 0.6, -1, false},
        {"pre19", 2, 3.0, 0.6, -1, false},
        {"pre25", 2, 2.8, 0.6, -1, false},
        {"pre30", 2, 1.2, 0.6, -1, false},
        {"pre32", 2, 3.0, 0.6, -1, false},
        {"risk1y", 2, 2.0, 0.6, -1, false},
    };
    s.numerical = {{"fvc", 2.0, 0.8, 1}, {"fev1", 2.0, 0.8, 1},
                   {"age", 1.5, 0.7, 0}};
  } else if (name == "tictactoe") {
    // 958 rows, 9 categorical with 3 near-uniform values, no numerical:
    // the low-skew / negative-kurtosis regime.
    s.abbreviation = "TT";
    s.rows = 958;
    s.num_clusters = 8;
    s.categorical.reserve(9);
    for (int i = 0; i < 9; ++i) {
      s.categorical.push_back(
          {"cell" + std::to_string(i), 3, 0.15, 0.7, -1, false});
    }
  } else if (name == "scale") {
    // Out-of-core scale instance (deliberately NOT in AllDatasetNames):
    // 5M rows, 6 categorical + 2 numerical. Domains stay in the low
    // thousands so the graph is RID-dominated — ~5M RID nodes and ~80M
    // directed edges across 8 edge types, roughly half a gigabyte of CSR.
    // That is the regime the sharded GraphStore exists for. Benches and
    // tests take a row override (30,000 rows in grimpbench train_sharded,
    // 1M in the sharded benches).
    s.abbreviation = "SC";
    s.rows = 5000000;
    s.num_clusters = 16;
    s.categorical = {
        {"merchant", 2000, 1.1, 0.8, -1, false},
        {"category", 40, 0.9, 0.8, -1, false},
        {"segment", 8, 0.0, 0.0, 1, false},  // FD: category->segment
        {"region", 50, 1.4, 0.75, -1, false},
        {"channel", 4, 0.8, 0.7, -1, false},
        {"status", 6, 1.6, 0.7, -1, false},
    };
    s.numerical = {{"amount", 2.5, 1.0, 2}, {"quantity", 1.2, 0.5, 0}};
    s.fd_specs = {"category->segment"};
  } else {
    return Status::NotFound("unknown dataset: " + name);
  }
  return s;
}

}  // namespace grimp
