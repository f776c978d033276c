#ifndef GRIMP_DATA_DATASETS_H_
#define GRIMP_DATA_DATASETS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "table/fd.h"
#include "table/table.h"

namespace grimp {

// Specification of one synthetic evaluation dataset. Each replica matches
// the corresponding paper dataset's shape from Table 1: row count,
// categorical/numerical column mix, domain cardinalities (hence the
// Distinct column), skew regime, and FD count. See DESIGN.md
// "Substitutions" for why this preserves the paper's analysis.
//
// Generative model: every row draws a latent cluster z; categorical
// columns draw from a per-cluster Zipf-permuted distribution whose
// concentration makes attributes mutually predictive; numerical columns
// draw from per-cluster Gaussians; FD right-hand sides are deterministic
// functions of their left-hand side.
struct CategoricalColumnSpec {
  std::string name;
  int cardinality = 4;
  // Zipf exponent of the marginal value distribution (0 = uniform; higher
  // = more skew, which drives the paper's S_avg / K_avg / F+ / N+ axes).
  double zipf_s = 1.0;
  // In [0, 1]: probability mass of the cluster-preferred values vs. noise.
  // High concentration makes the column predictable from the others.
  double concentration = 0.8;
  // If >= 0, this column is the FD child of column `fd_parent` (index into
  // the categorical columns): value = deterministic map of parent value.
  int fd_parent = -1;
  // When true the column's values are near-unique token strings (IMDB-like
  // titles/names); cardinality then approximates the row count.
  bool high_cardinality_text = false;
};

struct NumericalColumnSpec {
  std::string name;
  double cluster_spread = 2.0;  // spread of per-cluster means
  double noise = 0.5;           // within-cluster stddev
  int decimals = 2;             // rounding, controls distinct count
};

struct DatasetSpec {
  std::string name;
  std::string abbreviation;
  int64_t rows = 1000;
  int num_clusters = 6;
  std::vector<CategoricalColumnSpec> categorical;
  std::vector<NumericalColumnSpec> numerical;
  // FD specs as "Parent->Child" column-name pairs, resolved after
  // generation (kept alongside the table for the §4.3 experiments).
  std::vector<std::string> fd_specs;
};

// The ten evaluation datasets (paper §4.1, Table 1). GetDatasetSpec also
// resolves "scale", a 5M-row spec for the out-of-core sharding experiments
// that is deliberately NOT in this list (every name here is swept by the
// parameterized tests and accuracy benches, where 5M rows has no place).
std::vector<std::string> AllDatasetNames();
Result<DatasetSpec> GetDatasetSpec(const std::string& name);

// Generates a clean (no missing values) instance. `rows_override` > 0
// scales the dataset down/up from the paper's size (bench binaries default
// to reduced rows; --full restores the published sizes). The table is a
// pure function of (spec, seed, rows): one generator serves every size,
// from the 470-row thoracic replica to millions of scale rows. Value ids
// are drawn column by column from precomputed cumulative tables and each
// distinct value is interned once, at its first occurrence, so dictionary
// codes come in row order and no cell string is hashed per row.
Result<Table> GenerateDataset(const DatasetSpec& spec, uint64_t seed,
                              int64_t rows_override = -1);
Result<Table> GenerateDatasetByName(const std::string& name, uint64_t seed,
                                    int64_t rows_override = -1);

// Resolves a spec's fd_specs against a generated table's schema.
Result<std::vector<FunctionalDependency>> ResolveFds(const DatasetSpec& spec,
                                                     const Schema& schema);

}  // namespace grimp

#endif  // GRIMP_DATA_DATASETS_H_
