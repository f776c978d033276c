#ifndef GRIMP_TENSOR_SIMD_H_
#define GRIMP_TENSOR_SIMD_H_

#include <cstdint>
#include <string>

namespace grimp {

// Instruction-set tier of the tensor kernels. Resolved once per process
// (CPUID + the GRIMP_SIMD env knob) and overridable at runtime via
// SetSimdLevel / GrimpOptions::simd; every kernel call reads the active
// table through one atomic pointer load.
enum class SimdLevel : int {
  kScalar = 0,  // portable C++ reference kernels (any x86-64 / any arch)
  kAvx2 = 1,    // AVX2 + FMA kernels (8-wide float, fused multiply-add)
};

// "scalar" / "avx2".
const char* SimdLevelName(SimdLevel level);

// True when this build carries AVX2 kernels *and* the CPU reports AVX2+FMA.
bool SimdAvx2Supported();

// The level kernels currently dispatch to. First call resolves it: the
// best supported level, downgraded by GRIMP_SIMD=scalar (GRIMP_SIMD=avx2 on
// an unsupported CPU logs a warning and falls back to scalar).
SimdLevel ActiveSimdLevel();

// Forces the dispatch level (test hook + GrimpOptions::simd plumbing).
// Requests above what the CPU supports are clamped; returns the level
// actually applied. Call between kernel invocations, not during one.
SimdLevel SetSimdLevel(SimdLevel level);

// Parses a GRIMP_SIMD-style choice: "auto", "avx2" or "scalar". For "auto",
// *is_auto is set and *level receives the detected best. Returns false on
// any other string.
bool ParseSimdChoice(const std::string& choice, SimdLevel* level,
                     bool* is_auto);

// Applies a validated choice string: "auto" re-resolves from the
// environment + CPUID, otherwise forces the named level (clamped to what
// the CPU supports). Unknown strings are ignored (Validate() rejects them
// before they get here).
void ApplySimdChoice(const std::string& choice);

namespace simd {

// Epilogue fused into the GEMM micro-kernel while the C tile is still in
// registers: C = A*B (+ C when accumulate) (+ bias row) (then max(.,0)
// when relu). Saves the separate bias/activation memory round-trips of a
// MatMul -> AddBias -> Relu tape chain.
struct GemmEpilogue {
  const float* bias = nullptr;  // length n, broadcast-added per row
  bool relu = false;
  bool accumulate = false;      // C += result instead of C = result
};

// One term of KernelTable::attention_input_grad.
struct InputGradTerm {
  const float* g = nullptr;  // the vector's dL/dctx row, or a dense row
  const float* a = nullptr;  // the query; null for a dense row
  float alpha = 0.0f;
  float score_grad = 0.0f;
};

// One dispatchable kernel set. All kernels are deterministic pure
// functions of their inputs: accumulation order never depends on the
// thread count (callers chunk with fixed grains), so results are
// bit-identical at 1 and N threads for a fixed level. Across levels,
// elementwise kernels (relu/axpy/scale/col_sum/adam/sgd/mse_bwd and
// attention_input_grad) perform the exact scalar arithmetic lane-wise and
// stay bit-identical to the scalar table; GEMM, segment-mean, softmax, the
// other attention kernels and the reductions use FMA / polynomial exp /
// lane-split sums and agree within AllClose rtol ~1e-4. Within one table,
// gemm and gemm_rows compute the same bits for every C element.
struct KernelTable {
  const char* name;

  // --- Packed GEMM core --------------------------------------------------
  // B panel width of this table's micro-kernel. Packed B for a k x n
  // operand occupies ceil(n/nr)*nr*k floats (tail panel zero-padded).
  int64_t gemm_nr;
  // Packs row-major B (k x n, leading dimension ldb) into nr-wide panels,
  // each panel k*nr floats, contiguous per panel.
  void (*gemm_pack_b)(const float* b, int64_t ldb, int64_t k, int64_t n,
                      float* bp);
  // Same layout from an (n x k) row-major operand, i.e. packs B^T without
  // materializing the transpose (serves MatMulTransB).
  void (*gemm_pack_bt)(const float* b, int64_t ldb, int64_t k, int64_t n,
                       float* bp);
  // Computes C rows [i_begin, i_end): C[i,j] (+)= sum_p A[i,p] * Bpacked[p,j]
  // with the epilogue applied in-register. A is addressed generically as
  // a[i * as_i + p * as_p] ((lda, 1) walks rows, (1, lda) walks columns,
  // i.e. multiplies by A^T). Each C element accumulates over p in ascending
  // order regardless of the tiling, so results are independent of the
  // row-range split (= the thread count).
  void (*gemm)(const float* a, int64_t as_i, int64_t as_p, const float* bp,
               float* c, int64_t ldc, int64_t i_begin, int64_t i_end,
               int64_t k, int64_t n, const GemmEpilogue& ep);
  // The same C rows as gemm, element for element (each C element's chain
  // from 0 over p ascending, then accumulate, bias and ReLU), vectorized
  // over C's rows instead of an nr-wide column panel: for the shapes the
  // panel wastes, n < 16 and the transposed-A walk. B is read in place as
  // b[p * bs_p + j * bs_j], with no pack. With as_i == 1 (the transposed
  // walk) A's rows for each p are read in place too; otherwise (the plain
  // walk) they are first transposed into a per-thread scratch.
  void (*gemm_rows)(const float* a, int64_t as_i, int64_t as_p,
                    const float* b, int64_t bs_p, int64_t bs_j, float* c,
                    int64_t ldc, int64_t i_begin, int64_t i_end, int64_t k,
                    int64_t n, const GemmEpilogue& ep);

  // --- Elementwise / epilogue kernels ------------------------------------
  // y = max(x, 0)
  void (*relu_fwd)(int64_t n, const float* x, float* y);
  // xg += (y > 0 ? g : 0)   (branchless select)
  void (*relu_bwd)(int64_t n, const float* g, const float* y, float* xg);
  // out = (y > 0 ? g : 0); elementwise, so out may alias g.
  void (*relu_mask)(int64_t n, const float* g, const float* y, float* out);
  // y += alpha * x
  void (*axpy)(int64_t n, float alpha, const float* x, float* y);
  // x *= alpha
  void (*scale)(int64_t n, float alpha, float* x);
  // acc[c] += sum_r x[r, c] over row-major x, rows ascending per column.
  void (*col_sum_acc)(int64_t rows, int64_t cols, const float* x, float* acc);
  // sum_i x[i]^2 accumulated in double.
  double (*sum_squares)(int64_t n, const float* x);

  // --- Graph / loss kernels ----------------------------------------------
  // CSR segment mean over segments [s_begin, s_end): out.row(s) =
  // mean_{e in offsets[s]..offsets[s+1]} x.row(indices[e]); empty segments
  // write zero rows. Writes every element of the covered out rows.
  void (*segment_mean_fwd)(const int32_t* offsets, const int32_t* indices,
                           const float* x, int64_t d, int64_t s_begin,
                           int64_t s_end, float* out);
  // Row-wise softmax of `rows` rows of width `cols` (max-subtracted).
  void (*row_softmax)(int64_t rows, int64_t cols, const float* x, float* y);
  // Masked squared-error sum: returns sum over i with mask[i] != 0 of
  // (pred[i]-tgt[i])^2, counting contributors into *n_valid. mask == null
  // means all rows count.
  double (*mse_sum)(int64_t n, const float* pred, const float* tgt,
                    const float* mask, int64_t* n_valid);
  // pg[i] += coeff * (pred[i] - tgt[i]) where mask[i] != 0.
  void (*mse_bwd)(int64_t n, float coeff, const float* pred, const float* tgt,
                  const float* mask, float* pg);

  // --- Column attention (Tape::ColumnAttention) ---------------------------
  // n vectors of nb blocks of width d, read through an index: block c of
  // vector i is row idx[i * nb + c] of h (row-major, d wide), and a
  // negative index is a zero block, which contributes nothing.
  // Scores: scores[r] = scale * <h row r, a> for rows [0, rows), each the
  // same dot whichever vector reads the row.
  void (*attention_scores)(int64_t rows, int64_t d, const float* h,
                           const float* a, float scale, float* scores);
  // Forward: alpha[i] = softmax_c(scores[idx[i * nb + c]]), 0 for a zero
  // block (n x nb), and ctx[i] = sum_c alpha[i, c] * block c (n x d).
  void (*attention_fwd)(int64_t n, int64_t nb, int64_t d, const float* h,
                        const int32_t* idx, const float* scores,
                        float* alpha, float* ctx);
  // Backward through the weighted sum and the softmax: given g = dL/dctx
  // (n x d), writes score_grad[i, c] = scale * dL/dscore[i, c] (n x nb).
  void (*attention_bwd)(int64_t n, int64_t nb, int64_t d, const float* h,
                        const int32_t* idx, const float* g, const float* alpha,
                        float scale, float* score_grad);
  // a_grad += sum over (i, c), ascending, of score_grad[i, c] * block c.
  // One serial pass: every vector adds into the same d entries.
  void (*attention_query_grad)(int64_t n, int64_t nb, int64_t d,
                               const float* h, const int32_t* idx,
                               const float* score_grad, float* a_grad);
  // Adds `count` input-gradient terms into one h row `dst`, in order, with
  // the row held in registers across them. An attention term adds its
  // block's gradient, dst += (0 + alpha * g) + score_grad * a, the score
  // term skipped at score_grad == 0 (g is the vector's row of dL/dctx); a
  // dense term (a == null) adds its row, dst += g. Elementwise, so
  // bit-identical across tables. This is the order in which the replaced
  // op chain built a block's gradient before its GatherRows scatter;
  // regrouping it (adding the two terms into dst one by one) moves bits.
  void (*attention_input_grad)(int64_t d, int64_t count,
                               const InputGradTerm* terms, float* dst);

  // --- Optimizer kernels --------------------------------------------------
  // One Adam step over n contiguous entries; bc1/bc2 are the precomputed
  // bias-correction denominators.
  void (*adam_step)(int64_t n, float lr, float beta1, float beta2, float eps,
                    float weight_decay, float bc1, float bc2, const float* g,
                    float* m, float* v, float* w);
  // vel = momentum * vel + g; w -= lr * vel.
  void (*sgd_momentum)(int64_t n, float lr, float momentum, const float* g,
                       float* vel, float* w);
};

// The active kernel table (one atomic load; resolves the level on first
// use).
const KernelTable& Kernels();

// Per-level tables, for parity tests. Avx2Kernels() is null when the build
// or the CPU lacks AVX2+FMA support (callers must check).
const KernelTable* ScalarKernels();
const KernelTable* Avx2Kernels();

}  // namespace simd
}  // namespace grimp

#endif  // GRIMP_TENSOR_SIMD_H_
