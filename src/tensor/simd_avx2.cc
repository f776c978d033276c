// AVX2 + FMA kernels. This translation unit is the only one compiled with
// -mavx2 -mfma (see src/tensor/CMakeLists.txt); nothing here runs unless
// runtime dispatch (simd.cc) selected the table after a CPUID check, so the
// rest of the binary stays runnable on baseline x86-64.
//
// Tail discipline: C tiles use masked loads/stores, packed operands are
// zero-padded to the panel width, A rows past a tile are never read, and
// elementwise kernels finish ragged lanes with scalar loops (or masks) — no
// kernel reads or writes past its operands
// (verified under ASan+UBSan, see tests/CMakeLists.txt).

#include "tensor/simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace grimp {
namespace simd {
namespace {

// Micro-tile geometry: 6 x 16 output tile = 12 ymm accumulators + 2 B
// registers + 1 broadcast, fitting the 16-register AVX2 file.
constexpr int64_t kMR = 6;
constexpr int64_t kNR = 16;

// Lane masks for ragged column tails: MaskFor(w) has the low w of 8 lanes
// active.
alignas(32) constexpr int32_t kMaskTable[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};

inline __m256i MaskFor(int64_t w) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - w));
}

void PackB(const float* b, int64_t ldb, int64_t k, int64_t n, float* bp) {
  for (int64_t j0 = 0; j0 < n; j0 += kNR) {
    const int64_t w = std::min(kNR, n - j0);
    float* panel = bp + (j0 / kNR) * k * kNR;
    if (w == kNR) {
      for (int64_t p = 0; p < k; ++p) {
        const float* src = b + p * ldb + j0;
        float* dst = panel + p * kNR;
        _mm256_storeu_ps(dst, _mm256_loadu_ps(src));
        _mm256_storeu_ps(dst + 8, _mm256_loadu_ps(src + 8));
      }
    } else {
      for (int64_t p = 0; p < k; ++p) {
        const float* src = b + p * ldb + j0;
        float* dst = panel + p * kNR;
        for (int64_t j = 0; j < w; ++j) dst[j] = src[j];
        for (int64_t j = w; j < kNR; ++j) dst[j] = 0.0f;
      }
    }
  }
}

void PackBT(const float* b, int64_t ldb, int64_t k, int64_t n, float* bp) {
  // b is (n x k) row-major; packed[p, j] = b[j, p]. The writes stride kNR,
  // the reads stream one source row at a time.
  for (int64_t j0 = 0; j0 < n; j0 += kNR) {
    const int64_t w = std::min(kNR, n - j0);
    float* panel = bp + (j0 / kNR) * k * kNR;
    for (int64_t j = 0; j < w; ++j) {
      const float* src = b + (j0 + j) * ldb;
      for (int64_t p = 0; p < k; ++p) panel[p * kNR + j] = src[p];
    }
    for (int64_t j = w; j < kNR; ++j) {
      for (int64_t p = 0; p < k; ++p) panel[p * kNR + j] = 0.0f;
    }
  }
}

void Gemm(const float* a, int64_t as_i, int64_t as_p, const float* bp,
          float* c, int64_t ldc, int64_t i_begin, int64_t i_end, int64_t k,
          int64_t n, const GemmEpilogue& ep) {
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t i0 = i_begin; i0 < i_end; i0 += kMR) {
    const int64_t mr = std::min(kMR, i_end - i0);
    // The kernel broadcasts A straight from its kMR rows; the rows past mr
    // re-read the last one and their results are dropped.
    const float* arows[kMR];
    for (int64_t ii = 0; ii < kMR; ++ii) {
      arows[ii] = a + (i0 + std::min(ii, mr - 1)) * as_i;
    }
    for (int64_t j0 = 0; j0 < n; j0 += kNR) {
      const int64_t nr = std::min(kNR, n - j0);
      const float* panel = bp + (j0 / kNR) * k * kNR;
      __m256 acc[kMR][2];
      for (int64_t ii = 0; ii < kMR; ++ii) {
        acc[ii][0] = zero;
        acc[ii][1] = zero;
      }
      for (int64_t p = 0; p < k; ++p) {
        const __m256 b0 = _mm256_loadu_ps(panel + p * kNR);
        const __m256 b1 = _mm256_loadu_ps(panel + p * kNR + 8);
#pragma GCC unroll 6
        for (int64_t ii = 0; ii < kMR; ++ii) {
          const __m256 av = _mm256_broadcast_ss(arows[ii] + p * as_p);
          acc[ii][0] = _mm256_fmadd_ps(av, b0, acc[ii][0]);
          acc[ii][1] = _mm256_fmadd_ps(av, b1, acc[ii][1]);
        }
      }
      if (nr == kNR) {
        __m256 bias0 = zero, bias1 = zero;
        if (ep.bias != nullptr) {
          bias0 = _mm256_loadu_ps(ep.bias + j0);
          bias1 = _mm256_loadu_ps(ep.bias + j0 + 8);
        }
        // Unrolled with constant indices, so acc never leaves registers.
#pragma GCC unroll 6
        for (int64_t ii = 0; ii < kMR; ++ii) {
          if (ii >= mr) break;
          float* crow = c + (i0 + ii) * ldc + j0;
          __m256 v0 = acc[ii][0];
          __m256 v1 = acc[ii][1];
          if (ep.accumulate) {
            v0 = _mm256_add_ps(v0, _mm256_loadu_ps(crow));
            v1 = _mm256_add_ps(v1, _mm256_loadu_ps(crow + 8));
          }
          if (ep.bias != nullptr) {
            v0 = _mm256_add_ps(v0, bias0);
            v1 = _mm256_add_ps(v1, bias1);
          }
          if (ep.relu) {
            v0 = _mm256_max_ps(v0, zero);
            v1 = _mm256_max_ps(v1, zero);
          }
          _mm256_storeu_ps(crow, v0);
          _mm256_storeu_ps(crow + 8, v1);
        }
      } else {
        const int64_t w0 = std::min<int64_t>(nr, 8);
        const int64_t w1 = nr - w0;
        const __m256i m0 = MaskFor(w0);
        const __m256i m1 = MaskFor(w1);
        __m256 bias0 = zero, bias1 = zero;
        if (ep.bias != nullptr) {
          bias0 = _mm256_maskload_ps(ep.bias + j0, m0);
          bias1 = _mm256_maskload_ps(ep.bias + j0 + 8, m1);
        }
#pragma GCC unroll 6
        for (int64_t ii = 0; ii < kMR; ++ii) {
          if (ii >= mr) break;
          float* crow = c + (i0 + ii) * ldc + j0;
          __m256 v0 = acc[ii][0];
          __m256 v1 = acc[ii][1];
          if (ep.accumulate) {
            v0 = _mm256_add_ps(v0, _mm256_maskload_ps(crow, m0));
            v1 = _mm256_add_ps(v1, _mm256_maskload_ps(crow + 8, m1));
          }
          if (ep.bias != nullptr) {
            v0 = _mm256_add_ps(v0, bias0);
            v1 = _mm256_add_ps(v1, bias1);
          }
          if (ep.relu) {
            v0 = _mm256_max_ps(v0, zero);
            v1 = _mm256_max_ps(v1, zero);
          }
          _mm256_maskstore_ps(crow, m0, v0);
          if (w1 > 0) _mm256_maskstore_ps(crow + 8, m1, v1);
        }
      }
    }
  }
}

// --- Row-lane GEMM (gemm_rows) ---------------------------------------------
// C's rows run in the lanes: a tile is V vectors of 8 rows by NC columns,
// and each p adds A's column segment times one broadcast B element per
// column. Every C element is still one FMA chain from 0 over p ascending,
// and the epilogue adds in gemm's order, so the bits equal gemm's.

// Rows per block of a plain-walk A transposed into the pack.
constexpr int64_t kRowBlock = 64;

// Tile heights in 8-row vectors by tile width (8 to 12 accumulators); each
// height divides kRowBlock.
constexpr int kRowVectors[7] = {0, 8, 4, 4, 2, 2, 2};
constexpr int64_t kRowTileCols = 6;

// Transposes rows [0, rows) x columns [0, k) of A (a[i * as_i + p * as_p])
// into at[p * kRowBlock + i], 8 x 8 blocks in registers where A's rows are
// contiguous.
void PackRowsTransposed(const float* a, int64_t as_i, int64_t as_p,
                        int64_t rows, int64_t k, float* at) {
  int64_t i0 = 0;
  if (as_p == 1) {
    for (; i0 + 8 <= rows; i0 += 8) {
      int64_t p0 = 0;
      for (; p0 + 8 <= k; p0 += 8) {
        __m256 r[8];
        for (int64_t q = 0; q < 8; ++q) {
          r[q] = _mm256_loadu_ps(a + (i0 + q) * as_i + p0);
        }
        const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
        const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
        const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
        const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
        const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
        const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
        const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
        const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
        const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
        const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
        const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
        const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
        const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
        const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
        const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
        const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
        float* dst = at + p0 * kRowBlock + i0;
        _mm256_storeu_ps(dst + 0 * kRowBlock,
                         _mm256_permute2f128_ps(u0, u4, 0x20));
        _mm256_storeu_ps(dst + 1 * kRowBlock,
                         _mm256_permute2f128_ps(u1, u5, 0x20));
        _mm256_storeu_ps(dst + 2 * kRowBlock,
                         _mm256_permute2f128_ps(u2, u6, 0x20));
        _mm256_storeu_ps(dst + 3 * kRowBlock,
                         _mm256_permute2f128_ps(u3, u7, 0x20));
        _mm256_storeu_ps(dst + 4 * kRowBlock,
                         _mm256_permute2f128_ps(u0, u4, 0x31));
        _mm256_storeu_ps(dst + 5 * kRowBlock,
                         _mm256_permute2f128_ps(u1, u5, 0x31));
        _mm256_storeu_ps(dst + 6 * kRowBlock,
                         _mm256_permute2f128_ps(u2, u6, 0x31));
        _mm256_storeu_ps(dst + 7 * kRowBlock,
                         _mm256_permute2f128_ps(u3, u7, 0x31));
      }
      for (; p0 < k; ++p0) {
        for (int64_t q = 0; q < 8; ++q) {
          at[p0 * kRowBlock + i0 + q] = a[(i0 + q) * as_i + p0];
        }
      }
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t i = i0; i < rows; ++i) {
      at[p * kRowBlock + i] = a[i * as_i + p * as_p];
    }
  }
}

// One V*8 x NC tile of C at rows [0, rows) of the tile: A's column segment
// for p at a + p * as_p (lanes past `rows` masked off when kTail), B's
// element (p, j) at b + p * bs_p + j * bs_j.
template <int V, int NC, bool kTail>
void RowTile(const float* a, int64_t as_p, const float* b, int64_t bs_p,
             int64_t bs_j, int64_t k, int64_t rows, float* c, int64_t ldc,
             const float* bias, const GemmEpilogue& ep) {
  __m256 acc[V][NC];
  __m256i mask[V];
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) {
#pragma GCC unroll 6
    for (int j = 0; j < NC; ++j) acc[v][j] = _mm256_setzero_ps();
    mask[v] = MaskFor(std::clamp<int64_t>(rows - 8 * v, 0, 8));
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* acol = a + p * as_p;
    const float* brow = b + p * bs_p;
    __m256 av[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      av[v] = kTail ? _mm256_maskload_ps(acol + 8 * v, mask[v])
                    : _mm256_loadu_ps(acol + 8 * v);
    }
#pragma GCC unroll 6
    for (int j = 0; j < NC; ++j) {
      const __m256 bv = _mm256_broadcast_ss(brow + j * bs_j);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        acc[v][j] = _mm256_fmadd_ps(av[v], bv, acc[v][j]);
      }
    }
  }
  // Through a stack tile with constant indices, so acc never leaves
  // registers inside the p loop.
  alignas(32) float t[NC][V * 8];
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) {
#pragma GCC unroll 6
    for (int j = 0; j < NC; ++j) _mm256_store_ps(t[j] + 8 * v, acc[v][j]);
  }
  for (int64_t i = 0; i < rows; ++i) {
    float* crow = c + i * ldc;
    for (int j = 0; j < NC; ++j) {
      float x = t[j][i];
      if (ep.accumulate) x += crow[j];
      if (bias != nullptr) x += bias[j];
      if (ep.relu) x = x > 0.0f ? x : 0.0f;
      crow[j] = x;
    }
  }
}

// Rows [0, rows) of C for columns [j0, j0 + NC), V*8-row tiles.
template <int NC>
void RowTiles(const float* a, int64_t as_p, const float* b, int64_t bs_p,
              int64_t bs_j, int64_t k, int64_t rows, float* c, int64_t ldc,
              int64_t j0, const GemmEpilogue& ep) {
  constexpr int V = kRowVectors[NC];
  constexpr int64_t kRows = 8 * V;
  const float* bj = b + j0 * bs_j;
  const float* bias = ep.bias != nullptr ? ep.bias + j0 : nullptr;
  int64_t i0 = 0;
  for (; i0 + kRows <= rows; i0 += kRows) {
    RowTile<V, NC, false>(a + i0, as_p, bj, bs_p, bs_j, k, kRows,
                          c + i0 * ldc + j0, ldc, bias, ep);
  }
  if (i0 < rows) {
    RowTile<V, NC, true>(a + i0, as_p, bj, bs_p, bs_j, k, rows - i0,
                         c + i0 * ldc + j0, ldc, bias, ep);
  }
}

void GemmRows(const float* a, int64_t as_i, int64_t as_p, const float* b,
              int64_t bs_p, int64_t bs_j, float* c, int64_t ldc,
              int64_t i_begin, int64_t i_end, int64_t k, int64_t n,
              const GemmEpilogue& ep) {
  // The plain walk's row blocks, transposed; retained per thread like
  // gemm's B pack.
  thread_local std::vector<float> apack;
  if (as_i != 1 && static_cast<int64_t>(apack.size()) < kRowBlock * k) {
    apack.resize(static_cast<size_t>(kRowBlock * k));
  }
  for (int64_t r0 = i_begin; r0 < i_end; r0 += kRowBlock) {
    const int64_t rows = std::min(kRowBlock, i_end - r0);
    const float* at = a + r0;
    int64_t at_p = as_p;
    if (as_i != 1) {
      PackRowsTransposed(a + r0 * as_i, as_i, as_p, rows, k, apack.data());
      at = apack.data();
      at_p = kRowBlock;
    }
    float* cb = c + r0 * ldc;
    for (int64_t j0 = 0; j0 < n; j0 += kRowTileCols) {
      switch (std::min(kRowTileCols, n - j0)) {
        case 1:
          RowTiles<1>(at, at_p, b, bs_p, bs_j, k, rows, cb, ldc, j0, ep);
          break;
        case 2:
          RowTiles<2>(at, at_p, b, bs_p, bs_j, k, rows, cb, ldc, j0, ep);
          break;
        case 3:
          RowTiles<3>(at, at_p, b, bs_p, bs_j, k, rows, cb, ldc, j0, ep);
          break;
        case 4:
          RowTiles<4>(at, at_p, b, bs_p, bs_j, k, rows, cb, ldc, j0, ep);
          break;
        case 5:
          RowTiles<5>(at, at_p, b, bs_p, bs_j, k, rows, cb, ldc, j0, ep);
          break;
        default:
          RowTiles<6>(at, at_p, b, bs_p, bs_j, k, rows, cb, ldc, j0, ep);
          break;
      }
    }
  }
}

// --- Elementwise kernels ---------------------------------------------------
// These mirror the scalar table's arithmetic exactly (separate mul + add,
// IEEE sqrt/div, max against +0.0), so their results are bit-identical to
// the scalar kernels; only the GEMM/segment-mean/softmax/reduction kernels
// trade bit-identity for FMA/polynomial speed.

void ReluFwd(int64_t n, const float* x, float* y) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ReluBwd(int64_t n, const float* g, const float* y, float* xg) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(y + i), zero, _CMP_GT_OQ);
    const __m256 add = _mm256_and_ps(mask, _mm256_loadu_ps(g + i));
    _mm256_storeu_ps(xg + i, _mm256_add_ps(_mm256_loadu_ps(xg + i), add));
  }
  for (; i < n; ++i) xg[i] += y[i] > 0.0f ? g[i] : 0.0f;
}

void ReluMask(int64_t n, const float* g, const float* y, float* out) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(y + i), zero, _CMP_GT_OQ);
    _mm256_storeu_ps(out + i, _mm256_and_ps(mask, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) out[i] = y[i] > 0.0f ? g[i] : 0.0f;
}

void Axpy(int64_t n, float alpha, const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(int64_t n, float alpha, float* x) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void ColSumAcc(int64_t rows, int64_t cols, const float* x, float* acc) {
  // Column strips held in registers across the whole row walk; each
  // accumulator starts from acc[c] so the add sequence per column equals
  // the scalar row-ascending order exactly.
  int64_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    __m256 v0 = _mm256_loadu_ps(acc + c);
    __m256 v1 = _mm256_loadu_ps(acc + c + 8);
    __m256 v2 = _mm256_loadu_ps(acc + c + 16);
    __m256 v3 = _mm256_loadu_ps(acc + c + 24);
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = x + r * cols + c;
      v0 = _mm256_add_ps(v0, _mm256_loadu_ps(row));
      v1 = _mm256_add_ps(v1, _mm256_loadu_ps(row + 8));
      v2 = _mm256_add_ps(v2, _mm256_loadu_ps(row + 16));
      v3 = _mm256_add_ps(v3, _mm256_loadu_ps(row + 24));
    }
    _mm256_storeu_ps(acc + c, v0);
    _mm256_storeu_ps(acc + c + 8, v1);
    _mm256_storeu_ps(acc + c + 16, v2);
    _mm256_storeu_ps(acc + c + 24, v3);
  }
  for (; c + 8 <= cols; c += 8) {
    __m256 v = _mm256_loadu_ps(acc + c);
    for (int64_t r = 0; r < rows; ++r) {
      v = _mm256_add_ps(v, _mm256_loadu_ps(x + r * cols + c));
    }
    _mm256_storeu_ps(acc + c, v);
  }
  for (; c < cols; ++c) {
    float v = acc[c];
    for (int64_t r = 0; r < rows; ++r) v += x[r * cols + c];
    acc[c] = v;
  }
}

double SumSquares(int64_t n, const float* x) {
  // Four double lanes, combined low-to-high at the end; deterministic for a
  // given n but a different association than the scalar table (documented).
  __m256d acc = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    acc = _mm256_fmadd_pd(v, v, acc);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double sum = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (; i < n; ++i) sum += static_cast<double>(x[i]) * x[i];
  return sum;
}

void SegmentMeanFwd(const int32_t* offsets, const int32_t* indices,
                    const float* x, int64_t d, int64_t s_begin, int64_t s_end,
                    float* out) {
  for (int64_t s = s_begin; s < s_end; ++s) {
    float* orow = out + s * d;
    const int32_t begin = offsets[s];
    const int32_t end = offsets[s + 1];
    if (begin == end) {
      std::memset(orow, 0, static_cast<size_t>(d) * sizeof(float));
      continue;
    }
    const float inv = 1.0f / static_cast<float>(end - begin);
    const __m256 vinv = _mm256_set1_ps(inv);
    int64_t c = 0;
    // 32-column strips: one pass over the neighbor list per strip, four
    // accumulators live in registers.
    for (; c + 32 <= d; c += 32) {
      __m256 v0 = _mm256_setzero_ps();
      __m256 v1 = _mm256_setzero_ps();
      __m256 v2 = _mm256_setzero_ps();
      __m256 v3 = _mm256_setzero_ps();
      for (int32_t e = begin; e < end; ++e) {
        const float* xrow = x + static_cast<int64_t>(indices[e]) * d + c;
        v0 = _mm256_fmadd_ps(_mm256_loadu_ps(xrow), vinv, v0);
        v1 = _mm256_fmadd_ps(_mm256_loadu_ps(xrow + 8), vinv, v1);
        v2 = _mm256_fmadd_ps(_mm256_loadu_ps(xrow + 16), vinv, v2);
        v3 = _mm256_fmadd_ps(_mm256_loadu_ps(xrow + 24), vinv, v3);
      }
      _mm256_storeu_ps(orow + c, v0);
      _mm256_storeu_ps(orow + c + 8, v1);
      _mm256_storeu_ps(orow + c + 16, v2);
      _mm256_storeu_ps(orow + c + 24, v3);
    }
    for (; c + 8 <= d; c += 8) {
      __m256 v = _mm256_setzero_ps();
      for (int32_t e = begin; e < end; ++e) {
        const float* xrow = x + static_cast<int64_t>(indices[e]) * d + c;
        v = _mm256_fmadd_ps(_mm256_loadu_ps(xrow), vinv, v);
      }
      _mm256_storeu_ps(orow + c, v);
    }
    for (; c < d; ++c) {
      float v = 0.0f;
      for (int32_t e = begin; e < end; ++e) {
        v += x[static_cast<int64_t>(indices[e]) * d + c] * inv;
      }
      orow[c] = v;
    }
  }
}

// --- Vectorized exp (Cephes-style polynomial, ~1 ulp relative) ------------

constexpr float kExpHi = 88.3762626647950f;
constexpr float kExpLo = -87.3365478515625f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kExpC1 = 0.693359375f;
constexpr float kExpC2 = -2.12194440e-4f;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

inline __m256 Exp256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_min_ps(x, _mm256_set1_ps(kExpHi));
  x = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
  __m256 fx = _mm256_mul_ps(x, _mm256_set1_ps(kLog2e));
  fx = _mm256_add_ps(fx, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(kExpC1)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(kExpC2)));
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(kExpP0);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP1));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP2));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP3));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP4));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(kExpP5));
  y = _mm256_fmadd_ps(y, z, _mm256_add_ps(x, one));
  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256i pow2n =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

// Scalar mirror of Exp256 for ragged tails (same constants, same op
// sequence, fused polynomial), so a row's tail columns match its lanes.
inline float ExpTail(float x) {
  x = std::min(x, kExpHi);
  x = std::max(x, kExpLo);
  const float fx = std::floor(x * kLog2e + 0.5f);
  x -= fx * kExpC1;
  x -= fx * kExpC2;
  const float z = x * x;
  float y = kExpP0;
  y = std::fmaf(y, x, kExpP1);
  y = std::fmaf(y, x, kExpP2);
  y = std::fmaf(y, x, kExpP3);
  y = std::fmaf(y, x, kExpP4);
  y = std::fmaf(y, x, kExpP5);
  y = std::fmaf(y, z, x + 1.0f);
  const int32_t n = static_cast<int32_t>(fx);
  float pow2n;
  const int32_t bits = (n + 127) << 23;
  std::memcpy(&pow2n, &bits, sizeof(pow2n));
  return y * pow2n;
}

inline float HorizontalMax(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  lo = _mm_max_ps(lo, _mm256_extractf128_ps(v, 1));
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  lo = _mm_add_ps(lo, _mm256_extractf128_ps(v, 1));
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

void RowSoftmax(int64_t rows, int64_t cols, const float* x, float* y) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    float* out = y + r * cols;
    float mx = row[0];
    int64_t c = 0;
    if (cols >= 8) {
      __m256 vmax = _mm256_loadu_ps(row);
      for (c = 8; c + 8 <= cols; c += 8) {
        vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + c));
      }
      mx = HorizontalMax(vmax);
    } else {
      c = 1;
    }
    for (; c < cols; ++c) mx = std::max(mx, row[c]);

    const __m256 vmx = _mm256_set1_ps(mx);
    __m256 vsum = _mm256_setzero_ps();
    float sum = 0.0f;
    for (c = 0; c + 8 <= cols; c += 8) {
      const __m256 e = Exp256(_mm256_sub_ps(_mm256_loadu_ps(row + c), vmx));
      _mm256_storeu_ps(out + c, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    sum = HorizontalSum(vsum);
    for (; c < cols; ++c) {
      const float e = ExpTail(row[c] - mx);
      out[c] = e;
      sum += e;
    }

    const float inv = 1.0f / sum;
    const __m256 vinv = _mm256_set1_ps(inv);
    for (c = 0; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(out + c, _mm256_mul_ps(_mm256_loadu_ps(out + c), vinv));
    }
    for (; c < cols; ++c) out[c] *= inv;
  }
}

// The attention kernels keep the scalar table's loop structure (blocks
// ascending per element) but fuse multiply-adds, reduce dots lane-split and
// keep row accumulators in registers across blocks.

// Up to 32 consecutive floats as four masked 8-lane accumulators, so a
// row segment's running sum stays in registers across many rows.
// A full strip reads and writes unmasked.
struct Strip32 {
  explicit Strip32(int64_t width) : full(width >= 32) {
    for (int64_t j = 0; j < 4; ++j) {
      mask[j] = MaskFor(std::clamp<int64_t>(width - 8 * j, 0, 8));
      acc[j] = _mm256_setzero_ps();
    }
  }
  __m256 Read(const float* p, int64_t j) const {
    return full ? _mm256_loadu_ps(p + 8 * j)
                : _mm256_maskload_ps(p + 8 * j, mask[j]);
  }
  void Load(const float* p) {
    for (int64_t j = 0; j < 4; ++j) acc[j] = Read(p, j);
  }
  // acc += w * row.
  void Fma(float w, const float* row) {
    const __m256 vw = _mm256_set1_ps(w);
    for (int64_t j = 0; j < 4; ++j) {
      acc[j] = _mm256_fmadd_ps(vw, Read(row, j), acc[j]);
    }
  }
  void Store(float* p) const {
    for (int64_t j = 0; j < 4; ++j) {
      if (full) {
        _mm256_storeu_ps(p + 8 * j, acc[j]);
      } else {
        _mm256_maskstore_ps(p + 8 * j, mask[j], acc[j]);
      }
    }
  }

  bool full;
  __m256i mask[4];
  __m256 acc[4];
};

// dots[j] = scale * <x, r[j]> for four rows of width d: four independent
// FMA chains reduced by one hadd tree. Each dot's bits depend only on its
// own row, not on which of the four slots it takes.
[[gnu::always_inline]] inline void Dots4(const float* const r[4], int64_t d,
                                         const float* x, float scale,
                                         float dots[4]) {
  __m256 acc[4];
  for (int64_t j = 0; j < 4; ++j) acc[j] = _mm256_setzero_ps();
  int64_t k = 0;
  for (; k + 8 <= d; k += 8) {
    const __m256 xv = _mm256_loadu_ps(x + k);
    for (int64_t j = 0; j < 4; ++j) {
      acc[j] = _mm256_fmadd_ps(xv, _mm256_loadu_ps(r[j] + k), acc[j]);
    }
  }
  if (k < d) {
    const __m256i mask = MaskFor(d - k);
    const __m256 xv = _mm256_maskload_ps(x + k, mask);
    for (int64_t j = 0; j < 4; ++j) {
      acc[j] = _mm256_fmadd_ps(xv, _mm256_maskload_ps(r[j] + k, mask),
                               acc[j]);
    }
  }
  const __m256 s = _mm256_hadd_ps(_mm256_hadd_ps(acc[0], acc[1]),
                                  _mm256_hadd_ps(acc[2], acc[3]));
  _mm_storeu_ps(dots, _mm_mul_ps(_mm_add_ps(_mm256_castps256_ps128(s),
                                            _mm256_extractf128_ps(s, 1)),
                                 _mm_set1_ps(scale)));
}

// out[c] = scale * <x, block c> for the nb blocks `rows` of h (0 for -1),
// four blocks at a time.
void BlockDots(int64_t nb, int64_t d, const float* h, const int32_t* rows,
               const float* x, float scale, float* out) {
  for (int64_t c = 0; c < nb; c += 4) {
    const float* r[4];
    for (int64_t j = 0; j < 4; ++j) {
      // Past the end and for -1, any readable row: the result is dropped.
      r[j] = c + j < nb && rows[c + j] >= 0
                 ? h + static_cast<int64_t>(rows[c + j]) * d
                 : x;
    }
    float dots[4];
    Dots4(r, d, x, scale, dots);
    for (int64_t j = 0; j < 4 && c + j < nb; ++j) {
      out[c + j] = rows[c + j] < 0 ? 0.0f : dots[j];
    }
  }
}

// BlockDots' dot of every row of h with a, once per row.
void AttentionScores(int64_t rows, int64_t d, const float* h, const float* a,
                     float scale, float* scores) {
  for (int64_t r0 = 0; r0 < rows; r0 += 4) {
    const float* r[4];
    for (int64_t j = 0; j < 4; ++j) {
      r[j] = r0 + j < rows ? h + (r0 + j) * d : a;
    }
    float dots[4];
    Dots4(r, d, a, scale, dots);
    for (int64_t j = 0; j < 4 && r0 + j < rows; ++j) scores[r0 + j] = dots[j];
  }
}

// In-place softmax of one row of nb scores; the ragged tail runs masked
// through the same vector exp.
void SoftmaxRow(int64_t nb, float* s) {
  float mx = s[0];
  for (int64_t c = 1; c < nb; ++c) mx = std::max(mx, s[c]);
  const __m256 vmx = _mm256_set1_ps(mx);
  __m256 vsum = _mm256_setzero_ps();
  for (int64_t c = 0; c < nb; c += 8) {
    const __m256i mask = MaskFor(std::min<int64_t>(8, nb - c));
    const __m256 e = _mm256_and_ps(
        Exp256(_mm256_sub_ps(_mm256_maskload_ps(s + c, mask), vmx)),
        _mm256_castsi256_ps(mask));
    _mm256_maskstore_ps(s + c, mask, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  const float inv = 1.0f / HorizontalSum(vsum);
  for (int64_t c = 0; c < nb; ++c) s[c] *= inv;
}

void AttentionFwd(int64_t n, int64_t nb, int64_t d, const float* h,
                  const int32_t* idx, const float* scores, float* alpha,
                  float* ctx) {
  for (int64_t i = 0; i < n; ++i) {
    const int32_t* rows = idx + i * nb;
    float* al = alpha + i * nb;
    for (int64_t c = 0; c < nb; ++c) {
      al[c] = rows[c] < 0 ? 0.0f : scores[rows[c]];
    }
    SoftmaxRow(nb, al);
    for (int64_t k = 0; k < d; k += 32) {
      Strip32 out(d - k);
      for (int64_t c = 0; c < nb; ++c) {
        if (al[c] == 0.0f || rows[c] < 0) continue;
        out.Fma(al[c], h + static_cast<int64_t>(rows[c]) * d + k);
      }
      out.Store(ctx + i * d + k);
    }
  }
}

void AttentionBwd(int64_t n, int64_t nb, int64_t d, const float* h,
                  const int32_t* idx, const float* g, const float* alpha,
                  float scale, float* score_grad) {
  for (int64_t i = 0; i < n; ++i) {
    const float* al = alpha + i * nb;
    float* sg = score_grad + i * nb;
    BlockDots(nb, d, h, idx + i * nb, g + i * d, 1.0f, sg);
    float dot = 0.0f;
    for (int64_t c = 0; c < nb; ++c) dot = std::fmaf(sg[c], al[c], dot);
    for (int64_t c = 0; c < nb; ++c) sg[c] = al[c] * (sg[c] - dot) * scale;
  }
}

void AttentionQueryGrad(int64_t n, int64_t nb, int64_t d, const float* h,
                        const int32_t* idx, const float* score_grad,
                        float* a_grad) {
  // Column strips outermost, so each strip stays in registers over all
  // n * nb blocks.
  for (int64_t k = 0; k < d; k += 32) {
    Strip32 acc(d - k);
    acc.Load(a_grad + k);
    for (int64_t e = 0; e < n * nb; ++e) {
      if (score_grad[e] == 0.0f || idx[e] < 0) continue;
      acc.Fma(score_grad[e], h + static_cast<int64_t>(idx[e]) * d + k);
    }
    acc.Store(a_grad + k);
  }
}

// Elementwise: the scalar table's mul + add sequence lane by lane, with
// each 32-float strip of dst in registers across all terms.
void AttentionInputGrad(int64_t d, int64_t count, const InputGradTerm* terms,
                        float* dst) {
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t k = 0; k < d; k += 32) {
    Strip32 acc(d - k);
    acc.Load(dst + k);
    for (int64_t t = 0; t < count; ++t) {
      const InputGradTerm& term = terms[t];
      const float* g = term.g + k;
      if (term.a == nullptr) {
        for (int64_t j = 0; j < 4; ++j) {
          acc.acc[j] = _mm256_add_ps(acc.acc[j], acc.Read(g, j));
        }
        continue;
      }
      const __m256 va = _mm256_set1_ps(term.alpha);
      __m256 x[4];
      for (int64_t j = 0; j < 4; ++j) {
        x[j] = _mm256_add_ps(zero, _mm256_mul_ps(va, acc.Read(g, j)));
      }
      if (term.score_grad != 0.0f) {
        const __m256 vs = _mm256_set1_ps(term.score_grad);
        const float* a = term.a + k;
        for (int64_t j = 0; j < 4; ++j) {
          x[j] = _mm256_add_ps(x[j], _mm256_mul_ps(vs, acc.Read(a, j)));
        }
      }
      for (int64_t j = 0; j < 4; ++j) {
        acc.acc[j] = _mm256_add_ps(acc.acc[j], x[j]);
      }
    }
    acc.Store(dst + k);
  }
}

double MseSum(int64_t n, const float* pred, const float* tgt,
              const float* mask, int64_t* n_valid) {
  __m256d acc = _mm256_setzero_pd();
  int64_t valid = 0;
  int64_t i = 0;
  if (mask == nullptr) {
    for (; i + 4 <= n; i += 4) {
      // Difference taken in float first so it matches the scalar kernel's
      // float subtraction exactly before widening.
      const __m256d d = _mm256_cvtps_pd(
          _mm_sub_ps(_mm_loadu_ps(pred + i), _mm_loadu_ps(tgt + i)));
      acc = _mm256_fmadd_pd(d, d, acc);
    }
    valid = i;
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double sum = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  for (; i < n; ++i) {
    const float m = mask == nullptr ? 1.0f : mask[i];
    if (m == 0.0f) continue;
    const float d = pred[i] - tgt[i];
    sum += static_cast<double>(d) * d;
    ++valid;
  }
  *n_valid = valid;
  return sum;
}

void MseBwd(int64_t n, float coeff, const float* pred, const float* tgt,
            const float* mask, float* pg) {
  const __m256 vc = _mm256_set1_ps(coeff);
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(pred + i), _mm256_loadu_ps(tgt + i));
    __m256 upd = _mm256_mul_ps(vc, d);
    if (mask != nullptr) {
      const __m256 keep =
          _mm256_cmp_ps(_mm256_loadu_ps(mask + i), zero, _CMP_NEQ_OQ);
      upd = _mm256_and_ps(keep, upd);
    }
    _mm256_storeu_ps(pg + i, _mm256_add_ps(_mm256_loadu_ps(pg + i), upd));
  }
  for (; i < n; ++i) {
    const float m = mask == nullptr ? 1.0f : mask[i];
    if (m == 0.0f) continue;
    pg[i] += coeff * (pred[i] - tgt[i]);
  }
}

void AdamStep(int64_t n, float lr, float beta1, float beta2, float eps,
              float weight_decay, float bc1, float bc2, const float* g,
              float* m, float* v, float* w) {
  const __m256 vb1 = _mm256_set1_ps(beta1);
  const __m256 vb1c = _mm256_set1_ps(1.0f - beta1);
  const __m256 vb2 = _mm256_set1_ps(beta2);
  const __m256 vb2c = _mm256_set1_ps(1.0f - beta2);
  const __m256 vwd = _mm256_set1_ps(weight_decay);
  const __m256 vbc1 = _mm256_set1_ps(bc1);
  const __m256 vbc2 = _mm256_set1_ps(bc2);
  const __m256 veps = _mm256_set1_ps(eps);
  const __m256 vlr = _mm256_set1_ps(lr);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 gi = _mm256_loadu_ps(g + i);
    const __m256 wi = _mm256_loadu_ps(w + i);
    if (weight_decay != 0.0f) {
      gi = _mm256_add_ps(gi, _mm256_mul_ps(vwd, wi));
    }
    const __m256 mi = _mm256_add_ps(_mm256_mul_ps(vb1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(vb1c, gi));
    const __m256 vi =
        _mm256_add_ps(_mm256_mul_ps(vb2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(vb2c, _mm256_mul_ps(gi, gi)));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 mhat = _mm256_div_ps(mi, vbc1);
    const __m256 vhat = _mm256_div_ps(vi, vbc2);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(vhat), veps);
    const __m256 step = _mm256_div_ps(_mm256_mul_ps(vlr, mhat), denom);
    _mm256_storeu_ps(w + i, _mm256_sub_ps(wi, step));
  }
  for (; i < n; ++i) {
    float gi = g[i];
    if (weight_decay != 0.0f) gi += weight_decay * w[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;
    const float mhat = m[i] / bc1;
    const float vhat = v[i] / bc2;
    w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void SgdMomentum(int64_t n, float lr, float momentum, const float* g,
                 float* vel, float* w) {
  const __m256 vmom = _mm256_set1_ps(momentum);
  const __m256 vlr = _mm256_set1_ps(lr);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vi = _mm256_add_ps(
        _mm256_mul_ps(vmom, _mm256_loadu_ps(vel + i)), _mm256_loadu_ps(g + i));
    _mm256_storeu_ps(vel + i, vi);
    _mm256_storeu_ps(
        w + i, _mm256_sub_ps(_mm256_loadu_ps(w + i), _mm256_mul_ps(vlr, vi)));
  }
  for (; i < n; ++i) {
    vel[i] = momentum * vel[i] + g[i];
    w[i] -= lr * vel[i];
  }
}

const KernelTable kAvx2Table = {
    /*name=*/"avx2",
    /*gemm_nr=*/kNR,
    /*gemm_pack_b=*/PackB,
    /*gemm_pack_bt=*/PackBT,
    /*gemm=*/Gemm,
    /*gemm_rows=*/GemmRows,
    /*relu_fwd=*/ReluFwd,
    /*relu_bwd=*/ReluBwd,
    /*relu_mask=*/ReluMask,
    /*axpy=*/Axpy,
    /*scale=*/Scale,
    /*col_sum_acc=*/ColSumAcc,
    /*sum_squares=*/SumSquares,
    /*segment_mean_fwd=*/SegmentMeanFwd,
    /*row_softmax=*/RowSoftmax,
    /*mse_sum=*/MseSum,
    /*mse_bwd=*/MseBwd,
    /*attention_scores=*/AttentionScores,
    /*attention_fwd=*/AttentionFwd,
    /*attention_bwd=*/AttentionBwd,
    /*attention_query_grad=*/AttentionQueryGrad,
    /*attention_input_grad=*/AttentionInputGrad,
    /*adam_step=*/AdamStep,
    /*sgd_momentum=*/SgdMomentum,
};

}  // namespace

// Defined only in this AVX2 build of the TU; simd.cc gates on the CPU check
// before ever dispatching into the table.
const KernelTable* Avx2KernelsImpl() { return &kAvx2Table; }

}  // namespace simd
}  // namespace grimp

#else  // !(__AVX2__ && __FMA__)

namespace grimp {
namespace simd {

// Toolchain could not build AVX2 kernels; dispatch sees no table and stays
// on the scalar one.
const KernelTable* Avx2KernelsImpl() { return nullptr; }

}  // namespace simd
}  // namespace grimp

#endif
