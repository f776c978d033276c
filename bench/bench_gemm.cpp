// GEMM kernel benchmark: naive single-threaded reference vs the dispatched
// SIMD kernels in src/tensor/ (AVX2 or scalar, see tensor/simd.h), over
// shapes representative of GRIMP training (node-count x hidden-dim panels),
// at 1/2/4/N threads. N — and the cap on every measured thread count — is
// GRIMP_NUM_THREADS when set (the same knob the runtime pool honors), else
// hardware_concurrency, so the table never reports oversubscribed numbers.
// The detected/selected SIMD path is recorded in the output and the JSON;
// GRIMP_SIMD=scalar re-measures the portable fallback.
//
// The GNN rows are the shapes one edge type of a heterogeneous SAGE layer
// runs (Tape::HeteroSage at dim 32 on the 1,200-row adult replica, about
// 970 live rows per type): the forward [h || mean] * W, and the backward's
// dW = X^T * G (k = live rows) and dX = G * W^T, each timed through the
// kernel variant the layer calls.
//
// The task head rows are the six GEMMs of one attention head's MLP
// (paper §3.7; dim 32, hidden 64) over about 770 training vectors, the
// second layer at |dom| = 1 (a numerical head), 7 and 20.
//
// The sampled rows are the shapes of one grimpbench train_sharded step (a
// 128-row batch, dim 16, head hidden 64): the 1,000-class merchant head's
// second layer forward, dW2 and dH1, which split their columns across the
// pool, and a first-layer edge type's dW over its ~400 live rows.
//
// Each plain shape is also timed through the fused GEMM+bias+ReLU epilogue
// (MatMulFused, the kernel behind Tape::LinearRelu) against the equivalent
// unfused chain (plain GEMM + a separate bias/ReLU pass over the output).
//
// Prints a GFLOP/s table and writes machine-readable results to
// BENCH_gemm.json (cwd) so future PRs can track the perf trajectory.
// Exits non-zero if any dispatched kernel disagrees with the naive
// reference beyond rtol 1e-4.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace {

using grimp::Tensor;

// Times each rep as a trace span; the metrics registry keeps the per-name
// min, so the best-of-reps number comes straight out of SpanStats (and
// lands in the GRIMP_METRICS_JSON dump alongside the gemm.* counters).
double BestSeconds(const std::string& span_name,
                   const std::function<Tensor()>& fn, int reps,
                   Tensor* out = nullptr) {
  for (int r = 0; r < reps; ++r) {
    grimp::TraceSpan span(span_name);
    Tensor result = fn();
    span.Stop();
    if (out != nullptr && r == 0) *out = std::move(result);
  }
  return grimp::MetricsRegistry::Global().GetSpanStats(span_name).min_seconds;
}

// Which operand the kernel reads transposed: C = A * B, A^T * B or A * B^T.
enum class Op { kPlain, kTransA, kTransB };

const char* OpName(Op op) {
  switch (op) {
    case Op::kTransA:
      return "trans_a";
    case Op::kTransB:
      return "trans_b";
    case Op::kPlain:
      break;
  }
  return "plain";
}

struct Shape {
  int64_t m, k, n;
  Op op;
  const char* why;
};

}  // namespace

int main() {
  // Shapes: (nodes x dim) * (dim x hidden) panels from the engine forward,
  // plus ragged sizes that exercise the edge tiles.
  const std::vector<Shape> shapes = {
      {1024, 256, 256, Op::kPlain, "acceptance shape (ISSUE 1)"},
      {970, 64, 32, Op::kPlain,
       "GNN type forward: live rows x 2*dim -> dim"},
      {64, 970, 32, Op::kTransA, "GNN type dW: X^T * G, k = live rows"},
      {970, 32, 64, Op::kTransB, "GNN type dX: G * W^T"},
      {2048, 64, 64, Op::kPlain, "shared merge layer"},
      {770, 32, 64, Op::kPlain, "task head L1 forward: ctx * W1"},
      {32, 770, 64, Op::kTransA, "task head dW1: ctx^T * G1"},
      {770, 64, 32, Op::kTransB, "task head dctx: G1 * W1^T"},
      {64, 770, 1, Op::kTransA, "task head dW2, |dom| = 1: H1^T * G2"},
      {64, 770, 7, Op::kTransA, "task head dW2, |dom| = 7"},
      {64, 770, 20, Op::kTransA, "task head dW2, |dom| = 20"},
      {770, 64, 1, Op::kPlain, "task head L2 forward, |dom| = 1: H1 * W2"},
      {770, 64, 7, Op::kPlain, "task head L2 forward, |dom| = 7"},
      {770, 64, 20, Op::kPlain, "task head L2 forward, |dom| = 20"},
      {770, 1, 64, Op::kTransB, "task head dH1, |dom| = 1: G2 * W2^T"},
      {770, 7, 64, Op::kTransB, "task head dH1, |dom| = 7"},
      {770, 20, 64, Op::kTransB, "task head dH1, |dom| = 20"},
      {128, 64, 1000, Op::kPlain,
       "sampled head L2 forward, |dom| = 1000: H1 * W2"},
      {64, 128, 1000, Op::kTransA, "sampled head dW2, |dom| = 1000"},
      {128, 1000, 64, Op::kTransB, "sampled head dH1, |dom| = 1000"},
      {32, 400, 16, Op::kTransA,
       "sampled GNN layer-0 type dW: X^T * G, ~400 live rows"},
      {1000, 50, 17, Op::kPlain, "ragged edge tiles"},
  };
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int max_threads =
      grimp::EnvOverrides::PositiveInt(grimp::kEnvNumThreads,
                                      static_cast<int>(hw));
  std::vector<int> thread_counts{1, 2, 4, max_threads};
  thread_counts.erase(
      std::remove_if(thread_counts.begin(), thread_counts.end(),
                     [&](int t) { return t > max_threads; }),
      thread_counts.end());
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  grimp::Rng rng(7);
  const int reps = 5;
  bool all_ok = true;
  const char* simd_selected =
      grimp::SimdLevelName(grimp::ActiveSimdLevel());
  const bool avx2_supported = grimp::SimdAvx2Supported();
  std::printf("SIMD: avx2 %s, dispatching %s kernels\n\n",
              avx2_supported ? "supported" : "unsupported", simd_selected);
  std::string json = "{\n  \"hardware_concurrency\": " +
                     std::to_string(hw) +
                     ",\n  \"max_threads\": " + std::to_string(max_threads) +
                     ",\n  \"simd\": {\"avx2_supported\": " +
                     (avx2_supported ? "true" : "false") +
                     ", \"selected\": \"" + simd_selected +
                     "\"},\n  \"shapes\": [\n";

  std::printf("%-22s %-10s %9s %9s | per-thread-count blocked GFLOP/s (speedup vs naive)\n",
              "shape (MxKxN)", "kernel", "naive ms", "GFLOP/s");
  for (size_t si = 0; si < shapes.size(); ++si) {
    const Shape& s = shapes[si];
    const Tensor a = Tensor::RandomNormal(s.m, s.k, 1.0f, &rng);
    const Tensor b = Tensor::RandomNormal(s.k, s.n, 1.0f, &rng);
    const double flops = 2.0 * static_cast<double>(s.m) * s.k * s.n;
    // The operands the transposed variants read: a^T (k x m), b^T (n x k).
    Tensor at(s.k, s.m);
    for (int64_t r = 0; r < s.m; ++r) {
      for (int64_t c = 0; c < s.k; ++c) at.at(c, r) = a.at(r, c);
    }
    Tensor bt(s.n, s.k);
    for (int64_t r = 0; r < s.k; ++r) {
      for (int64_t c = 0; c < s.n; ++c) bt.at(c, r) = b.at(r, c);
    }
    const auto blocked_product = [&]() {
      switch (s.op) {
        case Op::kTransA:
          return grimp::MatMulTransA(at, b);
        case Op::kTransB:
          return grimp::MatMulTransB(a, bt);
        case Op::kPlain:
          break;
      }
      return grimp::MatMul(a, b);
    };

    Tensor ref;
    const double naive_s = BestSeconds(
        "bench.naive." + std::to_string(si),
        [&]() { return grimp::MatMulNaive(a, b); }, reps, &ref);
    const double naive_gflops = flops / naive_s * 1e-9;
    std::printf("%6lld x%5lld x%5lld   %-10s %9.3f %9.2f | ",
                static_cast<long long>(s.m), static_cast<long long>(s.k),
                static_cast<long long>(s.n), "naive", naive_s * 1e3,
                naive_gflops);

    json += "    {\"m\": " + std::to_string(s.m) +
            ", \"k\": " + std::to_string(s.k) +
            ", \"n\": " + std::to_string(s.n) + ", \"op\": \"" +
            OpName(s.op) + "\", \"why\": \"" + s.why +
            "\",\n     \"naive_seconds\": " + std::to_string(naive_s) +
            ", \"naive_gflops\": " + std::to_string(naive_gflops) +
            ",\n     \"blocked\": [";

    for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
      const int t = thread_counts[ti];
      grimp::ThreadPool::SetGlobalThreads(t);
      Tensor blocked;
      const double bs = BestSeconds(
          "bench.blocked." + std::to_string(si) + ".t" + std::to_string(t),
          blocked_product, reps, &blocked);
      const bool ok = grimp::AllClose(blocked, ref, 1e-5f, 1e-4f);
      all_ok = all_ok && ok;
      const double gf = flops / bs * 1e-9;
      const double speedup = naive_s / bs;
      std::printf("t=%d: %.2f (%.2fx)%s  ", t, gf, speedup,
                  ok ? "" : " MISMATCH");
      json += std::string(ti == 0 ? "" : ", ") + "{\"threads\": " +
              std::to_string(t) + ", \"seconds\": " + std::to_string(bs) +
              ", \"gflops\": " + std::to_string(gf) +
              ", \"speedup_vs_naive\": " + std::to_string(speedup) +
              ", \"matches_naive\": " + (ok ? "true" : "false") + "}";
    }
    std::printf("\n");
    // Also sanity-check the transpose variants on this shape at max threads.
    if (!grimp::AllClose(grimp::MatMulTransA(at, b), ref, 1e-5f, 1e-4f) ||
        !grimp::AllClose(grimp::MatMulTransB(a, bt), ref, 1e-5f, 1e-4f)) {
      std::printf("  TRANSPOSE-VARIANT MISMATCH at %lldx%lldx%lld\n",
                  static_cast<long long>(s.m), static_cast<long long>(s.k),
                  static_cast<long long>(s.n));
      all_ok = false;
    }
    json += "],\n     \"fused\": [";
    if (s.op != Op::kPlain) {  // the fused epilogue serves forward GEMMs
      json += "]}";
      json += (si + 1 < shapes.size()) ? ",\n" : "\n";
      continue;
    }

    // Fused GEMM+bias+ReLU epilogue (the Tape::LinearRelu kernel) against
    // the unfused equivalent: plain GEMM followed by a separate bias/ReLU
    // pass over the m x n output.
    const Tensor bias = Tensor::RandomNormal(1, s.n, 1.0f, &rng);
    Tensor fused_ref = ref;
    for (int64_t r = 0; r < fused_ref.rows(); ++r) {
      for (int64_t c = 0; c < fused_ref.cols(); ++c) {
        fused_ref.at(r, c) =
            std::max(0.0f, fused_ref.at(r, c) + bias[c]);
      }
    }
    std::printf("%40s | ", "fused gemm+bias+relu");
    for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
      const int t = thread_counts[ti];
      grimp::ThreadPool::SetGlobalThreads(t);
      Tensor fused;
      const double fs = BestSeconds(
          "bench.fused." + std::to_string(si) + ".t" + std::to_string(t),
          [&]() { return grimp::MatMulFused(a, b, bias, /*relu=*/true); },
          reps, &fused);
      const double cs = BestSeconds(
          "bench.chain." + std::to_string(si) + ".t" + std::to_string(t),
          [&]() {
            Tensor c = grimp::MatMul(a, b);
            for (int64_t r = 0; r < c.rows(); ++r) {
              for (int64_t cc = 0; cc < c.cols(); ++cc) {
                c.at(r, cc) = std::max(0.0f, c.at(r, cc) + bias[cc]);
              }
            }
            return c;
          },
          reps);
      const bool ok = grimp::AllClose(fused, fused_ref, 1e-5f, 1e-4f);
      all_ok = all_ok && ok;
      const double gf = flops / fs * 1e-9;
      std::printf("t=%d: %.2f (%.2fx vs chain)%s  ", t, gf, cs / fs,
                  ok ? "" : " MISMATCH");
      json += std::string(ti == 0 ? "" : ", ") + "{\"threads\": " +
              std::to_string(t) + ", \"seconds\": " + std::to_string(fs) +
              ", \"gflops\": " + std::to_string(gf) +
              ", \"chain_seconds\": " + std::to_string(cs) +
              ", \"speedup_vs_chain\": " + std::to_string(cs / fs) +
              ", \"matches_reference\": " + (ok ? "true" : "false") + "}";
    }
    std::printf("\n");
    json += "]}";
    json += (si + 1 < shapes.size()) ? ",\n" : "\n";
  }
  grimp::MetricsRegistry& registry = grimp::MetricsRegistry::Global();
  const int64_t gemm_calls = registry.GetCounter("gemm.calls").value();
  const int64_t gemm_parallel =
      registry.GetCounter("gemm.parallel_calls").value();
  std::printf("\ngemm.calls: %lld  gemm.parallel_calls: %lld\n",
              static_cast<long long>(gemm_calls),
              static_cast<long long>(gemm_parallel));
  json += "  ],\n  \"gemm_calls\": " + std::to_string(gemm_calls) +
          ",\n  \"gemm_parallel_calls\": " + std::to_string(gemm_parallel) +
          "\n}\n";

  std::FILE* f = std::fopen("BENCH_gemm.json", "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_gemm.json\n");
  } else {
    std::printf("\nWARNING: could not write BENCH_gemm.json\n");
  }
  if (!all_ok) {
    std::printf("FAIL: blocked kernels disagree with naive reference\n");
    return 1;
  }
  return 0;
}
