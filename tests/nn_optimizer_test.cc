#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/nn.h"
#include "tensor/optimizer.h"

namespace grimp {
namespace {

TEST(LinearTest, ForwardShapeAndBias) {
  Rng rng(1);
  Linear lin("l", 3, 2, &rng);
  EXPECT_EQ(lin.in_dim(), 3);
  EXPECT_EQ(lin.out_dim(), 2);
  EXPECT_EQ(lin.NumParameters(), 3 * 2 + 2);
  Tape tape;
  auto x = tape.Constant(Tensor::Zeros(4, 3));
  auto y = lin.Forward(&tape, x);
  EXPECT_EQ(tape.value(y).rows(), 4);
  EXPECT_EQ(tape.value(y).cols(), 2);
  // Zero input -> output equals bias (initialized to zero).
  EXPECT_EQ(tape.value(y).SumAbs(), 0.0f);
}

TEST(MlpTest, HiddenReluAndParameterCollection) {
  Rng rng(2);
  Mlp mlp("m", {4, 8, 3}, &rng);
  EXPECT_EQ(mlp.NumParameters(), (4 * 8 + 8) + (8 * 3 + 3));
  std::vector<Parameter*> params;
  mlp.CollectParameters(&params);
  EXPECT_EQ(params.size(), 4u);  // two layers x (W, b)
  Tape tape;
  Rng data_rng(3);
  auto x = tape.Constant(Tensor::GlorotUniform(5, 4, &data_rng));
  auto y = mlp.Forward(&tape, x);
  EXPECT_EQ(tape.value(y).cols(), 3);
}

// Fits y = X w* with gradient descent; both optimizers must converge.
template <typename OptimizerT, typename... Args>
double FitLeastSquares(Args... args) {
  Rng rng(4);
  const Tensor x = Tensor::GlorotUniform(64, 3, &rng);
  const Tensor w_true = Tensor::FromVector(3, 1, {1.0f, -2.0f, 0.5f});
  const Tensor y = MatMul(x, w_true);
  std::vector<float> targets(64);
  for (int64_t i = 0; i < 64; ++i) targets[static_cast<size_t>(i)] = y[i];

  Parameter w("w", Tensor::Zeros(3, 1));
  OptimizerT opt({&w}, args...);
  double loss_value = 0.0;
  for (int step = 0; step < 400; ++step) {
    Tape tape;
    auto pred = tape.MatMul(tape.Constant(x), tape.Leaf(&w));
    auto loss = tape.MseLoss(pred, targets);
    loss_value = tape.value(loss).scalar();
    tape.BackwardFrom(loss, Tensor::Scalar(1.0f));
    opt.Step();
    opt.ZeroGrad();
  }
  return loss_value;
}

TEST(OptimizerTest, SgdConvergesOnLeastSquares) {
  EXPECT_LT((FitLeastSquares<Sgd, float>(0.5f)), 1e-4);
}

TEST(OptimizerTest, SgdWithMomentumConverges) {
  EXPECT_LT((FitLeastSquares<Sgd, float, float>(0.1f, 0.9f)), 1e-4);
}

TEST(OptimizerTest, AdamConvergesOnLeastSquares) {
  EXPECT_LT((FitLeastSquares<Adam, float>(0.05f)), 1e-4);
}

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Parameter p("p", Tensor::Zeros(1, 4));
  p.grad = Tensor::FromVector(1, 4, {3.0f, 0.0f, 4.0f, 0.0f});  // norm 5
  Sgd opt({&p}, 1.0f);
  opt.ClipGradNorm(1.0f);
  double norm_sq = 0;
  for (int64_t i = 0; i < 4; ++i) norm_sq += p.grad[i] * p.grad[i];
  EXPECT_NEAR(std::sqrt(norm_sq), 1.0, 1e-5);
  // Direction preserved.
  EXPECT_NEAR(p.grad[0] / p.grad[2], 0.75, 1e-5);
}

TEST(OptimizerTest, ClipGradNormNoOpWhenSmall) {
  Parameter p("p", Tensor::Zeros(1, 2));
  p.grad = Tensor::FromVector(1, 2, {0.1f, 0.1f});
  Adam opt({&p}, 0.1f);
  opt.ClipGradNorm(10.0f);
  EXPECT_FLOAT_EQ(p.grad[0], 0.1f);
}

// The norm sums squares in fixed 4096-element chunks at every pool size,
// so clipping is bit-identical at 1 and 4 threads (DESIGN.md §5).
TEST(OptimizerTest, ClipGradNormIndependentOfThreadCount) {
  const int saved_threads = ThreadPool::GlobalThreads();
  Rng rng(21);
  const Tensor grad = Tensor::GlorotUniform(13, 1000, &rng);  // > 3 x 4096
  auto clipped = [&](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    Parameter p("p", Tensor::Zeros(grad.rows(), grad.cols()));
    p.grad = grad;
    Sgd opt({&p}, 1.0f);
    opt.ClipGradNorm(0.5f);
    return p.grad;
  };
  const Tensor one = clipped(1);
  const Tensor four = clipped(4);
  ThreadPool::SetGlobalThreads(saved_threads);
  double norm_sq = 0.0;
  for (int64_t i = 0; i < grad.size(); ++i) norm_sq += grad[i] * grad[i];
  ASSERT_GT(std::sqrt(norm_sq), 0.5);  // the clip actually scales
  EXPECT_NE(one[0], grad[0]);
  EXPECT_EQ(std::memcmp(one.data(), four.data(),
                        static_cast<size_t>(one.size()) * sizeof(float)),
            0);
}

// Many tensors below kParallelThreshold plus one spanning five chunks: the
// clip and every Adam step run as one pool loop over all their chunks, and
// weights and moments must keep their bits at 1 and 4 threads.
TEST(OptimizerTest, ClipAndAdamOverManyParametersIndependentOfThreadCount) {
  const int saved_threads = ThreadPool::GlobalThreads();
  struct State {
    std::vector<Tensor> weights, first, second;
  };
  auto train = [](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    Rng rng(33);
    std::vector<Parameter> params;
    params.reserve(41);
    for (int i = 0; i < 40; ++i) {
      params.emplace_back("small", Tensor::GlorotUniform(1 + i % 7, 3 + i,
                                                          &rng));
    }
    params.emplace_back("large", Tensor::GlorotUniform(100, 200, &rng));
    std::vector<Parameter*> ptrs;
    for (Parameter& p : params) ptrs.push_back(&p);
    Adam opt(ptrs, 0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.01f);
    for (int step = 0; step < 3; ++step) {
      for (Parameter& p : params) {
        p.grad = Tensor::GlorotUniform(p.value.rows(), p.value.cols(), &rng);
      }
      opt.ClipGradNorm(0.5f);  // the summed norm is far above 0.5
      opt.Step();
    }
    State state;
    for (size_t k = 0; k < params.size(); ++k) {
      state.weights.push_back(params[k].value);
      state.first.push_back(opt.first_moment(k));
      state.second.push_back(opt.second_moment(k));
    }
    return state;
  };
  const State one = train(1);
  const State four = train(4);
  ThreadPool::SetGlobalThreads(saved_threads);
  auto same_bits = [](const Tensor& a, const Tensor& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.size()) * sizeof(float)) == 0;
  };
  ASSERT_EQ(one.weights.size(), 41u);
  for (size_t k = 0; k < one.weights.size(); ++k) {
    EXPECT_TRUE(same_bits(one.weights[k], four.weights[k])) << "param " << k;
    EXPECT_TRUE(same_bits(one.first[k], four.first[k])) << "param " << k;
    EXPECT_TRUE(same_bits(one.second[k], four.second[k])) << "param " << k;
  }
}

// Steps over a mix of parameters: some written through a tape, some no
// tape reaches (their grads stay +0 since ZeroGrad, as the heads a sampled
// step does not train), and some written by hand (one fresh, one after a
// ZeroGrad with grad_written set). The liveness-skipping clip, Adam and
// ZeroGrad must leave weights, moments and grads bit-identical to the
// dense path, where every parameter counts as written.
TEST(OptimizerTest, SkippingUnwrittenGradsMatchesTheDensePath) {
  struct State {
    std::vector<Tensor> weights, grads, first, second;
  };
  const auto train = [](bool dense) {
    Rng rng(71);
    std::vector<Parameter> params;
    params.reserve(6);
    for (int i = 0; i < 6; ++i) {
      // Parameter 5 spans several optimizer chunks.
      params.emplace_back("p", i == 5 ? Tensor::GlorotUniform(90, 100, &rng)
                                      : Tensor::GlorotUniform(3, 4 + i, &rng));
    }
    std::vector<Parameter*> ptrs;
    for (Parameter& p : params) ptrs.push_back(&p);
    Adam opt(ptrs, 0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.01f);
    // Fresh parameter 4: a hand-written grad before any ZeroGrad.
    params[4].grad = Tensor::GlorotUniform(3, 8, &rng);
    const Tensor x = Tensor::GlorotUniform(7, 3, &rng);
    State state;
    for (int step = 0; step < 4; ++step) {
      // The tape trains parameter step % 2 and, every other step, the
      // large one; the rest get no gradient this step.
      Tape tape;
      const Tape::VarId out =
          tape.MatMul(tape.Constant(x), tape.Leaf(&params[step % 2]));
      tape.BackwardFrom(tape.SumAll(tape.Mul(out, out)), Tensor::Scalar(1.0f));
      if (step % 2 == 1) {
        Tape big;
        const Tape::VarId w = big.Leaf(&params[5]);
        big.BackwardFrom(big.SumAll(big.Mul(w, w)), Tensor::Scalar(1.0f));
      }
      if (step == 2) {  // a hand write after a ZeroGrad
        params[3].grad = Tensor::GlorotUniform(3, 7, &rng);
        params[3].grad_written = true;
      }
      if (dense) {
        for (Parameter& p : params) p.grad_written = true;
      }
      opt.ClipGradNorm(0.5f);
      opt.Step();
      for (Parameter& p : params) state.grads.push_back(p.grad);
      opt.ZeroGrad();
    }
    for (size_t k = 0; k < params.size(); ++k) {
      state.weights.push_back(params[k].value);
      state.grads.push_back(params[k].grad);
      state.first.push_back(opt.first_moment(k));
      state.second.push_back(opt.second_moment(k));
    }
    return state;
  };
  const State skipping = train(/*dense=*/false);
  const State dense = train(/*dense=*/true);
  const auto same_bits = [](const Tensor& a, const Tensor& b) {
    return a.SameShape(b) &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.size()) * sizeof(float)) == 0;
  };
  ASSERT_EQ(skipping.grads.size(), dense.grads.size());
  for (size_t i = 0; i < dense.grads.size(); ++i) {
    EXPECT_TRUE(same_bits(skipping.grads[i], dense.grads[i])) << "grad " << i;
  }
  for (size_t k = 0; k < dense.weights.size(); ++k) {
    EXPECT_TRUE(same_bits(skipping.weights[k], dense.weights[k])) << k;
    EXPECT_TRUE(same_bits(skipping.first[k], dense.first[k])) << k;
    EXPECT_TRUE(same_bits(skipping.second[k], dense.second[k])) << k;
  }
}

TEST(OptimizerTest, AdamWeightDecayShrinksWeights) {
  Parameter p("p", Tensor::Full(1, 1, 10.0f));
  Adam opt({&p}, 0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/1.0f);
  for (int i = 0; i < 50; ++i) {
    // Zero data gradient: only decay acts.
    opt.Step();
    opt.ZeroGrad();
  }
  EXPECT_LT(std::fabs(p.value[0]), 10.0f);
}

}  // namespace
}  // namespace grimp
