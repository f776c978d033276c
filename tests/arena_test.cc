#include "tensor/arena.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/engine.h"
#include "core/grimp.h"
#include "table/corruption.h"
#include "tensor/tensor.h"
#include "transform_copy.h"

namespace grimp {
namespace {

// Restores the arena's enabled flag on scope exit so a failing assertion in
// one test cannot leak a disabled arena into the rest of the suite.
class ArenaEnabledGuard {
 public:
  explicit ArenaEnabledGuard(bool enabled)
      : prev_(TensorArena::Global().enabled()) {
    TensorArena::Global().SetEnabled(enabled);
  }
  ~ArenaEnabledGuard() { TensorArena::Global().SetEnabled(prev_); }

 private:
  bool prev_;
};

// Same fixture as trainer_test: b and num are deterministic functions of a.
Table StructuredTable(int64_t rows) {
  Schema schema({{"a", AttrType::kCategorical},
                 {"b", AttrType::kCategorical},
                 {"num", AttrType::kNumerical}});
  Table t(schema);
  for (int64_t i = 0; i < rows; ++i) {
    const int a = static_cast<int>(i % 4);
    EXPECT_TRUE(t.AppendRow({"a" + std::to_string(a),
                             "b" + std::to_string(a % 2),
                             std::to_string(10 * a)})
                    .ok());
  }
  return t;
}

GrimpOptions SmallOptions() {
  GrimpOptions options;
  options.dim = 16;
  options.shared_hidden = 32;
  options.max_epochs = 10;
  options.seed = 21;
  return options;
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (int c = 0; c < a.num_cols(); ++c) {
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_EQ(a.column(c).StringAt(r), b.column(c).StringAt(r))
          << "cell (" << r << ", " << c << ")";
    }
  }
}

TEST(ArenaTest, AcquireRoundsUpToBucketAndRecycles) {
  ArenaEnabledGuard guard(true);
  TensorArena& arena = TensorArena::Global();
  const int64_t in_use0 = arena.bytes_in_use();

  int64_t cap = 0;
  float* p = arena.Acquire(100, &cap);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(cap, 128);  // rounded up to the next pow2 bucket
  EXPECT_EQ(arena.bytes_in_use() - in_use0,
            static_cast<int64_t>(128 * sizeof(float)));
  arena.Release(p, cap);
  EXPECT_EQ(arena.bytes_in_use(), in_use0);

  // Same bucket again: must come from the free list, not the heap. The
  // first Acquire may itself have been a hit (an earlier test, or an
  // earlier --gtest_repeat pass, left a buffer in this bucket), so only
  // this one is counted.
  const int64_t hits0 = arena.pool_hits();
  int64_t cap2 = 0;
  float* p2 = arena.Acquire(65, &cap2);
  EXPECT_EQ(cap2, 128);
  EXPECT_EQ(p2, p);
  EXPECT_EQ(arena.pool_hits() - hits0, 1);
  arena.Release(p2, cap2);
}

TEST(ArenaTest, TinyRequestsShareTheMinimumBucket) {
  ArenaEnabledGuard guard(true);
  TensorArena& arena = TensorArena::Global();
  int64_t cap = 0;
  float* p = arena.Acquire(1, &cap);
  EXPECT_EQ(cap, TensorArena::kMinBucketFloats);
  arena.Release(p, cap);
  int64_t cap2 = 0;
  float* p2 = arena.Acquire(TensorArena::kMinBucketFloats, &cap2);
  EXPECT_EQ(cap2, TensorArena::kMinBucketFloats);
  EXPECT_EQ(p2, p);
  arena.Release(p2, cap2);
}

TEST(ArenaTest, DisabledModeAllocatesExactSizes) {
  ArenaEnabledGuard guard(false);
  TensorArena& arena = TensorArena::Global();
  // Exact-size allocations let ASan catch reads past Tensor::size() that a
  // rounded-up pooled buffer would silently absorb.
  int64_t cap = 0;
  float* p = arena.Acquire(100, &cap);
  EXPECT_EQ(cap, 100);
  const int64_t pooled = arena.pooled_bytes();
  arena.Release(p, cap);
  EXPECT_EQ(arena.pooled_bytes(), pooled);  // freed, not pooled
}

TEST(ArenaTest, TrimReleasesIdleBuffersOnly) {
  ArenaEnabledGuard guard(true);
  TensorArena& arena = TensorArena::Global();
  int64_t cap_live = 0;
  float* live = arena.Acquire(200, &cap_live);
  int64_t cap_idle = 0;
  float* idle = arena.Acquire(200, &cap_idle);
  arena.Release(idle, cap_idle);
  EXPECT_GE(arena.pooled_bytes(), static_cast<int64_t>(cap_idle * sizeof(float)));

  arena.Trim();
  EXPECT_EQ(arena.pooled_bytes(), 0);
  // The live buffer is untouched; writing through it must stay valid.
  live[0] = 1.0f;
  live[cap_live - 1] = 2.0f;
  EXPECT_EQ(live[0], 1.0f);
  arena.Release(live, cap_live);
}

TEST(ArenaTest, TensorsRoundTripThroughThePool) {
  ArenaEnabledGuard guard(true);
  TensorArena& arena = TensorArena::Global();
  { Tensor warm(8, 16); }  // seeds the bucket
  const int64_t hits0 = arena.pool_hits();
  const int64_t reserved0 = arena.reserved_bytes();
  for (int i = 0; i < 10; ++i) {
    Tensor t(8, 16);
    t.at(0, 0) = static_cast<float>(i);
  }
  EXPECT_EQ(arena.pool_hits() - hits0, 10);
  EXPECT_EQ(arena.reserved_bytes(), reserved0);  // no new heap memory
}

// The tentpole's core claim: after a few warmup epochs every buffer a
// training step needs is already pooled, so further epochs neither grow the
// arena's heap footprint nor move its high-water mark.
TEST(ArenaTest, SteadyStateTrainingDoesNotGrowArena) {
  ArenaEnabledGuard guard(true);
  Table clean = StructuredTable(100);
  const CorruptedTable corrupted = InjectMcar(clean, 0.3, 1);

  GrimpOptions options = SmallOptions();
  options.max_epochs = 8;
  options.validation_fraction = 0.0;  // disable early stopping: 8 epochs run
  std::vector<int64_t> reserved;
  std::vector<int64_t> high_water;
  options.callbacks.on_epoch_end = [&](const EpochStats&) {
    reserved.push_back(TensorArena::Global().reserved_bytes());
    high_water.push_back(TensorArena::Global().high_water_bytes());
    return true;
  };
  GrimpImputer grimp(options);
  ASSERT_TRUE(grimp.Impute(corrupted.dirty).ok());

  ASSERT_EQ(reserved.size(), 8u);
  constexpr size_t kWarmup = 3;
  for (size_t i = kWarmup; i < reserved.size(); ++i) {
    EXPECT_EQ(reserved[i], reserved[kWarmup - 1]) << "epoch " << i;
    EXPECT_EQ(high_water[i], high_water[kWarmup - 1]) << "epoch " << i;
  }
}

// Sampled mode redraws receptive fields every batch, so buffer sizes jitter;
// the pow2 buckets must still absorb nearly every request after warmup.
TEST(ArenaTest, SampledTrainingHitsThePoolAfterWarmup) {
  ArenaEnabledGuard guard(true);
  Table clean = StructuredTable(100);
  const CorruptedTable corrupted = InjectMcar(clean, 0.3, 1);

  GrimpOptions options = SmallOptions();
  options.max_epochs = 10;
  options.train.mode = TrainMode::kSampled;
  options.train.batch_size = 32;
  options.train.fanouts = {4, 4};
  TensorArena& arena = TensorArena::Global();
  int64_t hits0 = 0;
  int64_t misses0 = 0;
  int epoch = 0;
  options.callbacks.on_epoch_end = [&](const EpochStats&) {
    if (++epoch == 3) {  // snapshot after warmup
      hits0 = arena.pool_hits();
      misses0 = arena.pool_misses();
    }
    return true;
  };
  GrimpImputer grimp(options);
  ASSERT_TRUE(grimp.Impute(corrupted.dirty).ok());

  const int64_t hits = arena.pool_hits() - hits0;
  const int64_t misses = arena.pool_misses() - misses0;
  ASSERT_GT(hits, 0);
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(hits + misses),
            0.99)
      << "hits=" << hits << " misses=" << misses;
}

// The arena must never change what gets computed: training losses and the
// imputed table are bit-identical with the pool on and off, in both training
// modes.
TEST(ArenaTest, ArenaOnOffBitIdenticalImputation) {
  Table clean = StructuredTable(80);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 4);

  for (const bool sampled : {false, true}) {
    auto run = [&](bool arena_on, std::vector<double>* losses) {
      ArenaEnabledGuard guard(arena_on);
      GrimpOptions options = SmallOptions();
      options.max_epochs = 8;
      if (sampled) {
        options.train.mode = TrainMode::kSampled;
        options.train.batch_size = 32;
        options.train.fanouts = {4, 4};
      }
      options.callbacks.on_epoch_end = [losses](const EpochStats& stats) {
        losses->push_back(stats.train_loss);
        return true;
      };
      GrimpImputer grimp(options);
      auto imputed = grimp.Impute(corrupted.dirty);
      EXPECT_TRUE(imputed.ok());
      return *imputed;
    };
    std::vector<double> losses_on, losses_off;
    const Table on = run(true, &losses_on);
    const Table off = run(false, &losses_off);
    ASSERT_FALSE(losses_on.empty());
    ASSERT_EQ(losses_on.size(), losses_off.size());
    for (size_t i = 0; i < losses_on.size(); ++i) {
      EXPECT_EQ(losses_on[i], losses_off[i])
          << (sampled ? "sampled" : "full") << " epoch " << i;
    }
    ExpectTablesIdentical(on, off);
  }
}

// Serving path: a fitted engine's Transform output must not depend on the
// arena either.
TEST(ArenaTest, ArenaOnOffBitIdenticalTransform) {
  Table clean = StructuredTable(80);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 6);
  GrimpOptions options = SmallOptions();
  GrimpEngine engine(options);
  ASSERT_TRUE(engine.Fit(corrupted.dirty).ok());

  Table request(clean.schema());
  ASSERT_TRUE(request.AppendRow({"a2", "", ""}).ok());
  Table on(clean.schema());
  Table off(clean.schema());
  {
    ArenaEnabledGuard guard(true);
    auto result = TransformCopy(engine, request);
    ASSERT_TRUE(result.ok());
    on = *result;
  }
  {
    ArenaEnabledGuard guard(false);
    auto result = TransformCopy(engine, request);
    ASSERT_TRUE(result.ok());
    off = *result;
  }
  ExpectTablesIdentical(on, off);
}

// Trainer::Run publishes the arena gauges; a training run must leave real
// values behind in the registry.
TEST(ArenaTest, TrainingPublishesArenaGauges) {
  ArenaEnabledGuard guard(true);
  Table clean = StructuredTable(60);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 2);
  GrimpOptions options = SmallOptions();
  options.max_epochs = 4;
  GrimpImputer grimp(options);
  ASSERT_TRUE(grimp.Impute(corrupted.dirty).ok());

  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("tensor.arena.enabled").value(), 1.0);
  EXPECT_GT(registry.GetGauge("tensor.arena.high_water_bytes").value(), 0.0);
  EXPECT_GT(registry.GetGauge("tensor.arena.reserved_bytes").value(), 0.0);
  EXPECT_GT(registry.GetGauge("tensor.arena.pool_hit_rate").value(), 0.5);
}

}  // namespace
}  // namespace grimp
