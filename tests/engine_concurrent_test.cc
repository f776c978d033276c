// Concurrency contract of GrimpEngine: after Fit, TransformMany is const
// and touches no shared mutable state, so any number
// of threads may impute on one engine simultaneously and every result must
// be bit-identical to a serial call. Run under GRIMP_SANITIZE=thread to
// catch violations the assertions can't see.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "transform_copy.h"

namespace grimp {
namespace {

Table TrainingTable() {
  Schema schema({{"brand", AttrType::kCategorical},
                 {"model", AttrType::kCategorical},
                 {"price", AttrType::kNumerical}});
  Table t(schema);
  const char* brands[] = {"acer", "dell", "apple", "lenovo"};
  const char* models[] = {"swift", "xps", "mac", "yoga"};
  const char* prices[] = {"4", "7", "12", "6"};
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(t.AppendRow({brands[i], models[i], prices[i]}).ok());
    }
  }
  return t;
}

Table DirtyRow(int which) {
  Table t(TrainingTable().schema());
  switch (which % 3) {
    case 0:
      EXPECT_TRUE(t.AppendRow({"acer", "", "4"}).ok());
      break;
    case 1:
      EXPECT_TRUE(t.AppendRow({"", "xps", "7"}).ok());
      break;
    default:
      EXPECT_TRUE(t.AppendRow({"apple", "mac", ""}).ok());
      break;
  }
  return t;
}

std::unique_ptr<GrimpEngine> FitEngine() {
  GrimpOptions options;
  options.dim = 8;
  options.shared_hidden = 16;
  options.task_hidden = 16;
  options.max_epochs = 10;
  options.validation_fraction = 0.0;
  options.seed = 7;
  auto engine = std::make_unique<GrimpEngine>(options);
  EXPECT_TRUE(engine->Fit(TrainingTable()).ok());
  return engine;
}

std::vector<std::string> RowCells(const Table& table) {
  std::vector<std::string> cells;
  for (int c = 0; c < table.num_cols(); ++c) {
    cells.push_back(table.column(c).StringAt(0));
  }
  return cells;
}

TEST(EngineConcurrentTest, ParallelTransformsAreBitIdenticalToSerial) {
  auto engine = FitEngine();

  // Serial baselines for each of the three request shapes.
  std::vector<std::vector<std::string>> baseline;
  for (int which = 0; which < 3; ++which) {
    auto result = TransformCopy(*engine, DirtyRow(which));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    baseline.push_back(RowCells(*result));
  }

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 5;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const int which = (t + i) % 3;
        auto result = TransformCopy(*engine, DirtyRow(which));
        if (!result.ok() ||
            RowCells(*result) != baseline[static_cast<size_t>(which)]) {
          mismatches[t]++;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(EngineConcurrentTest, TransformBatchMatchesIndividualTransforms) {
  auto engine = FitEngine();

  std::vector<Table> requests;
  for (int which = 0; which < 3; ++which) requests.push_back(DirtyRow(which));
  std::vector<const Table*> pointers;
  for (const Table& t : requests) pointers.push_back(&t);

  auto batched = TransformCopies(*engine, pointers);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto solo = TransformCopy(*engine, requests[i]);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    EXPECT_EQ(RowCells((*batched)[i]), RowCells(*solo)) << "request " << i;
  }
}

TEST(EngineConcurrentTest, SingleRequestBatchEqualsTransform) {
  auto engine = FitEngine();
  const Table dirty = DirtyRow(0);
  auto solo = TransformCopy(*engine, dirty);
  auto batched = TransformCopies(*engine, {&dirty});
  ASSERT_TRUE(solo.ok() && batched.ok());
  ASSERT_EQ(batched->size(), 1u);
  EXPECT_EQ(RowCells((*batched)[0]), RowCells(*solo));
}

TEST(EngineConcurrentTest, ConcurrentBatchesAreBitIdentical) {
  auto engine = FitEngine();

  std::vector<Table> requests;
  for (int which = 0; which < 3; ++which) requests.push_back(DirtyRow(which));
  std::vector<const Table*> pointers;
  for (const Table& t : requests) pointers.push_back(&t);
  auto baseline = TransformCopies(*engine, pointers);
  ASSERT_TRUE(baseline.ok());
  std::vector<std::vector<std::string>> expected;
  for (const Table& t : *baseline) expected.push_back(RowCells(t));

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto result = TransformCopies(*engine, pointers);
      if (!result.ok() || result->size() != expected.size()) {
        mismatches[t] = 1;
        return;
      }
      for (size_t i = 0; i < expected.size(); ++i) {
        if (RowCells((*result)[i]) != expected[i]) mismatches[t]++;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace grimp
