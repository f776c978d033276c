#ifndef GRIMP_CORE_PIPELINE_H_
#define GRIMP_CORE_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "graph/store.h"

namespace grimp {

// Bounded-depth asynchronous batch-preparation pipeline for sampled
// training (the DGL-style prefetching dataloader, specialized to GRIMP's
// deterministic batches). Only the Trainer uses it: with spare hardware
// threads it pays on sharded epochs, whose batch prep includes shard loads
// (DESIGN.md §14). Streaming window inference — one batch per task — never
// profited and prepares its batches inline.
//
// `depth` is the lookahead: producer threads run the caller's PrepareFn —
// sampling (which prefetches and pins shards), feature gathering, label
// slicing — for up to `depth` batches beyond the one the consumer is
// processing, into depth+1 recycled slots. The consumer takes batches
// strictly in order via Next(). Depth 0 is the degenerate serial case: no
// threads are created and Next() prepares inline on the calling thread,
// reproducing the pre-pipeline path op-for-op.
//
// Determinism: a batch's content is a pure function of (batch id, the
// caller's per-batch seed derivation, the graph) — never of which producer
// prepared it or when — so losses are bit-identical to the serial path at
// any depth and thread count. See DESIGN.md §14 for the full argument.
//
// Slot-recycling contract: the consumer may borrow freely from the
// PreparedBatch returned by Next() (tape closures borrow its adjacency and
// index vectors), but all such borrows must be dropped — in the trainer,
// Tape::Reset — before the *next* Next() call. Next(k+1) is the signal
// that releases batch k's slot for reuse by batch k+1+depth. Producers
// therefore never write a slot the consumer can still read: claimable
// batches are bounded by freed + depth + 1, and the batch being consumed
// is by construction outside that window.
//
// Producer threads mark themselves ThreadPool::MarkCallerInlineOnly, so
// nested ParallelFors (shard loads inside Prefetch, the feature gather)
// run inline on the producer and never contend with the consumer's GEMMs
// for pool workers.
//
// Metrics: train.pipeline.{produced,consumed,stalls} counters,
// train.pipeline.queue_depth gauge, train.pipeline.wait_micros histogram
// (consumer time blocked waiting for an unready batch), plus
// "train.pipeline.prepare" / "train.pipeline.wait" trace spans.
class BatchPipeline {
 public:
  // Prepares batch `batch` into *out using *scratch. Must derive all
  // randomness from `batch` (and state fixed before Begin), never from
  // shared mutable state — the function runs concurrently on multiple
  // producer threads for different batch ids.
  using PrepareFn = std::function<void(int64_t batch, PreparedBatch* out,
                                       BatchScratch* scratch)>;

  // `depth` must lie in [0, TrainConfig::kMaxPipelineDepth] (validated by
  // GrimpOptions::Validate). `store` must outlive the pipeline; `fanouts`
  // are the per-layer sampler fanouts (already defaulted by the caller).
  // Producer threads (min(depth, 4)) start here and live until
  // destruction, parked between runs.
  BatchPipeline(int depth, const GraphStore* store, std::vector<int> fanouts);
  ~BatchPipeline();

  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  int depth() const { return depth_; }

  // Starts a run of `total_batches` batches. No other run may be active.
  void Begin(int64_t total_batches, PrepareFn prepare);

  // Returns the next batch in order, blocking until it is ready. The
  // reference is valid until the following Next()/End() call (see the
  // slot-recycling contract above). Must be called exactly once per batch,
  // at most total_batches times, from one consumer thread.
  PreparedBatch& Next();

  // Ends the run: cancels unclaimed batches, waits for in-flight
  // preparation to drain, and clears slot ready-marks so a subsequent
  // Begin starts clean. Prepared-but-unconsumed batches are discarded.
  void End();

 private:
  struct Slot {
    PreparedBatch batch;
    int64_t ready_batch = -1;  // batch id published in this slot
  };
  struct Producer {
    std::unique_ptr<BatchScratch> scratch;
    std::thread thread;
  };

  void ProducerMain(Producer* self);
  // *scratch, created on first use.
  BatchScratch* Scratch(std::unique_ptr<BatchScratch>* scratch);

  const int depth_;
  const GraphStore* store_;
  const std::vector<int> fanouts_;
  std::vector<Slot> slots_;         // depth + 1 recycled slots
  std::vector<Producer> producers_;
  // Depth-0 (inline) scratch, created lazily on first Next().
  std::unique_ptr<BatchScratch> inline_scratch_;

  std::mutex mu_;
  std::condition_variable producer_cv_;  // producers wait for claimable work
  std::condition_variable ready_cv_;     // consumer waits for its batch
  std::condition_variable idle_cv_;      // End waits for in-flight prepares
  PrepareFn prepare_;
  int64_t total_ = 0;         // batches in the current run
  int64_t next_claim_ = 0;    // next batch id a producer may claim
  int64_t consume_next_ = 0;  // next batch id Next() returns
  int64_t freed_ = 0;         // batches whose slots are fully released
  int64_t produced_ = 0;      // batches published and not yet consumed + consumed
  int active_ = 0;            // producers currently inside prepare_
  bool running_ = false;
  bool stop_ = false;
};

}  // namespace grimp

#endif  // GRIMP_CORE_PIPELINE_H_
