# CTest helper: smoke-run sampled-mode training (bench_train at smoke size
# runs one full-graph config plus the sampled pipeline-depth sweep 0/2/4
# back to back) with GRIMP_METRICS_JSON set, then assert the dumped
# registry contains the train.* observability keys sampled training must
# touch — including the train.pipeline.* counters and span that grouped
# batch preparation publishes — and that BENCH_train.json reports the depth
# sweep bit-identical. Invoked as
#   cmake -DTRAIN_BIN=<exe> -DWORK_DIR=<dir> -P check_train_metrics.cmake

if(NOT DEFINED TRAIN_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DTRAIN_BIN=<exe> -DWORK_DIR=<dir> -P ...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(metrics "${WORK_DIR}/train_smoke_metrics.json")
file(REMOVE "${metrics}")

# Smoke size: below the bench's own speedup gates, large enough for several
# minibatches per task (200 rows * 0.8 non-missing > batch size 64).
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "GRIMP_METRICS_JSON=${metrics}"
          "${TRAIN_BIN}" --rows=200 --epochs=3
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE train_result
  OUTPUT_VARIABLE train_output
  ERROR_VARIABLE train_errors)
if(NOT train_result EQUAL 0)
  message(FATAL_ERROR
          "bench_train failed (${train_result}):\n${train_output}\n"
          "${train_errors}")
endif()

if(NOT EXISTS "${metrics}")
  message(FATAL_ERROR "GRIMP_METRICS_JSON sink ${metrics} was not written")
endif()
file(READ "${metrics}" metrics_json)

# The sampled epochs must have traced per-batch sampling, feature gathering
# (the batch.* spans of the shared sampled-batch path) and pipeline slot
# preparation, and every config traces the umbrella training span, the
# trainer's preparation before epoch 0 plus the GNN forward (full-graph in
# full mode, per-block in sampled mode).
foreach(span batch.sample batch.gather train.pipeline.prepare gnn.forward
        grimp.train train.prepare)
  string(JSON span_count GET "${metrics_json}" spans "${span}" count)
  if(span_count LESS 1)
    message(FATAL_ERROR "span ${span} has count ${span_count}")
  endif()
endforeach()

# grimp.train ran once per config: full plus sampled depths 0, 2, 4.
string(JSON train_runs GET "${metrics_json}" spans grimp.train count)
if(NOT train_runs EQUAL 4)
  message(FATAL_ERROR "expected 4 grimp.train spans, got ${train_runs}")
endif()

# Grouped batch preparation must have produced every batch the step loop
# consumed (the serial depth-0 config counts its inline batches too).
string(JSON produced GET "${metrics_json}" counters train.pipeline.produced)
string(JSON consumed GET "${metrics_json}" counters train.pipeline.consumed)
if(produced LESS 1 OR consumed LESS 1)
  message(FATAL_ERROR
          "train.pipeline produced=${produced} consumed=${consumed}")
endif()
if(NOT produced EQUAL ${consumed})
  message(FATAL_ERROR
          "train.pipeline.produced ${produced} != consumed ${consumed}")
endif()

# 3 epochs x 4 configs land in the shared epoch-loss series; only sampled
# configs append per-step losses, at least one step per epoch.
string(JSON epoch_losses LENGTH "${metrics_json}" series
       grimp.epoch.train_loss)
if(NOT epoch_losses EQUAL 12)
  message(FATAL_ERROR
          "grimp.epoch.train_loss has ${epoch_losses} entries, expected 12")
endif()
string(JSON batch_losses LENGTH "${metrics_json}" series
       grimp.batch.train_loss)
if(batch_losses LESS 9)
  message(FATAL_ERROR
          "grimp.batch.train_loss has ${batch_losses} entries, expected >= 9")
endif()
string(JSON epoch_seconds LENGTH "${metrics_json}" series grimp.epoch.seconds)
if(NOT epoch_seconds EQUAL 12)
  message(FATAL_ERROR
          "grimp.epoch.seconds has ${epoch_seconds} entries, expected 12")
endif()

# Every run published the parameter-count gauge.
string(JSON num_params GET "${metrics_json}" gauges grimp.num_parameters)
if(num_params LESS 1)
  message(FATAL_ERROR "grimp.num_parameters gauge is ${num_params}")
endif()

# The bench's own artifact must be valid JSON with the full depth sweep, a
# measured full-vs-sampled speedup, and — the load-bearing invariant —
# bit-identical training across pipeline depths.
if(NOT EXISTS "${WORK_DIR}/BENCH_train.json")
  message(FATAL_ERROR "BENCH_train.json was not written")
endif()
file(READ "${WORK_DIR}/BENCH_train.json" bench_json)
string(JSON num_configs LENGTH "${bench_json}" configs)
if(NOT num_configs EQUAL 4)
  message(FATAL_ERROR "BENCH_train.json has ${num_configs} configs")
endif()
string(JSON bench_speedup GET "${bench_json}" epoch_speedup)
if(bench_speedup LESS_EQUAL 0)
  message(FATAL_ERROR "BENCH_train.json epoch_speedup is ${bench_speedup}")
endif()
string(JSON pipe_speedup GET "${bench_json}" pipeline_speedup)
if(pipe_speedup LESS_EQUAL 0)
  message(FATAL_ERROR
          "BENCH_train.json pipeline_speedup is ${pipe_speedup}")
endif()
string(JSON bit_identical GET "${bench_json}" bit_identical)
if(NOT bit_identical STREQUAL "ON")
  message(FATAL_ERROR
          "pipelined configs diverged from serial "
          "(bit_identical=${bit_identical}):\n${train_output}")
endif()

message(STATUS "train metrics ok: grimp.train runs=${train_runs}, "
        "pipeline produced=${produced}, "
        "smoke speedup=${bench_speedup}, bit_identical=${bit_identical}")
