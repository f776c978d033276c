# CTest helper: smoke-run out-of-core training (bench_train --shards=N at
# smoke size runs the sampled pipeline-depth sweep 0/2/4 over a
# ShardedGraphStore, then the same depth-0 Fit over the in-memory store)
# with GRIMP_METRICS_JSON set, then assert the configs really read shard
# files, that BENCH_train.json reports the depth sweep bit-identical and
# the in-memory twin identical to sharded depth 0, and that its
# epoch_speedup is null. Invoked as
#   cmake -DTRAIN_BIN=<exe> -DWORK_DIR=<dir> -P check_train_shard_metrics.cmake

if(NOT DEFINED TRAIN_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DTRAIN_BIN=<exe> -DWORK_DIR=<dir> -P ...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(metrics "${WORK_DIR}/train_shard_smoke_metrics.json")
file(REMOVE "${metrics}" "${WORK_DIR}/BENCH_train.json")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "GRIMP_METRICS_JSON=${metrics}"
          "${TRAIN_BIN}" --shards=2 --rows=4000 --epochs=2 --budget-mb=1
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE train_result
  OUTPUT_VARIABLE train_output
  ERROR_VARIABLE train_errors)
if(NOT train_result EQUAL 0)
  message(FATAL_ERROR
          "bench_train --shards failed (${train_result}):\n${train_output}\n"
          "${train_errors}")
endif()

if(NOT EXISTS "${metrics}")
  message(FATAL_ERROR "GRIMP_METRICS_JSON sink ${metrics} was not written")
endif()
file(READ "${metrics}" metrics_json)
string(JSON fetches GET "${metrics_json}" counters graph.shard.fetches)
if(fetches LESS 1)
  message(FATAL_ERROR "graph.shard.fetches is ${fetches}: no shard was read")
endif()

if(NOT EXISTS "${WORK_DIR}/BENCH_train.json")
  message(FATAL_ERROR "BENCH_train.json was not written")
endif()
file(READ "${WORK_DIR}/BENCH_train.json" bench_json)
string(JSON is_sharded GET "${bench_json}" sharded)
if(NOT is_sharded STREQUAL "ON")
  message(FATAL_ERROR "BENCH_train.json sharded is ${is_sharded}")
endif()
# Depths 0, 2, 4 over the sharded store, then the in-memory twin.
string(JSON num_configs LENGTH "${bench_json}" configs)
if(NOT num_configs EQUAL 4)
  message(FATAL_ERROR "BENCH_train.json has ${num_configs} configs")
endif()
string(JSON twin GET "${bench_json}" configs 3 config)
if(NOT twin STREQUAL "memory_d0")
  message(FATAL_ERROR "last config is ${twin}, expected memory_d0")
endif()
foreach(i RANGE 3)
  string(JSON accuracy GET "${bench_json}" configs ${i} accuracy)
  if(accuracy LESS_EQUAL 0)
    message(FATAL_ERROR "config ${i} was not scored (accuracy ${accuracy})")
  endif()
endforeach()
string(JSON bit_identical GET "${bench_json}" bit_identical)
if(NOT bit_identical STREQUAL "ON")
  message(FATAL_ERROR
          "pipelined sharded configs diverged from serial "
          "(bit_identical=${bit_identical}):\n${train_output}")
endif()
# A sharded run has no full-graph config to compare with, so its
# epoch_speedup is undefined and must be written as null, not as a number.
string(JSON speedup_type TYPE "${bench_json}" epoch_speedup)
if(NOT speedup_type STREQUAL "NULL")
  string(JSON speedup GET "${bench_json}" epoch_speedup)
  message(FATAL_ERROR
          "BENCH_train.json epoch_speedup is ${speedup} in a sharded run; "
          "expected null")
endif()
string(JSON store_identical GET "${bench_json}" store_identical)
if(NOT store_identical STREQUAL "ON")
  message(FATAL_ERROR
          "the in-memory twin diverged from sharded depth 0 "
          "(store_identical=${store_identical}):\n${train_output}")
endif()

message(STATUS "train shard metrics ok: shard fetches=${fetches}, "
        "bit_identical=${bit_identical}, store_identical=${store_identical}")
