# CTest helper: smoke-run the allocation benchmark (full, sampled and serve
# workloads, arena off/on) with GRIMP_METRICS_JSON set, then assert the
# dumped registry carries the tensor.arena.* gauges, that the bench's
# artifact records bit-identical arena-on/off results, and that arena-on
# training steps stay near allocation-free. Invoked as
#   cmake -DALLOC_BIN=<exe> -DWORK_DIR=<dir> -P check_alloc_metrics.cmake

if(NOT DEFINED ALLOC_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DALLOC_BIN=<exe> -DWORK_DIR=<dir> -P ...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(metrics "${WORK_DIR}/alloc_smoke_metrics.json")
file(REMOVE "${metrics}")

# Smoke size: far below the bench's own 10000-row gate threshold, but large
# enough for several minibatches per task and several dirty rows to serve.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "GRIMP_METRICS_JSON=${metrics}"
          "${ALLOC_BIN}" --rows=300 --epochs=3
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE alloc_result
  OUTPUT_VARIABLE alloc_output
  ERROR_VARIABLE alloc_errors)
if(NOT alloc_result EQUAL 0)
  message(FATAL_ERROR
          "bench_alloc failed (${alloc_result}):\n${alloc_output}\n"
          "${alloc_errors}")
endif()

if(NOT EXISTS "${metrics}")
  message(FATAL_ERROR "GRIMP_METRICS_JSON sink ${metrics} was not written")
endif()
file(READ "${metrics}" metrics_json)

# The bench re-enables the arena and publishes its gauges before exit, so
# the dump must show an enabled arena that actually pooled memory.
string(JSON arena_enabled GET "${metrics_json}" gauges tensor.arena.enabled)
if(NOT arena_enabled EQUAL 1)
  message(FATAL_ERROR "tensor.arena.enabled gauge is ${arena_enabled}")
endif()
string(JSON high_water GET "${metrics_json}" gauges
       tensor.arena.high_water_bytes)
if(high_water LESS 1)
  message(FATAL_ERROR "tensor.arena.high_water_bytes is ${high_water}")
endif()
string(JSON pool_hits GET "${metrics_json}" gauges tensor.arena.pool_hits)
if(pool_hits LESS 1)
  message(FATAL_ERROR "tensor.arena.pool_hits is ${pool_hits}")
endif()
string(JSON hit_rate GET "${metrics_json}" gauges tensor.arena.pool_hit_rate)
if(hit_rate LESS_EQUAL 0)
  message(FATAL_ERROR "tensor.arena.pool_hit_rate is ${hit_rate}")
endif()

# The artifact must cover all six workload/arena combinations and certify
# that recycling never changed a result.
if(NOT EXISTS "${WORK_DIR}/BENCH_alloc.json")
  message(FATAL_ERROR "BENCH_alloc.json was not written")
endif()
file(READ "${WORK_DIR}/BENCH_alloc.json" bench_json)
string(JSON num_configs LENGTH "${bench_json}" configs)
if(NOT num_configs EQUAL 6)
  message(FATAL_ERROR "BENCH_alloc.json has ${num_configs} configs, want 6")
endif()
string(JSON identical GET "${bench_json}" bit_identical)
if(NOT identical STREQUAL "ON")
  message(FATAL_ERROR "BENCH_alloc.json bit_identical is ${identical}")
endif()

# Arena-on steady-state heap allocations per training step. With pooled
# tensors and non-owning ParallelFor callables a step allocates almost
# nothing (about 11.5 full and 1.5 sampled at this size); an owning
# callable per pool loop reads 412.5 and 83.0 on 4 cores. Sanitized builds
# do not count allocations.
string(JSON alloc_counting GET "${bench_json}" alloc_counting)
if(alloc_counting STREQUAL "ON")
  set(max_full 32)
  set(max_sampled 4)
  math(EXPR last "${num_configs} - 1")
  foreach(i RANGE ${last})
    string(JSON mode GET "${bench_json}" configs ${i} mode)
    string(JSON arena GET "${bench_json}" configs ${i} arena)
    string(JSON allocs GET "${bench_json}" configs ${i} steady_allocs_per_step)
    if(NOT arena STREQUAL "ON" OR NOT DEFINED max_${mode})
      continue()
    endif()
    if(allocs GREATER ${max_${mode}})
      message(FATAL_ERROR
              "arena-on ${mode} steady_allocs_per_step ${allocs} > "
              "${max_${mode}}")
    endif()
    set(${mode}_allocs ${allocs})
  endforeach()
  if(NOT DEFINED full_allocs OR NOT DEFINED sampled_allocs)
    message(FATAL_ERROR "BENCH_alloc.json lacks arena-on full/sampled configs")
  endif()
endif()

message(STATUS "alloc metrics ok: pool_hits=${pool_hits}, "
        "hit_rate=${hit_rate}, configs=${num_configs}, "
        "arena-on allocs/step full=${full_allocs} sampled=${sampled_allocs}")
