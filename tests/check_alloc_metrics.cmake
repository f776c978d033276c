# CTest helper: smoke-run the allocation benchmark (full, sampled and serve
# workloads), then assert that its artifact holds one config per mode and
# that each mode's steady state stays under its absolute heap-allocation
# bound per training step or serve request. Invoked as
#   cmake -DALLOC_BIN=<exe> -DWORK_DIR=<dir> -P check_alloc_metrics.cmake

if(NOT DEFINED ALLOC_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DALLOC_BIN=<exe> -DWORK_DIR=<dir> -P ...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
file(REMOVE "${WORK_DIR}/BENCH_alloc.json")

# Smoke size: far below the bench's own 10000-row gate threshold, but large
# enough for several minibatches per task and several dirty rows to serve.
execute_process(
  COMMAND "${ALLOC_BIN}" --rows=300 --epochs=3
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE alloc_result
  OUTPUT_VARIABLE alloc_output
  ERROR_VARIABLE alloc_errors)
if(NOT alloc_result EQUAL 0)
  message(FATAL_ERROR
          "bench_alloc failed (${alloc_result}):\n${alloc_output}\n"
          "${alloc_errors}")
endif()

if(NOT EXISTS "${WORK_DIR}/BENCH_alloc.json")
  message(FATAL_ERROR "BENCH_alloc.json was not written")
endif()
file(READ "${WORK_DIR}/BENCH_alloc.json" bench_json)
string(JSON num_configs LENGTH "${bench_json}" configs)
if(NOT num_configs EQUAL 3)
  message(FATAL_ERROR "BENCH_alloc.json has ${num_configs} configs, want 3")
endif()

# Steady-state heap allocations per training step or serve request. The
# tape's node slots and caller scratch recycle every tensor buffer, so a
# step allocates almost nothing (about 4.5 full, 2.8 sampled and 18.3 per
# request at this size on 4 cores); an owning callable per pool loop reads
# hundreds. Sanitized builds do not count allocations.
set(max_full 32)
set(max_sampled 4)
set(max_serve 25)
string(JSON alloc_counting GET "${bench_json}" alloc_counting)
if(alloc_counting STREQUAL "ON")
  math(EXPR last "${num_configs} - 1")
  foreach(i RANGE ${last})
    string(JSON mode GET "${bench_json}" configs ${i} mode)
    string(JSON allocs GET "${bench_json}" configs ${i} steady_allocs_per_step)
    if(NOT DEFINED max_${mode})
      message(FATAL_ERROR "BENCH_alloc.json has an unknown mode ${mode}")
    endif()
    if(allocs GREATER ${max_${mode}})
      message(FATAL_ERROR
              "${mode} steady_allocs_per_step ${allocs} > ${max_${mode}}")
    endif()
    set(${mode}_allocs ${allocs})
  endforeach()
  if(NOT DEFINED full_allocs OR NOT DEFINED sampled_allocs OR
     NOT DEFINED serve_allocs)
    message(FATAL_ERROR "BENCH_alloc.json lacks a full, sampled or serve config")
  endif()
endif()

message(STATUS "alloc metrics ok: allocs/step full=${full_allocs} "
        "sampled=${sampled_allocs} serve=${serve_allocs}")
