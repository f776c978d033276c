# CTest helper: run bench_stream at smoke size with GRIMP_METRICS_JSON set,
# then assert (a) BENCH_stream.json reports bit-identical windows between the
# delta-maintained graph and the batch rebuild, and (b) the dumped metrics
# registry contains the stream.* observability keys every ingest/impute/
# fine-tune cycle must touch. The 5x freshness gate is a full-scale property,
# so the smoke run lowers it to 1.0 and relies on the identity check instead.
# Invoked as
#   cmake -DSMOKE_BIN=<exe> -DWORK_DIR=<dir> -P check_stream_metrics.cmake

if(NOT DEFINED SMOKE_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSMOKE_BIN=<exe> -DWORK_DIR=<dir> -P ...")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(metrics "${WORK_DIR}/stream_smoke_metrics.json")
set(bench_json "${WORK_DIR}/BENCH_stream.json")
file(REMOVE "${metrics}" "${bench_json}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "GRIMP_METRICS_JSON=${metrics}"
          "${SMOKE_BIN}" --rows=900 --batch=64 --window=64 --epochs=4
          --min-speedup=1.0
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_result
  OUTPUT_VARIABLE bench_output
  ERROR_VARIABLE bench_errors)
if(NOT bench_result EQUAL 0)
  message(FATAL_ERROR
          "bench_stream failed (${bench_result}):\n"
          "${bench_output}\n${bench_errors}")
endif()

if(NOT EXISTS "${bench_json}")
  message(FATAL_ERROR "bench_stream did not write ${bench_json}")
endif()
file(READ "${bench_json}" bench_report)

# The load-bearing invariant: every streaming window is bit-identical to a
# from-scratch rebuild over the same table and segment list.
string(JSON identical GET "${bench_report}" windows_identical)
if(NOT identical STREQUAL "ON")
  message(FATAL_ERROR
          "delta-maintained windows diverged from the rebuild "
          "(windows_identical=${identical}):\n${bench_output}")
endif()
string(JSON batches GET "${bench_report}" batches)
if(batches LESS 2)
  message(FATAL_ERROR "smoke run streamed only ${batches} batches")
endif()
# The bench records its thread budget so capped runs are never mistaken for
# full-machine numbers.
string(JSON bench_threads GET "${bench_report}" max_threads)
if(bench_threads LESS 1)
  message(FATAL_ERROR "max_threads is ${bench_threads}")
endif()
string(JSON version GET "${bench_report}" fine_tune serving_version)
if(NOT version STREQUAL "v1")
  message(FATAL_ERROR
          "fine-tune did not hot-swap the published model "
          "(serving_version=${version})")
endif()

if(NOT EXISTS "${metrics}")
  message(FATAL_ERROR "GRIMP_METRICS_JSON sink ${metrics} was not written")
endif()
file(READ "${metrics}" metrics_json)

# Every streaming stage must have reported: graph construction + flush +
# ingest + window-impute + fine-tune spans, the ingest latency histogram,
# per-stage counters, and the live-table gauges.
foreach(span stream.live_graph.create stream.live_graph.flush stream.ingest
        stream.impute_window stream.fine_tune)
  string(JSON span_count GET "${metrics_json}" spans "${span}" count)
  if(span_count LESS 1)
    message(FATAL_ERROR "span ${span} has count ${span_count}")
  endif()
endforeach()

string(JSON ingest_batches GET "${metrics_json}" counters
       stream.ingest.batches)
string(JSON ingest_rows GET "${metrics_json}" counters stream.ingest.rows)
string(JSON flushes GET "${metrics_json}" counters stream.flushes)
string(JSON imputes GET "${metrics_json}" counters stream.imputes)
string(JSON fine_tunes GET "${metrics_json}" counters stream.fine_tunes)
string(JSON publishes GET "${metrics_json}" counters stream.publishes)
if(NOT ingest_batches EQUAL ${batches})
  message(FATAL_ERROR
          "stream.ingest.batches is ${ingest_batches}, expected ${batches}")
endif()
if(ingest_rows LESS 1)
  message(FATAL_ERROR "stream.ingest.rows is ${ingest_rows}")
endif()
if(flushes LESS ${batches})
  message(FATAL_ERROR "stream.flushes is ${flushes}, expected >= ${batches}")
endif()
if(imputes LESS ${batches})
  message(FATAL_ERROR "stream.imputes is ${imputes}, expected >= ${batches}")
endif()
if(NOT fine_tunes EQUAL 1)
  message(FATAL_ERROR "stream.fine_tunes is ${fine_tunes}, expected 1")
endif()
# v0 at engine creation plus v1 after the fine-tune.
if(NOT publishes EQUAL 2)
  message(FATAL_ERROR "stream.publishes is ${publishes}, expected 2")
endif()

string(JSON ingest_hist GET "${metrics_json}" histograms stream.ingest.micros
       count)
if(NOT ingest_hist EQUAL ${batches})
  message(FATAL_ERROR
          "stream.ingest.micros count is ${ingest_hist}, expected ${batches}")
endif()
# 450-row seed prefix plus 7 full 64-row batches (the 2-row tail is not
# streamed).
string(JSON live_rows GET "${metrics_json}" gauges stream.live_rows)
if(NOT live_rows EQUAL 898)
  message(FATAL_ERROR "stream.live_rows gauge is ${live_rows}, expected 898")
endif()
string(JSON serving GET "${metrics_json}" gauges stream.serving_version)
if(NOT serving EQUAL 1)
  message(FATAL_ERROR
          "stream.serving_version gauge is ${serving}, expected 1")
endif()

message(STATUS "stream metrics ok: batches=${ingest_batches}, "
        "flushes=${flushes}, imputes=${imputes}, publishes=${publishes}")
