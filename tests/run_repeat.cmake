# Runs the scheduling-sensitive training tests 50 times each and fails on
# the first failing repetition. Invoked by the trainer_repeat ctest:
#   cmake -DTAPE_BIN=<tape_test> -DTRAINER_BIN=<trainer_test>
#         -P run_repeat.cmake
foreach(run
    "${TAPE_BIN};TapeRetentionTest.SameShapesReuseEveryBuffer"
    "${TRAINER_BIN};TrainerTest.FullModeLossesIndependentOfThreadCount")
  list(GET run 0 bin)
  list(GET run 1 filter)
  execute_process(
    COMMAND ${bin} --gtest_filter=${filter} --gtest_repeat=50
    RESULT_VARIABLE result
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${filter} failed under --gtest_repeat=50:\n${output}")
  endif()
  message(STATUS "${filter}: 50/50 passed")
endforeach()
