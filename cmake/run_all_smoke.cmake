# Quick-grid smoke of the batched driver, run via
#   cmake -DRUN_ALL_BIN=<path> -DRESULTS_DIR=<dir> -P run_all_smoke.cmake
# Runs `run_all --profile quick --threads 2` into RESULTS_DIR, which it
# empties first: the stores the run_all_results fixture hands on
# (smoke_results_diff, smoke_shard_merge) must hold exactly the benches of
# this build, never one left behind by an earlier build of another grid.

foreach(var RUN_ALL_BIN RESULTS_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_all_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${RESULTS_DIR}")

execute_process(
  COMMAND "${RUN_ALL_BIN}" --profile quick --threads 2
          --results-dir "${RESULTS_DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run_all exited with ${rc}")
endif()
