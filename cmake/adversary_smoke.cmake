# End-to-end smoke of the adversarial pipeline, run via
#   cmake -DADVERSARY_SEARCH_BIN=... -DADVERSARIAL_CORPUS_BIN=... \
#         -DCORPUS_RUNNER_BIN=... -DRESULTS_DIFF_BIN=... \
#         -DTRACES_DIR=... -DGOLDEN_ROOT=... -DADV_GOLDEN_ROOT=... \
#         -DWORK_DIR=... -P adversary_smoke.cmake
#
# Three gates:
#  1. a quick-budget adversary_search over the full pattern x config grid —
#     a nonzero exit means a generated workload pushed observed WCL above
#     the analytical bound (the regression this tool exists to catch);
#  2. the adversarial_corpus bench on the quick profile, diffed against its
#     committed golden (bench/golden/adversarial_corpus);
#  3. the committed near-miss traces under tests/traces/adversarial
#     replayed by corpus_runner and diffed against their golden baseline
#     (bench/golden_adversarial/corpus_runner), so the promoted traces
#     keep reproducing the same latencies bit for bit.

foreach(var ADVERSARY_SEARCH_BIN ADVERSARIAL_CORPUS_BIN CORPUS_RUNNER_BIN
        RESULTS_DIFF_BIN TRACES_DIR GOLDEN_ROOT ADV_GOLDEN_ROOT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "adversary_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# 1. Quick-budget search across every attack pattern and the default
# config grid. Exit 1 = bound violated, 2 = usage/internal error.
execute_process(
  COMMAND "${ADVERSARY_SEARCH_BIN}" --ops 300 --rounds 1 --survivors 1
          --mutants 2 --threads 2
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "adversary_search exited with ${rc} — analytical WCL bound "
          "violated or search failed\n${out}\n${err}")
endif()

# 2. The registered bench on the quick profile, against its golden.
execute_process(
  COMMAND "${ADVERSARIAL_CORPUS_BIN}" --profile quick --threads 2
          --results-dir "${WORK_DIR}/bench_results"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "adversarial_corpus exited with ${rc} — a claim failed\n${out}\n${err}")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}/bench_golden/adversarial_corpus")
file(COPY "${GOLDEN_ROOT}/adversarial_corpus/"
     DESTINATION "${WORK_DIR}/bench_golden/adversarial_corpus")
execute_process(
  COMMAND "${RESULTS_DIFF_BIN}" "${WORK_DIR}/bench_golden"
          "${WORK_DIR}/bench_results"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "results_diff: adversarial_corpus drifted from its quick golden "
          "(${rc})\n${out}\n${err}")
endif()

# 3. Replay the committed near-miss corpus on the CI grid.
file(GLOB promoted_traces "${TRACES_DIR}/*.pslt")
list(LENGTH promoted_traces n_traces)
if(n_traces EQUAL 0)
  message(FATAL_ERROR "no committed .pslt traces under ${TRACES_DIR}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "PSLLC_CORPUS_DIR=${TRACES_DIR}"
          "${CORPUS_RUNNER_BIN}" --profile quick --threads 2
          --results-dir "${WORK_DIR}/results"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "corpus_runner exited with ${rc}\n${out}\n${err}")
endif()

# 4. Diff against the committed adversarial golden baseline.
file(MAKE_DIRECTORY "${WORK_DIR}/golden/corpus_runner")
file(COPY "${ADV_GOLDEN_ROOT}/corpus_runner/"
     DESTINATION "${WORK_DIR}/golden/corpus_runner")
execute_process(
  COMMAND "${RESULTS_DIFF_BIN}" "${WORK_DIR}/golden" "${WORK_DIR}/results"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "results_diff found regressions (${rc})\n${out}\n${err}")
endif()

message(STATUS
        "adversary smoke: bound held on the quick grid, bench golden "
        "reproduced, ${n_traces} promoted trace(s) reproduced their "
        "golden baseline")
