# End-to-end smoke of the trace-ingestion pipeline, run via
#   cmake -DTRACE_CONVERT_BIN=... -DCORPUS_RUNNER_BIN=... \
#         -DRESULTS_DIFF_BIN=... -DGOLDEN_DIR=... -DWORK_DIR=... \
#         -P corpus_smoke.cmake
#
# Emits the demo corpus as text traces, converts each to the PSLT binary
# format, replays the on-disk binary corpus with corpus_runner (quick
# profile) and diffs the result store against the committed golden
# baseline. The golden was produced from the in-memory built-in corpus, so
# a pass certifies text emission, text parsing, binary encoding and the
# mmap decode path all reproduce the same workloads bit for bit.

foreach(var TRACE_CONVERT_BIN CORPUS_RUNNER_BIN RESULTS_DIFF_BIN GOLDEN_DIR
        WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "corpus_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# 1. Demo corpus as text traces (the quick-profile sizing, 400 accesses).
execute_process(
  COMMAND "${TRACE_CONVERT_BIN}" --demo text_corpus --accesses 400
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace_convert --demo exited with ${rc}\n${out}\n${err}")
endif()

# 2. Convert every text trace to binary (with --validate as a parse gate).
file(GLOB text_traces "${WORK_DIR}/text_corpus/*.trace")
list(LENGTH text_traces n_traces)
if(n_traces EQUAL 0)
  message(FATAL_ERROR "trace_convert --demo wrote no .trace files")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}/bin_corpus")
foreach(text_trace IN LISTS text_traces)
  get_filename_component(stem "${text_trace}" NAME_WE)
  execute_process(
    COMMAND "${TRACE_CONVERT_BIN}" --validate "${text_trace}"
            "bin_corpus/${stem}.pslt"
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "trace_convert ${stem} exited with ${rc}\n${out}\n${err}")
  endif()
endforeach()

# 3. Replay the on-disk binary corpus on the CI grid.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "PSLLC_CORPUS_DIR=${WORK_DIR}/bin_corpus"
          "${CORPUS_RUNNER_BIN}" --profile quick --threads 2
          --results-dir "${WORK_DIR}/results"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "corpus_runner exited with ${rc}\n${out}\n${err}")
endif()

# 4. Diff against the committed golden baseline (restricted to the
# corpus_runner result: the candidate store holds nothing else).
file(MAKE_DIRECTORY "${WORK_DIR}/golden/corpus_runner")
file(COPY "${GOLDEN_DIR}/" DESTINATION "${WORK_DIR}/golden/corpus_runner")
execute_process(
  COMMAND "${RESULTS_DIFF_BIN}" "${WORK_DIR}/golden" "${WORK_DIR}/results"
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "results_diff found regressions (${rc})\n${out}\n${err}")
endif()

message(STATUS
        "corpus smoke: ${n_traces} traces text->binary->mmap replayed, "
        "golden baseline reproduced")
