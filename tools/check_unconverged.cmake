# Proves the exit-3 contract at the process level, for socmix measure and
# for a figure driver (table1_datasets, which returns core::exit_status): a
# spectral run whose Lanczos certificate fails must still print its result
# (and the driver write its CSV, with that row's mu marked UNCONVERGED in
# both), then exit 3 with `lanczos-unconverged` on stderr. No real graph can be relied
# on to defeat the solver, so the "lanczos.certificate" fault site fails
# the certificate on demand (`error` mode marks it failed, it does not
# throw). The same run without the fault must exit 0, so the exit code is
# the fault's doing.
#
# The faulted run's --metrics-out must count the solve in
# linalg.lanczos.unconverged, and the clean run's must carry it as 0.
#
# Driven by the unconverged_cli_e2e ctest (see tools/CMakeLists.txt):
#   cmake -DSOCMIX_BIN=<socmix> -DTABLE1_BIN=<table1_datasets> -DOUT_DIR=<dir>
#         -P check_unconverged.cmake
if(NOT DEFINED SOCMIX_BIN OR NOT DEFINED TABLE1_BIN OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR
    "usage: cmake -DSOCMIX_BIN=<socmix> -DTABLE1_BIN=<table1_datasets> -DOUT_DIR=<dir> "
    "-P check_unconverged.cmake")
endif()
file(MAKE_DIRECTORY "${OUT_DIR}")

set(common_args measure --dataset "Physics 1" --nodes 600 --sources 0 --seed 7)
set(unconverged_exit_code 3)

# Asserts that the metrics snapshot `file` counts `want` unconverged solves.
function(expect_unconverged_count file want)
  file(READ "${file}" metrics)
  if(NOT metrics MATCHES "\"linalg\\.lanczos\\.unconverged\":([0-9]+)"
     OR NOT CMAKE_MATCH_1 EQUAL ${want})
    message(FATAL_ERROR "${file}: linalg.lanczos.unconverged is "
                        "'${CMAKE_MATCH_1}', expected ${want}")
  endif()
endfunction()

execute_process(
  COMMAND "${SOCMIX_BIN}" ${common_args} --metrics-out "${OUT_DIR}/clean.json"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "unfaulted run failed (${rc}):\n${run_stderr}")
endif()
expect_unconverged_count("${OUT_DIR}/clean.json" 0)

execute_process(
  COMMAND "${SOCMIX_BIN}" ${common_args} --fault-inject lanczos.certificate:1:error
          --metrics-out "${OUT_DIR}/faulted.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE run_stdout ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL ${unconverged_exit_code})
  message(FATAL_ERROR "failed certificate: exit ${rc}, expected "
                      "${unconverged_exit_code}\nstderr:\n${run_stderr}")
endif()
if(NOT run_stderr MATCHES "lanczos-unconverged")
  message(FATAL_ERROR "exit 3 without `lanczos-unconverged` on stderr:\n${run_stderr}")
endif()
if(run_stdout STREQUAL "")
  message(FATAL_ERROR "unconverged run printed no result before exiting 3")
endif()
expect_unconverged_count("${OUT_DIR}/faulted.json" 1)

# table1_datasets at a small --scale: the faulted run fails the first of
# its 15 solves, and must still write every CSV row before exiting 3; the
# clean run exits 0. Each runs in its own directory, where the driver
# writes bench_results/.
set(table1_args --scale 0.01 --seed 7)
foreach(variant clean faulted)
  file(REMOVE_RECURSE "${OUT_DIR}/table1_${variant}")
  file(MAKE_DIRECTORY "${OUT_DIR}/table1_${variant}")
endforeach()
execute_process(
  COMMAND "${TABLE1_BIN}" ${table1_args}
  WORKING_DIRECTORY "${OUT_DIR}/table1_clean"
  RESULT_VARIABLE rc OUTPUT_VARIABLE clean_stdout ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "unfaulted table1_datasets failed (${rc}):\n${run_stderr}")
endif()
if(clean_stdout MATCHES "UNCONVERGED")
  message(FATAL_ERROR "unfaulted table1_datasets marked a row UNCONVERGED:\n${clean_stdout}")
endif()
file(READ "${OUT_DIR}/table1_clean/bench_results/table1_datasets.csv" clean_csv)
if(clean_csv MATCHES "UNCONVERGED")
  message(FATAL_ERROR "unfaulted table1_datasets marked a CSV row UNCONVERGED:\n${clean_csv}")
endif()
execute_process(
  COMMAND "${TABLE1_BIN}" ${table1_args} --fault-inject lanczos.certificate:1:error
  WORKING_DIRECTORY "${OUT_DIR}/table1_faulted"
  RESULT_VARIABLE rc OUTPUT_VARIABLE run_stdout ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL ${unconverged_exit_code})
  message(FATAL_ERROR "table1_datasets with a failed certificate: exit ${rc}, expected "
                      "${unconverged_exit_code}\nstderr:\n${run_stderr}")
endif()
if(NOT run_stderr MATCHES "lanczos-unconverged: 1 ")
  message(FATAL_ERROR "table1_datasets exited 3 without `lanczos-unconverged: 1` on "
                      "stderr:\n${run_stderr}")
endif()
set(table1_csv "${OUT_DIR}/table1_faulted/bench_results/table1_datasets.csv")
if(NOT EXISTS "${table1_csv}")
  message(FATAL_ERROR "table1_datasets exited 3 before writing ${table1_csv}")
endif()
file(STRINGS "${table1_csv}" table1_rows)
list(LENGTH table1_rows table1_row_count)
if(NOT table1_row_count EQUAL 16)
  message(FATAL_ERROR "${table1_csv}: ${table1_row_count} lines, expected a header "
                      "and 15 datasets")
endif()
# The failed solve is the first dataset's: its row, and only its row, is
# marked, in the printed table and in the CSV.
list(GET table1_rows 1 first_row)
list(FILTER table1_rows INCLUDE REGEX "UNCONVERGED")
list(LENGTH table1_rows marked_rows)
if(NOT marked_rows EQUAL 1 OR NOT first_row MATCHES " UNCONVERGED")
  message(FATAL_ERROR "${table1_csv}: ${marked_rows} rows marked UNCONVERGED, expected "
                      "the first dataset's only")
endif()
string(REGEX MATCHALL "[^\n]*UNCONVERGED[^\n]*" marked_lines "${run_stdout}")
list(LENGTH marked_lines marked_lines_count)
if(NOT marked_lines_count EQUAL 1)
  message(FATAL_ERROR "table1_datasets printed ${marked_lines_count} rows marked "
                      "UNCONVERGED, expected 1:\n${run_stdout}")
endif()

message(STATUS "unconverged CLI e2e: a failed certificate exits 3 with lanczos-unconverged "
               "from socmix measure and table1_datasets, after their output, marks the "
               "row UNCONVERGED, and counts one unconverged solve")
