# Proves socmix measure's exit-3 contract at the process level: a spectral
# run whose Lanczos certificate fails must still print its result, then
# exit 3 with `lanczos-unconverged` on stderr. No real graph can be relied
# on to defeat the solver, so the "lanczos.certificate" fault site fails
# the certificate on demand (`error` mode marks it failed, it does not
# throw). The same run without the fault must exit 0, so the exit code is
# the fault's doing.
#
# The faulted run's --metrics-out must count the solve in
# linalg.lanczos.unconverged, and the clean run's must carry it as 0.
#
# Driven by the unconverged_cli_e2e ctest (see tools/CMakeLists.txt):
#   cmake -DSOCMIX_BIN=<socmix> -DOUT_DIR=<dir> -P check_unconverged.cmake
if(NOT DEFINED SOCMIX_BIN OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR
    "usage: cmake -DSOCMIX_BIN=<socmix> -DOUT_DIR=<dir> -P check_unconverged.cmake")
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

message(STATUS "unconverged CLI e2e: failed certificate exits 3 with lanczos-unconverged "
               "and counts one unconverged solve")
