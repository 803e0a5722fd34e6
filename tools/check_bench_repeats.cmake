# Proves that a figure driver refuses a bad --bench-repeats at the process
# level: Harness::configure_process reads it at the top of main, outside
# any try block, so a malformed or negative count must exit 1 naming the
# flag (not abort with an uncaught exception, and not pass for "unset").
# The same driver with a valid --bench-repeats must run to exit 0, so the
# exit code is the flag's doing.
#
# Driven by the bench_repeats_cli_e2e ctest (see tools/CMakeLists.txt):
#   cmake -DFIG5_BIN=<fig5_bound_vs_sampled> -DOUT_DIR=<dir> -P check_bench_repeats.cmake
foreach(var FIG5_BIN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_bench_repeats.cmake: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY "${OUT_DIR}")

set(small_run --scale 0.1 --sources 8 --steps 20)

foreach(value abc -3 2.5)
  execute_process(
    COMMAND "${FIG5_BIN}" ${small_run} --bench-repeats ${value}
    WORKING_DIRECTORY "${OUT_DIR}"
    TIMEOUT 60
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE run_stderr)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "--bench-repeats ${value}: exit ${rc}, expected 1\n${run_stderr}")
  endif()
  string(FIND "${run_stderr}" "--bench-repeats=${value}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--bench-repeats ${value} failed without naming the flag:\n"
                        "${run_stderr}")
  endif()
endforeach()

execute_process(
  COMMAND "${FIG5_BIN}" ${small_run} --bench-repeats 2
  WORKING_DIRECTORY "${OUT_DIR}"
  TIMEOUT 240
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--bench-repeats 2: exit ${rc}, expected 0\n${run_stderr}")
endif()

message(STATUS "bench-repeats CLI e2e: abc, -3 and 2.5 exit 1 naming the flag; 2 runs")
