# Golden-output check: every committed figure/table CSV under
# bench_results/ must be what its driver writes today, byte for byte.
#
# Each line of the manifest (tools/golden_outputs.txt) names a driver, its
# exact arguments and the CSVs it writes:
#   <driver> [args...] : <output file>...
# Every line runs in a fresh directory under OUT_DIR (the drivers write
# into ./bench_results), must exit 0, and each listed output must equal
# GOLDEN_DIR/<file>. Every committed CSV other than the timing files
# (e2e_*, micro_*) must be listed, so a new figure cannot skip the check.
# Threads and the SIMD tier come from the environment (SOCMIX_THREADS,
# SOCMIX_SIMD): outputs are specified not to depend on either.
#
# Driven by the golden_outputs ctest (see tools/CMakeLists.txt):
#   cmake -DBIN_DIR=<dir of the drivers> -DMANIFEST=<golden_outputs.txt>
#         -DGOLDEN_DIR=<bench_results> -DOUT_DIR=<dir> -P check_golden.cmake
cmake_minimum_required(VERSION 3.16)

foreach(var BIN_DIR MANIFEST GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR
      "usage: cmake -DBIN_DIR=<dir> -DMANIFEST=<file> -DGOLDEN_DIR=<dir> "
      "-DOUT_DIR=<dir> -P check_golden.cmake")
  endif()
endforeach()

file(STRINGS "${MANIFEST}" lines REGEX "^[^#].*:")
set(listed "")
set(failures "")
set(run 0)
foreach(line IN LISTS lines)
  string(FIND "${line}" " : " colon)
  if(colon LESS 0)
    message(FATAL_ERROR "${MANIFEST}: no ' : ' in '${line}'")
  endif()
  string(SUBSTRING "${line}" 0 ${colon} command)
  math(EXPR rest "${colon} + 3")
  string(SUBSTRING "${line}" ${rest} -1 outputs)
  separate_arguments(command UNIX_COMMAND "${command}")
  separate_arguments(outputs UNIX_COMMAND "${outputs}")
  list(POP_FRONT command driver)

  math(EXPR run "${run} + 1")
  set(dir "${OUT_DIR}/${run}_${driver}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND "${BIN_DIR}/${driver}" ${command}
    WORKING_DIRECTORY "${dir}"
    RESULT_VARIABLE rc OUTPUT_FILE "${dir}/stdout.txt" ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${driver} ${command}: exit ${rc}\n${err}")
  endif()
  foreach(file IN LISTS outputs)
    list(APPEND listed "${file}")
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${dir}/bench_results/${file}" "${GOLDEN_DIR}/${file}"
      RESULT_VARIABLE differs)
    if(differs)
      list(APPEND failures "${driver}: ${file}")
    endif()
  endforeach()
endforeach()

file(GLOB committed RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*.csv")
foreach(file IN LISTS committed)
  if(NOT file MATCHES "^(e2e|micro)_" AND NOT file IN_LIST listed)
    list(APPEND failures "${file}: committed but not in ${MANIFEST}")
  endif()
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "golden outputs differ (runs under ${OUT_DIR}):\n  ${report}")
endif()
list(LENGTH listed count)
message(STATUS "${count} golden outputs match across ${run} driver runs")
