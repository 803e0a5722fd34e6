# Runs a figure driver with non-default execution knobs and checks that
# the measurement actually ran under them: the metrics snapshot must show
# the sharded evolver at the requested shard count, not the dense default
# the BENCH flags would otherwise misreport.
#
# Driven by the driver_forwarding_e2e ctest (see tools/CMakeLists.txt):
#   cmake -DFIG5_BIN=... -DOUT_DIR=... -P check_forwarding.cmake
if(NOT DEFINED FIG5_BIN OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DFIG5_BIN=<fig5_bound_vs_sampled> -DOUT_DIR=<dir> -P check_forwarding.cmake")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(metrics_file "${OUT_DIR}/fig5_metrics.json")
file(REMOVE "${metrics_file}")

# The driver writes its CSVs under bench_results/ relative to the cwd.
execute_process(
  COMMAND "${FIG5_BIN}" --scale 0.1 --sources 8 --steps 20
          --sharded 4 --io-mode prefetch --metrics-out "${metrics_file}"
  WORKING_DIRECTORY "${OUT_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_stdout
  ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fig5_bound_vs_sampled failed (${rc}):\n${run_stdout}\n${run_stderr}")
endif()
if(NOT EXISTS "${metrics_file}")
  message(FATAL_ERROR "--metrics-out wrote nothing to ${metrics_file}")
endif()
file(READ "${metrics_file}" metrics)

foreach(key "markov.sampled.shards" "markov.shard.count")
  if(NOT metrics MATCHES "\"${key}\":4[,}]")
    message(FATAL_ERROR "--sharded 4 did not reach the measurement: '${key}' is not 4")
  endif()
endforeach()
if(NOT metrics MATCHES "\"markov\\.shard\\.shards_swept\":([0-9]+)" OR CMAKE_MATCH_1 LESS 1)
  message(FATAL_ERROR "the sharded evolver swept no shards")
endif()

# The same flags must also reach the BENCH provenance of the run.
file(GLOB bench_files "${OUT_DIR}/bench_results/BENCH_*.json")
foreach(bench_file IN LISTS bench_files)
  file(READ "${bench_file}" bench)
  if(NOT bench MATCHES "\"sharded\":\"4\"" OR NOT bench MATCHES "\"io-mode\":\"prefetch\"")
    message(FATAL_ERROR "${bench_file} does not record --sharded 4 --io-mode prefetch")
  endif()
endforeach()

message(STATUS "driver forwarding e2e: fig5 ran with the requested shard geometry")
