# Runs a figure driver with non-default execution knobs and checks that
# the measurement actually ran under them: the metrics snapshot must show
# the sharded evolver at the requested shard count, not the dense default
# the BENCH flags would otherwise misreport.
#
# The random-route drivers (socmix sybil and fig8) have no evolver: they
# must refuse --reorder, --sharded, --precision and --io-mode by name
# instead of parsing and ignoring them, and socmix sybil must refuse a
# malformed --w list instead of skipping tokens.
#
# Driven by the driver_forwarding_e2e ctest (see tools/CMakeLists.txt):
#   cmake -DFIG5_BIN=... -DFIG8_BIN=... -DSOCMIX_BIN=... -DOUT_DIR=... -P check_forwarding.cmake
if(NOT DEFINED FIG5_BIN OR NOT DEFINED FIG8_BIN OR NOT DEFINED SOCMIX_BIN
   OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DFIG5_BIN=<fig5_bound_vs_sampled> -DFIG8_BIN=<fig8_sybillimit_admission> -DSOCMIX_BIN=<socmix> -DOUT_DIR=<dir> -P check_forwarding.cmake")
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

# Runs one command that must exit nonzero with `needle` on stderr.
function(expect_refused label needle)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${OUT_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE run_stdout
    ERROR_VARIABLE run_stderr)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${label} was accepted (exit 0):\n${run_stdout}")
  endif()
  string(FIND "${run_stderr}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${label} failed without naming '${needle}' (${rc}):\n${run_stderr}")
  endif()
endfunction()

set(sybil_input --dataset "Physics 1" --nodes 300 --suspects 20 --verifiers 1)
foreach(knob "reorder;rcm" "sharded;4" "precision;mixed" "io-mode;prefetch")
  list(GET knob 0 flag)
  list(GET knob 1 value)
  expect_refused("socmix sybil --${flag} ${value}" "--${flag}"
                 "${SOCMIX_BIN}" sybil ${sybil_input} --w 2 --${flag} ${value})
  expect_refused("fig8 --${flag} ${value}" "--${flag}"
                 "${FIG8_BIN}" --scale 0.05 --suspects 10 --${flag} ${value})
endforeach()
expect_refused("socmix sybil --w 2,x,8" "--w: 'x'"
               "${SOCMIX_BIN}" sybil ${sybil_input} --w 2,x,8)
expect_refused("socmix sybil --w x" "--w: 'x'"
               "${SOCMIX_BIN}" sybil ${sybil_input} --w x)

# The one knob they do take still runs.
execute_process(
  COMMAND "${SOCMIX_BIN}" sybil ${sybil_input} --w 2,4 --frontier off
  WORKING_DIRECTORY "${OUT_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_stdout
  ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "socmix sybil --frontier off failed (${rc}):\n${run_stderr}")
endif()

message(STATUS "driver forwarding e2e: fig5 ran with the requested shard geometry; "
               "sybil and fig8 refused the knobs they cannot use")
