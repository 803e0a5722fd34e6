# Runs a figure driver with non-default execution knobs and checks that
# the measurement actually ran under them: the metrics snapshot must show
# the sharded evolver at the requested shard count, not the dense default
# the BENCH flags would otherwise misreport.
#
# The retired knobs --reorder, --precision, --io-mode and --frontier must
# be refused by name, with exit status 1, by the figure drivers and socmix
# measure; --reorder's refusal names `graph_pack --reorder rcm`, where the
# ordering now lives. graph_pack itself accepts only --reorder none|rcm.
# The random-route drivers (socmix sybil and fig8) take no execution knobs:
# they must refuse --sharded and the retired knobs by name instead of
# parsing and ignoring them, and socmix sybil must refuse a malformed --w
# list instead of skipping tokens. Negative counts, zero intervals,
# --verifiers 0, a non-positive --scale, an --eps outside (0, 1) and a
# sampled measure of --steps 0 must fail closed, naming the flag and the
# value; so must graph_pack --nodes -10, which must not wrap into a
# 4-billion-node build. Every socmix subcommand and graph_pack refuse an
# unknown (e.g. misspelt) flag by name instead of running with defaults.
#
# Driven by the driver_forwarding_e2e ctest (see tools/CMakeLists.txt):
#   cmake -DFIG5_BIN=... -DFIG8_BIN=... -DSOCMIX_BIN=... -DGRAPH_PACK_BIN=...
#         -DOUT_DIR=... -P check_forwarding.cmake
if(NOT DEFINED FIG5_BIN OR NOT DEFINED FIG8_BIN OR NOT DEFINED SOCMIX_BIN
   OR NOT DEFINED GRAPH_PACK_BIN OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DFIG5_BIN=<fig5_bound_vs_sampled> -DFIG8_BIN=<fig8_sybillimit_admission> -DSOCMIX_BIN=<socmix> -DGRAPH_PACK_BIN=<graph_pack> -DOUT_DIR=<dir> -P check_forwarding.cmake")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(metrics_file "${OUT_DIR}/fig5_metrics.json")
file(REMOVE "${metrics_file}")

# The driver writes its CSVs under bench_results/ relative to the cwd.
execute_process(
  COMMAND "${FIG5_BIN}" --scale 0.1 --sources 8 --steps 20
          --sharded 4 --metrics-out "${metrics_file}"
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
  if(NOT bench MATCHES "\"sharded\":\"4\"")
    message(FATAL_ERROR "${bench_file} does not record --sharded 4")
  endif()
endforeach()

# Runs one command that must exit 1 with `needle` on stderr. A refusal
# happens before any work, so a run still going after 60 s has failed.
function(expect_refused label needle)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${OUT_DIR}"
    TIMEOUT 60
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE run_stdout
    ERROR_VARIABLE run_stderr)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${label} was accepted (exit 0):\n${run_stdout}")
  endif()
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${label} did not exit 1 (${rc}):\n${run_stderr}")
  endif()
  string(FIND "${run_stderr}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${label} failed without naming '${needle}' (${rc}):\n${run_stderr}")
  endif()
endfunction()

set(measure_input --dataset "Physics 1" --nodes 300 --sources 8 --steps 20)
file(REMOVE "${OUT_DIR}/refused.smxg")
foreach(knob "precision;mixed" "io-mode;prefetch" "frontier;off")
  list(GET knob 0 flag)
  list(GET knob 1 value)
  expect_refused("fig5 --${flag} ${value}" "--${flag}"
                 "${FIG5_BIN}" --scale 0.1 --sources 8 --steps 20 --${flag} ${value})
  expect_refused("socmix measure --${flag} ${value}" "--${flag}"
                 "${SOCMIX_BIN}" measure ${measure_input} --${flag} ${value})
endforeach()
expect_refused("fig5 --reorder rcm" "graph_pack --reorder rcm"
               "${FIG5_BIN}" --scale 0.1 --sources 8 --steps 20 --reorder rcm)
expect_refused("socmix measure --reorder rcm" "graph_pack --reorder rcm"
               "${SOCMIX_BIN}" measure ${measure_input} --reorder rcm)
foreach(bad "sources;-5" "steps;-1" "steps;0" "eps;-1" "eps;1" "checkpoint-interval;0"
            "sample-interval-ms;0")
  list(GET bad 0 flag)
  list(GET bad 1 value)
  expect_refused("socmix measure --${flag} ${value}" "--${flag}=${value}"
                 "${SOCMIX_BIN}" measure ${measure_input} --${flag} ${value})
endforeach()
foreach(bad "scale;0" "scale;-1" "scale;nan" "checkpoint-interval;-2")
  list(GET bad 0 flag)
  list(GET bad 1 value)
  expect_refused("fig5 --${flag} ${value}" "--${flag}=${value}"
                 "${FIG5_BIN}" --sources 8 --steps 20 --${flag} ${value})
endforeach()
expect_refused("graph_pack --nodes -10" "--nodes=-10"
               "${GRAPH_PACK_BIN}" --dataset "Physics 1" --nodes -10
               --out "${OUT_DIR}/refused.smxg")
expect_refused("socmix measure --nodes -10" "--nodes=-10"
               "${SOCMIX_BIN}" measure --dataset "Physics 1" --nodes -10 --sources 8)
foreach(mode "degree" "bfs")
  expect_refused("graph_pack --reorder ${mode}" "--reorder=${mode}"
                 "${GRAPH_PACK_BIN}" --dataset "Physics 1" --nodes 300 --reorder ${mode}
                 --out "${OUT_DIR}/refused.smxg")
endforeach()

# Unknown flags: a misspelt --sources/--steps must not run 200 x 400, and
# a misspelt --compress must not write an uncompressed pack.
expect_refused("socmix measure --source 4 --step 5" "--source: unknown flag"
               "${SOCMIX_BIN}" measure --dataset "Physics 1" --source 4 --step 5)
expect_refused("graph_pack --compres" "--compres: unknown flag"
               "${GRAPH_PACK_BIN}" --dataset "Physics 1" --nodes 300 --compres
               --out "${OUT_DIR}/refused.smxg")
foreach(command "info" "measure" "sample" "trim" "convert" "sybil" "generate")
  expect_refused("socmix ${command} --bogus-flag" "--bogus-flag: unknown flag"
                 "${SOCMIX_BIN}" ${command} --dataset "Physics 1" --nodes 300
                 --bogus-flag 1)
endforeach()
if(EXISTS "${OUT_DIR}/refused.smxg")
  message(FATAL_ERROR "a refused graph_pack run wrote ${OUT_DIR}/refused.smxg")
endif()

set(sybil_input --dataset "Physics 1" --nodes 300 --suspects 20 --verifiers 1)
expect_refused("socmix sybil --suspects -3" "--suspects=-3"
               "${SOCMIX_BIN}" sybil --dataset "Physics 1" --nodes 300 --suspects -3
               --verifiers 1 --w 2)
expect_refused("socmix sybil --verifiers 0" "--verifiers=0"
               "${SOCMIX_BIN}" sybil --dataset "Physics 1" --nodes 300 --suspects 20
               --verifiers 0 --w 2)
foreach(knob "reorder;rcm" "sharded;4" "precision;mixed" "io-mode;prefetch"
             "frontier;off")
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

# Without knobs the admission sweep still runs.
execute_process(
  COMMAND "${SOCMIX_BIN}" sybil ${sybil_input} --w 2,4
  WORKING_DIRECTORY "${OUT_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_stdout
  ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "socmix sybil --w 2,4 failed (${rc}):\n${run_stderr}")
endif()

message(STATUS "driver forwarding e2e: fig5 ran with the requested shard geometry; "
               "retired knobs, bad counts, unknown flags and the knobs sybil and "
               "fig8 cannot use were refused")
