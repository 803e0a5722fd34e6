# Runs `socmix measure --pack <compressed> --sharded 4` and checks that
# the measurement actually ran under that shard count: the metrics
# snapshot must show the sharded evolver at 4 shards, and the BENCH
# provenance must record the flag. Only a compressed pack sweeps in
# shards: --sharded on a figure driver, on an in-memory socmix measure or
# on a raw pack is refused by name.
#
# The retired knobs --reorder, --precision, --io-mode and --frontier must
# be refused by name, with exit status 1, by the figure drivers and socmix
# measure; --reorder's refusal names `graph_pack --reorder rcm`, where the
# ordering now lives. graph_pack itself accepts only --reorder none|rcm.
# The random-route drivers (socmix sybil and fig8) take no execution knobs:
# they must refuse --sharded and the retired knobs by name instead of
# parsing and ignoring them, and socmix sybil must refuse a malformed --w
# list instead of skipping tokens. Negative counts, zero intervals,
# --verifiers 0, sample --size 0, a non-positive --scale, an --eps
# outside (0, 1) and a sampled measure of --steps 0 must fail closed,
# naming the flag and the value; so must graph_pack --nodes -10 and
# ablation_estimators --nodes -10, which must not wrap into a
# 4-billion-node build, a malformed --seed to ablation_estimators and the
# dataset_report, sampling_bias and sybil_tuning examples, a malformed or
# non-positive fig8 --suspects or --r0, and a malformed or non-positive
# ablation_null_model --swaps. Every socmix subcommand and graph_pack
# refuse an unknown (e.g. misspelt) flag by name instead of running with
# defaults, and socmix refuses the retired `convert` command by name.
#
# Driven by the driver_forwarding_e2e ctest (see tools/CMakeLists.txt):
#   cmake -DFIG5_BIN=... -DFIG8_BIN=... -DSOCMIX_BIN=... -DGRAPH_PACK_BIN=...
#         -DESTIMATORS_BIN=... -DNULL_MODEL_BIN=... -DDATASET_REPORT_BIN=...
#         -DSAMPLING_BIAS_BIN=... -DSYBIL_TUNING_BIN=... -DOUT_DIR=...
#         -P check_forwarding.cmake
foreach(var FIG5_BIN FIG8_BIN SOCMIX_BIN GRAPH_PACK_BIN ESTIMATORS_BIN NULL_MODEL_BIN
            DATASET_REPORT_BIN SAMPLING_BIAS_BIN SYBIL_TUNING_BIN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_forwarding.cmake: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(adjc_pack "${OUT_DIR}/forwarding_adjc.smxg")
set(raw_pack "${OUT_DIR}/forwarding_raw.smxg")
set(metrics_file "${OUT_DIR}/measure_metrics.json")
set(bench_file "${OUT_DIR}/measure_bench.json")
file(REMOVE "${adjc_pack}" "${raw_pack}" "${metrics_file}" "${bench_file}")

foreach(encoding "adjc" "raw")
  set(compress_flag "")
  if(encoding STREQUAL "adjc")
    set(compress_flag --compress)
  endif()
  execute_process(
    COMMAND "${GRAPH_PACK_BIN}" --dataset "Physics 1" --nodes 600 --seed 7
            --out "${OUT_DIR}/forwarding_${encoding}.smxg" ${compress_flag}
    RESULT_VARIABLE rc
    ERROR_VARIABLE run_stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "graph_pack (${encoding}) failed (${rc}):\n${run_stderr}")
  endif()
endforeach()

execute_process(
  COMMAND "${SOCMIX_BIN}" measure --pack "${adjc_pack}" --sources 8 --steps 20
          --spectral off --sharded 4 --metrics-out "${metrics_file}"
          --bench-out "${bench_file}"
  WORKING_DIRECTORY "${OUT_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_stdout
  ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "socmix measure --pack <compressed> --sharded 4 failed (${rc}):\n"
                      "${run_stdout}\n${run_stderr}")
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

# The same flag must also reach the BENCH provenance of the run.
if(NOT EXISTS "${bench_file}")
  message(FATAL_ERROR "--bench-out wrote nothing to ${bench_file}")
endif()
file(READ "${bench_file}" bench)
if(NOT bench MATCHES "\"sharded\":\"4\"")
  message(FATAL_ERROR "${bench_file} does not record --sharded 4")
endif()

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
file(REMOVE "${OUT_DIR}/refused.smxg" "${OUT_DIR}/refused.txt")
# Only a compressed pack sweeps in shards: in-memory graphs (every figure
# driver, socmix measure --dataset) and raw packs sweep as one.
expect_refused("fig5 --sharded 4" "--sharded"
               "${FIG5_BIN}" --scale 0.1 --sources 8 --steps 20 --sharded 4)
expect_refused("socmix measure --dataset --sharded 4" "--sharded"
               "${SOCMIX_BIN}" measure ${measure_input} --sharded 4)
expect_refused("socmix measure --pack <raw> --sharded off" "--sharded"
               "${SOCMIX_BIN}" measure --pack "${raw_pack}" --sources 8 --steps 20
               --sharded off)
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
expect_refused("ablation_estimators --nodes -10" "--nodes=-10"
               "${ESTIMATORS_BIN}" --nodes -10)
# Malformed numbers read outside the drivers' shared parsing exit 1 by
# name instead of escaping main as an uncaught exception.
foreach(bin "${ESTIMATORS_BIN}" "${DATASET_REPORT_BIN}" "${SAMPLING_BIAS_BIN}"
            "${SYBIL_TUNING_BIN}")
  get_filename_component(name "${bin}" NAME)
  expect_refused("${name} --seed abc" "--seed=abc" "${bin}" --seed abc)
endforeach()
foreach(bad "suspects;abc" "suspects;-3" "suspects;0" "r0;-3" "r0;0" "r0;abc" "r0;inf")
  list(GET bad 0 flag)
  list(GET bad 1 value)
  expect_refused("fig8 --${flag} ${value}" "--${flag}=${value}"
                 "${FIG8_BIN}" --scale 0.05 --${flag} ${value})
endforeach()
foreach(value "abc" "-1" "0" "nan")
  expect_refused("ablation_null_model --swaps ${value}" "--swaps=${value}"
                 "${NULL_MODEL_BIN}" --scale 0.05 --swaps ${value})
endforeach()
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
foreach(command "info" "measure" "sample" "trim" "sybil" "generate")
  expect_refused("socmix ${command} --bogus-flag" "--bogus-flag: unknown flag"
                 "${SOCMIX_BIN}" ${command} --dataset "Physics 1" --nodes 300
                 --bogus-flag 1)
endforeach()
# The retired directed-to-undirected converter: --edges symmetrizes.
expect_refused("socmix convert" "every --edges input is symmetrized on load"
               "${SOCMIX_BIN}" convert --arcs "${OUT_DIR}/arcs.txt"
               --out "${OUT_DIR}/refused.txt")
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
expect_refused("socmix sample --size 0" "--size=0"
               "${SOCMIX_BIN}" sample --dataset "Physics 1" --nodes 300 --size 0
               --out "${OUT_DIR}/refused.txt")
if(EXISTS "${OUT_DIR}/refused.txt")
  message(FATAL_ERROR "a refused socmix run wrote ${OUT_DIR}/refused.txt")
endif()
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

message(STATUS "driver forwarding e2e: a compressed pack ran with the requested shard "
               "geometry; --sharded elsewhere, retired knobs, bad counts and numbers, "
               "unknown flags and the knobs sybil and fig8 cannot use were refused")
