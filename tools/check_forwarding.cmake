# Packs a small graph with graph_pack and runs `socmix sybil` on the
# in-memory graph and on the pack: a pack is decoded when it is opened, so
# both must print the same admitted fractions.
#
# The retired knobs --sharded, --reorder, --precision, --io-mode and
# --frontier, and the retired --checkpoint-dir and --checkpoint-interval,
# must be refused by name, with exit status 1, by the figure
# drivers, socmix measure (on every input, a pack included), socmix sybil
# and fig8; --reorder's refusal names `graph_pack --reorder rcm`, where the
# ordering now lives. graph_pack refuses --sharded and --compress (every
# pack is compressed) by name and accepts only --reorder none|rcm.
# Conflicting inputs are refused naming both flags: two of --pack, --edges
# and --dataset, --nodes without --dataset, and graph_pack --verify with a
# write flag. socmix sybil must refuse a
# malformed --w list instead of skipping tokens. Negative counts, zero intervals,
# --verifiers 0, sample --size 0, a non-positive --scale, an --eps
# outside (0, 1) and a sampled measure of --steps 0 must fail closed,
# naming the flag and the value; so must graph_pack --nodes -10 and
# ablation_estimators --nodes -10, which must not wrap into a
# 4-billion-node build, a malformed --seed to ablation_estimators and the
# dataset_report, sampling_bias and sybil_tuning examples, a malformed or
# non-positive fig8 --suspects or --r0, and a malformed or non-positive
# ablation_null_model --swaps. socmix measure refuses --tvd-out with
# --sources 0 (there are no trajectories) before it loads the input, and
# fails on an unwritable --tvd-out path before it measures anything.
# Every socmix subcommand and graph_pack
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
set(pack "${OUT_DIR}/forwarding.smxg")
set(edges "${OUT_DIR}/forwarding_edges.txt")
file(REMOVE "${pack}" "${edges}")

execute_process(
  COMMAND "${GRAPH_PACK_BIN}" --dataset "Physics 1" --nodes 600 --seed 7 --out "${pack}"
  RESULT_VARIABLE rc
  ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "graph_pack failed (${rc}):\n${run_stderr}")
endif()
execute_process(
  COMMAND "${SOCMIX_BIN}" generate --dataset "Physics 1" --nodes 300 --out "${edges}"
  RESULT_VARIABLE rc
  ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "socmix generate failed (${rc}):\n${run_stderr}")
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
file(REMOVE "${OUT_DIR}/refused.smxg" "${OUT_DIR}/refused.txt" "${OUT_DIR}/refused.tvd")
# Every graph is swept as one resident CSR: --sharded is retired on every
# input, a pack included, and on graph_pack, which also refuses the
# retired --compress.
expect_refused("socmix measure --pack <pack> --sharded 4" "--sharded"
               "${SOCMIX_BIN}" measure --pack "${pack}" --sources 8 --steps 20
               --sharded 4)
expect_refused("graph_pack --sharded 4" "--sharded"
               "${GRAPH_PACK_BIN}" --dataset "Physics 1" --nodes 300 --sharded 4
               --out "${OUT_DIR}/refused.smxg")
expect_refused("graph_pack --compress" "--compress: retired"
               "${GRAPH_PACK_BIN}" --dataset "Physics 1" --nodes 300 --compress
               --out "${OUT_DIR}/refused.smxg")
foreach(knob "sharded;4" "precision;mixed" "io-mode;prefetch" "frontier;off"
             "checkpoint-dir;D" "checkpoint-interval;8")
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
foreach(bad "sources;-5" "steps;-1" "steps;0" "eps;-1" "eps;1" "sample-interval-ms;0")
  list(GET bad 0 flag)
  list(GET bad 1 value)
  expect_refused("socmix measure --${flag} ${value}" "--${flag}=${value}"
                 "${SOCMIX_BIN}" measure ${measure_input} --${flag} ${value})
endforeach()
# The missing --edges file would fail the load without naming --tvd-out;
# the abort armed at the first sampled block would exit 42 instead of 1.
expect_refused("socmix measure --sources 0 --tvd-out" "--tvd-out"
               "${SOCMIX_BIN}" measure --edges "${OUT_DIR}/no-such-graph.txt"
               --sources 0 --tvd-out "${OUT_DIR}/refused.tvd")
if(EXISTS "${OUT_DIR}/refused.tvd")
  message(FATAL_ERROR "a refused socmix measure wrote ${OUT_DIR}/refused.tvd")
endif()
expect_refused("socmix measure --tvd-out <unwritable>" "--tvd-out"
               "${SOCMIX_BIN}" measure ${measure_input}
               --tvd-out "${OUT_DIR}/no-such-dir/out.tvd"
               --fault-inject block.complete:1:abort)
foreach(bad "scale;0" "scale;-1" "scale;nan")
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
# a misspelt --reorder must not write a generator-order pack.
expect_refused("socmix measure --source 4 --step 5" "--source: unknown flag"
               "${SOCMIX_BIN}" measure --dataset "Physics 1" --source 4 --step 5)
expect_refused("graph_pack --reoder rcm" "--reoder: unknown flag"
               "${GRAPH_PACK_BIN}" --dataset "Physics 1" --nodes 300 --reoder rcm
               --out "${OUT_DIR}/refused.smxg")
# Conflicting inputs: the second input or a --nodes that sizes nothing
# would be dropped, so each is refused naming both flags.
expect_refused("socmix measure --pack --dataset" "--pack with --dataset"
               "${SOCMIX_BIN}" measure --pack "${pack}" ${measure_input})
expect_refused("socmix measure --edges --dataset" "--edges with --dataset"
               "${SOCMIX_BIN}" measure --edges "${edges}" ${measure_input})
expect_refused("socmix measure --pack --nodes" "--nodes with --pack"
               "${SOCMIX_BIN}" measure --pack "${pack}" --nodes 300 --sources 8 --steps 20)
expect_refused("socmix measure --edges --nodes" "--nodes with --edges"
               "${SOCMIX_BIN}" measure --edges "${edges}" --nodes 300 --sources 8
               --steps 20)
expect_refused("socmix sybil --pack --edges" "--pack with --edges"
               "${SOCMIX_BIN}" sybil --pack "${pack}" --edges "${edges}" --suspects 20
               --verifiers 1 --w 2)
expect_refused("socmix info --edges --dataset" "--edges with --dataset"
               "${SOCMIX_BIN}" info --edges "${edges}" --dataset "Physics 1")
expect_refused("graph_pack --edges --dataset" "--edges with --dataset"
               "${GRAPH_PACK_BIN}" --edges "${edges}" --dataset "Physics 1" --nodes 300
               --out "${OUT_DIR}/refused.smxg")
expect_refused("graph_pack --edges --nodes" "--nodes with --edges"
               "${GRAPH_PACK_BIN}" --edges "${edges}" --nodes 300
               --out "${OUT_DIR}/refused.smxg")
expect_refused("graph_pack --verify --out" "--verify with --out"
               "${GRAPH_PACK_BIN}" --verify "${pack}" --out "${OUT_DIR}/refused.smxg")
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
             "frontier;off" "checkpoint-dir;D" "checkpoint-interval;8")
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

# The admission sweep admits the same fractions on the in-memory graph and
# its pack (graph_pack stored the same LCC).
unset(in_memory_table)
foreach(input "--dataset;Physics 1;--nodes;600" "--pack;${pack}")
  execute_process(
    COMMAND "${SOCMIX_BIN}" sybil ${input} --seed 7 --suspects 40 --verifiers 2 --w 2,4,8
    WORKING_DIRECTORY "${OUT_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE table
    ERROR_VARIABLE run_stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "socmix sybil ${input} failed (${rc}):\n${run_stderr}")
  endif()
  if(NOT DEFINED in_memory_table)
    set(in_memory_table "${table}")
  elseif(NOT table STREQUAL in_memory_table)
    message(FATAL_ERROR "socmix sybil ${input} admitted other fractions than in memory:\n"
                        "${in_memory_table}\nvs\n${table}")
  endif()
endforeach()

message(STATUS "driver forwarding e2e: socmix sybil admitted the same fractions in memory "
               "and on the pack; retired knobs (--sharded, --compress and the "
               "checkpoint flags included), conflicting inputs, bad "
               "counts and numbers and unknown flags were refused")
