# Runs `socmix measure` with --metrics-out/--trace-out and validates the
# emitted files: the metrics JSON must contain every pipeline key a measure
# run deterministically registers, and the trace must be a Chrome
# trace_event document with the pipeline's spans.
#
# Driven by the obs_cli_e2e ctest (see tools/CMakeLists.txt):
#   cmake -DSOCMIX_BIN=... -DOUT_DIR=... -P check_metrics.cmake
if(NOT DEFINED SOCMIX_BIN OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DSOCMIX_BIN=<socmix> -DOUT_DIR=<dir> -P check_metrics.cmake")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(metrics_file "${OUT_DIR}/metrics.json")
set(trace_file "${OUT_DIR}/trace.json")
set(sample_file "${OUT_DIR}/samples.jsonl")
set(bench_file "${OUT_DIR}/bench.json")

execute_process(
  COMMAND "${SOCMIX_BIN}" measure --dataset "Physics 1" --nodes 600
          --sources 32 --steps 40 --seed 7 --threads 2
          --metrics-out "${metrics_file}" --trace-out "${trace_file}" --progress
          --sample-out "${sample_file}" --sample-interval-ms 5
          --bench-out "${bench_file}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_stdout
  ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "socmix measure failed (${rc}):\n${run_stdout}\n${run_stderr}")
endif()

# --progress must have reported block completions on stderr.
if(NOT run_stderr MATCHES "\\[sampled-mixing\\]")
  message(FATAL_ERROR "--progress produced no progress line on stderr:\n${run_stderr}")
endif()

if(NOT EXISTS "${metrics_file}")
  message(FATAL_ERROR "--metrics-out wrote nothing to ${metrics_file}")
endif()
file(READ "${metrics_file}" metrics)
# Flushed snapshots lead with the provenance stamp.
if(NOT metrics MATCHES "^\\{\"provenance\":\\{\"timestamp\":\"")
  message(FATAL_ERROR "metrics JSON missing leading provenance stamp: ${metrics}")
endif()
foreach(prov_key "git" "build_type" "compiler" "simd_tier")
  if(NOT metrics MATCHES "\"${prov_key}\":\"")
    message(FATAL_ERROR "metrics JSON provenance is missing '${prov_key}'")
  endif()
endforeach()
# The host and the pool width the run used, as the BENCH provenance has.
if(NOT metrics MATCHES "\"nproc\":\"[1-9][0-9]*\"")
  message(FATAL_ERROR "metrics JSON provenance is missing 'nproc'")
endif()
if(NOT metrics MATCHES "\"threads\":\"2\"")
  message(FATAL_ERROR "metrics JSON provenance does not record --threads 2")
endif()
# Histogram snapshots carry interpolated quantiles.
if(NOT metrics MATCHES "\"p50\":" OR NOT metrics MATCHES "\"p95\":" OR NOT metrics MATCHES "\"p99\":")
  message(FATAL_ERROR "metrics JSON histograms are missing p50/p95/p99 quantiles")
endif()
foreach(key
    "core.measurements"
    "core.phase.spectral_seconds"
    "core.phase.sampled_seconds"
    "linalg.lanczos.solves"
    "linalg.spmv.applies"
    "markov.evolver.sweeps"
    "markov.evolver.rows_swept"
    "markov.sampled.runs"
    "markov.sampled.sources"
    "markov.sampled.oracle_violations"
    "util.pool.parallel_for_calls")
  if(NOT metrics MATCHES "\"${key}\":")
    message(FATAL_ERROR "metrics JSON is missing key '${key}'")
  endif()
endforeach()
# The sampled TVD must obey monotonicity and the spectral upper bound.
if(NOT metrics MATCHES "\"markov\\.sampled\\.oracle_violations\":0[,}]")
  message(FATAL_ERROR "markov.sampled.oracle_violations is not 0: the sampled TVD "
                      "contradicts the spectral bound or rises along a trajectory")
endif()

if(NOT EXISTS "${trace_file}")
  message(FATAL_ERROR "--trace-out wrote nothing to ${trace_file}")
endif()
file(READ "${trace_file}" trace)
if(NOT trace MATCHES "^\\{\"displayTimeUnit\":\"ms\",\"traceEvents\":\\[")
  message(FATAL_ERROR "trace JSON has unexpected shape")
endif()
foreach(span "measure_mixing" "phase.spectral" "phase.sampled" "evolve_block")
  if(NOT trace MATCHES "\"name\":\"${span}\"")
    message(FATAL_ERROR "trace JSON is missing span '${span}'")
  endif()
endforeach()

# --sample-out must have produced a JSONL time-series whose per-line
# counter totals are monotone and whose final totals match the final
# metrics snapshot (the sampler is stopped before the snapshot is taken).
if(NOT EXISTS "${sample_file}")
  message(FATAL_ERROR "--sample-out wrote nothing to ${sample_file}")
endif()
file(STRINGS "${sample_file}" sample_lines)
list(LENGTH sample_lines num_samples)
if(num_samples LESS 2)
  message(FATAL_ERROR "--sample-out produced only ${num_samples} sample(s); expected baseline + final at minimum")
endif()
set(prev_t -1)
set(prev_sweeps -1)
foreach(line IN LISTS sample_lines)
  if(NOT line MATCHES "^\\{\"t_ms\":([0-9]+),")
    message(FATAL_ERROR "sample line has unexpected shape: ${line}")
  endif()
  set(t "${CMAKE_MATCH_1}")
  if(t LESS prev_t)
    message(FATAL_ERROR "sample t_ms went backwards: ${prev_t} -> ${t}")
  endif()
  set(prev_t "${t}")
  if(line MATCHES "\"markov\\.evolver\\.sweeps\":\\{\"total\":([0-9]+),\"delta\":([0-9]+)\\}")
    set(sweeps "${CMAKE_MATCH_1}")
    if(sweeps LESS prev_sweeps)
      message(FATAL_ERROR "sampled counter total went backwards: ${prev_sweeps} -> ${sweeps}")
    endif()
    set(prev_sweeps "${sweeps}")
  endif()
endforeach()
if(prev_sweeps LESS 0)
  message(FATAL_ERROR "samples never reported markov.evolver.sweeps")
endif()
if(NOT metrics MATCHES "\"markov\\.evolver\\.sweeps\":([0-9]+)")
  message(FATAL_ERROR "metrics JSON is missing markov.evolver.sweeps value")
endif()
if(NOT prev_sweeps EQUAL CMAKE_MATCH_1)
  message(FATAL_ERROR "final sampled total (${prev_sweeps}) != final snapshot (${CMAKE_MATCH_1}) for markov.evolver.sweeps")
endif()

# --bench-out must have produced a schema-versioned BENCH artifact with the
# measurement's phase entries.
if(NOT EXISTS "${bench_file}")
  message(FATAL_ERROR "--bench-out wrote nothing to ${bench_file}")
endif()
file(READ "${bench_file}" bench)
if(NOT bench MATCHES "\"schema\":\"socmix-bench/1\"")
  message(FATAL_ERROR "bench JSON missing schema marker: ${bench}")
endif()
foreach(entry "spectral/" "sampled/")
  if(NOT bench MATCHES "\"name\":\"${entry}")
    message(FATAL_ERROR "bench JSON is missing a '${entry}*' phase entry")
  endif()
endforeach()
if(NOT bench MATCHES "\"median_s\":" OR NOT bench MATCHES "\"simd_tier\":")
  message(FATAL_ERROR "bench JSON is missing stats or provenance fields")
endif()

# A sybil sweep must report the admission engine's metrics — in particular
# the route hops its incremental tail extension saved over per-length
# rewalks, which is the engine's reason to exist and must stay > 0.
set(sybil_metrics_file "${OUT_DIR}/sybil_metrics.json")
execute_process(
  COMMAND "${SOCMIX_BIN}" sybil --dataset "Physics 1" --nodes 400
          --suspects 40 --w 2,4,8 --seed 7
          --metrics-out "${sybil_metrics_file}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_stdout
  ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "socmix sybil failed (${rc}):\n${run_stdout}\n${run_stderr}")
endif()
if(NOT EXISTS "${sybil_metrics_file}")
  message(FATAL_ERROR "--metrics-out wrote nothing to ${sybil_metrics_file}")
endif()
file(READ "${sybil_metrics_file}" sybil_metrics)
foreach(key
    "sybil.engine.hops_walked"
    "sybil.engine.hops_saved"
    "sybil.engine.verifier_cache_misses"
    "sybil.engine.queries")
  if(NOT sybil_metrics MATCHES "\"${key}\":")
    message(FATAL_ERROR "sybil metrics JSON is missing key '${key}'")
  endif()
endforeach()
if(NOT sybil_metrics MATCHES "\"sybil\\.engine\\.hops_saved\":([0-9]+)")
  message(FATAL_ERROR "sybil metrics JSON is missing sybil.engine.hops_saved value")
endif()
if(CMAKE_MATCH_1 LESS 1)
  message(FATAL_ERROR "sybil.engine.hops_saved is ${CMAKE_MATCH_1}; incremental tail extension saved nothing")
endif()

message(STATUS "obs CLI e2e: metrics + trace + sample + bench + sybil engine outputs validated")
