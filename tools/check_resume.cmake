# Proves the resilience contract at the process level, where in-process
# gtest death tests cannot reach: the measurement is genuinely killed
# (--fault-inject ...:abort exits via _Exit, no cleanup), restarted with
# the same --checkpoint-dir, and its --tvd-out trajectories must be
# byte-for-byte identical to an uninterrupted run — at 1 and 8 threads.
#
# Driven by the resume_cli_e2e ctest (see tools/CMakeLists.txt):
#   cmake -DSOCMIX_BIN=<socmix> -DOUT_DIR=<dir> -P check_resume.cmake
if(NOT DEFINED SOCMIX_BIN OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DSOCMIX_BIN=<socmix> -DOUT_DIR=<dir> -P check_resume.cmake")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# 256 sources = 8 blocks of 32; 5th block completion is killed, so the
# resumed run genuinely has both restored and recomputed blocks. The killed
# run uses one thread: the fault site sits before the block's record(), so
# with several workers the 5th completion can fire while the first
# snapshot is still being written, and the run dies with none on disk.
set(common_args measure --dataset "Physics 1" --nodes 600
    --sources 256 --steps 40 --seed 7)
set(fault_exit_code 42)

execute_process(
  COMMAND "${SOCMIX_BIN}" ${common_args} --tvd-out "${OUT_DIR}/baseline.tvd"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "baseline run failed (${rc}):\n${run_stderr}")
endif()

foreach(threads 1 8)
  set(ckpt_dir "${OUT_DIR}/ckpt-${threads}")

  set(ENV{SOCMIX_THREADS} 1)
  execute_process(
    COMMAND "${SOCMIX_BIN}" ${common_args}
            --checkpoint-dir "${ckpt_dir}" --checkpoint-interval 2
            --fault-inject block.complete:5:abort
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL ${fault_exit_code})
    message(FATAL_ERROR "fault injection did not kill the run at ${threads} "
                        "threads: exit ${rc}, expected ${fault_exit_code}")
  endif()
  file(GLOB snapshots "${ckpt_dir}/*.ckpt")
  if(snapshots STREQUAL "")
    message(FATAL_ERROR "killed run left no snapshot in ${ckpt_dir}")
  endif()

  set(ENV{SOCMIX_THREADS} "${threads}")
  execute_process(
    COMMAND "${SOCMIX_BIN}" ${common_args}
            --checkpoint-dir "${ckpt_dir}"
            --metrics-out "${ckpt_dir}/metrics.json"
            --tvd-out "${OUT_DIR}/resumed-${threads}.tvd"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE run_stderr)
  unset(ENV{SOCMIX_THREADS})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resumed run failed at ${threads} threads (${rc}):\n${run_stderr}")
  endif()

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/baseline.tvd" "${OUT_DIR}/resumed-${threads}.tvd"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "resumed trajectories differ from uninterrupted run "
                        "at ${threads} threads (resilience bit-identity broken)")
  endif()

  # The resumed run must actually have skipped restored blocks, not
  # recomputed everything.
  if(NOT EXISTS "${ckpt_dir}/metrics.json")
    message(FATAL_ERROR "resumed run wrote no ${ckpt_dir}/metrics.json")
  endif()
  file(READ "${ckpt_dir}/metrics.json" metrics)
  if(NOT metrics MATCHES "\"resilience.resume_blocks_skipped\":([1-9][0-9]*)")
    message(FATAL_ERROR "resumed run skipped no blocks; metrics:\n${metrics}")
  endif()
endforeach()

message(STATUS "resume CLI e2e: kill/resume bit-identity validated at 1 and 8 threads")
