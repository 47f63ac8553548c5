# Regression test for nmcdr_serve's flag validation: a flag the tool does
# not read, a --scale other than smoke/small/full, a zero or negative
# --threads, --batch, --k or --shards, or a negative --requests must be
# rejected with exit code 2 before any training, so no snapshot file is
# ever written. Unvalidated, an unknown flag or scale would train a
# configuration nobody asked for, and each out-of-range value would train,
# save the snapshot and then abort: on a CHECK in the server or the score
# engine, or on reserving a negative request count. The --load-only case,
# given no snapshot, would exit 1 on the missing file instead of 2.
#
# Invoked by the serve_bad_flags_test CTest (tools/CMakeLists.txt) with:
#   -DSERVE_BIN=<path to nmcdr_serve>
#   -DWORK_DIR=<scratch directory for the snapshot that must not appear>

if(NOT DEFINED SERVE_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSERVE_BIN=... -DWORK_DIR=... -P check_serve_bad_flags.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(snapshot "${WORK_DIR}/bad_flags.snapshot")

# Runs a valid smoke command line with the extra flags in ARGN appended;
# requires exit 2, no snapshot on disk and `want` on stderr.
function(expect_rejected want)
  file(REMOVE "${snapshot}")
  execute_process(
    COMMAND "${SERVE_BIN}" --scale smoke --steps 20 --requests 8
            --snapshot "${snapshot}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "nmcdr_serve ${ARGN}: want exit 2, got ${rc}\nstdout: ${stdout}\nstderr: ${stderr}")
  endif()
  if(EXISTS "${snapshot}")
    message(FATAL_ERROR "nmcdr_serve ${ARGN} wrote ${snapshot} before rejecting its flags")
  endif()
  string(FIND "${stderr}" "${want}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "nmcdr_serve ${ARGN}: stderr lacks '${want}': ${stderr}")
  endif()
endfunction()

expect_rejected("--threads 0: must be at least 1" --threads 0)
expect_rejected("--threads -3: must be at least 1" --threads -3)
expect_rejected("--batch 0: must be at least 1" --batch 0 --shards 2)
expect_rejected("--k 0: must be at least 1" --k 0)
expect_rejected("--k 0: must be at least 1" --load-only --k 0)
expect_rejected("--requests -1: must be at least 0" --requests -1)
expect_rejected("--shards 0: must be at least 1" --shards 0)
expect_rejected("--backend: unknown flag" --backend serial)
expect_rejected("--bogus-flag: unknown flag" --bogus-flag 7)
expect_rejected("--scale smok: unknown" --scale smok)

message(STATUS "serve_bad_flags_test passed: unknown flags and scales, out-of-range --threads/--batch/--k/--shards/--requests rejected before training")
