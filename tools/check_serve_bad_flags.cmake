# Regression test for nmcdr_serve's flag validation: a zero or negative
# --threads, --batch or --k, or a negative --requests, must be rejected
# with exit code 2 before any training, so no snapshot file is ever
# written. Unvalidated, each training case would train, save the snapshot
# and then abort: on a CHECK in the server or the score engine, or on
# reserving a negative request count. The --load-only case, given no
# snapshot, would exit 1 on the missing file instead of 2.
#
# Invoked by the serve_bad_flags_test CTest (tools/CMakeLists.txt) with:
#   -DSERVE_BIN=<path to nmcdr_serve>
#   -DWORK_DIR=<scratch directory for the snapshot that must not appear>

if(NOT DEFINED SERVE_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSERVE_BIN=... -DWORK_DIR=... -P check_serve_bad_flags.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(snapshot "${WORK_DIR}/bad_flags.snapshot")

foreach(case IN ITEMS "--threads;0" "--threads;-3" "--batch;0;--shards;2"
                      "--k;0" "--load-only;--k;0" "--requests;-1")
  file(REMOVE "${snapshot}")
  execute_process(
    COMMAND "${SERVE_BIN}" --scale smoke --steps 20 --requests 8
            --snapshot "${snapshot}" ${case}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "nmcdr_serve ${case}: want exit 2, got ${rc}\nstdout: ${stdout}\nstderr: ${stderr}")
  endif()
  if(EXISTS "${snapshot}")
    message(FATAL_ERROR "nmcdr_serve ${case} wrote ${snapshot} before rejecting its flags")
  endif()
  if(NOT stderr MATCHES "must be at least")
    message(FATAL_ERROR "nmcdr_serve ${case}: no validation message on stderr: ${stderr}")
  endif()
endforeach()

message(STATUS "serve_bad_flags_test passed: out-of-range --threads/--batch/--k/--requests rejected before training")
