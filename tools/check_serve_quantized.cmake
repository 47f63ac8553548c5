# End-to-end smoke run of nmcdr_serve's default serving path (a 1-shard
# cluster) in quantized mode: train, freeze, round-trip the snapshot and
# its int8 .quant artifact through disk, then serve more interactive
# requests than the admission queue holds by default. Requires exit 0,
# every request served (the tool sizes its class queues to the burst it
# submits) and the .quant artifact on disk.
#
# Invoked by the serve_quantized_smoke CTest (tools/CMakeLists.txt) with:
#   -DSERVE_BIN=<path to nmcdr_serve>
#   -DWORK_DIR=<scratch directory for the snapshot and its artifact>

if(NOT DEFINED SERVE_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSERVE_BIN=... -DWORK_DIR=... -P check_serve_quantized.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(snapshot "${WORK_DIR}/quantized.snapshot")
file(REMOVE "${snapshot}" "${snapshot}.quant")

# 1600 requests: 1200 interactive, above the default capacity of 1024.
execute_process(
  COMMAND "${SERVE_BIN}" --scale smoke --steps 60 --requests 1600
          --mode quantized --snapshot "${snapshot}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nmcdr_serve --mode quantized: want exit 0, got ${rc}\nstdout: ${stdout}\nstderr: ${stderr}")
endif()
string(FIND "${stdout}" "served 1600/1600" found)
if(found EQUAL -1)
  message(FATAL_ERROR "nmcdr_serve --mode quantized did not serve every request:\n${stdout}")
endif()
if(NOT EXISTS "${snapshot}.quant")
  message(FATAL_ERROR "nmcdr_serve --mode quantized wrote no ${snapshot}.quant")
endif()

message(STATUS "serve_quantized_smoke passed: 1600/1600 served, ${snapshot}.quant written")
