# Regression test for nmcdr_cli run's flag validation: a flag the
# subcommand does not read, or a --scale other than smoke/small/full, must
# be rejected with exit code 2 before any training, so no checkpoint file
# is ever written. Unvalidated, each case would train and evaluate a
# configuration nobody asked for (a misspelt --scale used to fall back to
# the small preset).
#
# Invoked by the cli_bad_flags_test CTest (tools/CMakeLists.txt) with:
#   -DCLI_BIN=<path to nmcdr_cli>
#   -DWORK_DIR=<scratch directory for the checkpoint that must not appear>

if(NOT DEFINED CLI_BIN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI_BIN=... -DWORK_DIR=... -P check_cli_bad_flags.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(checkpoint "${WORK_DIR}/bad_flags.ckpt")

# Runs a valid smoke `run` command line with the extra flags in ARGN
# appended; requires exit 2, no checkpoint on disk and `want` on stderr.
function(expect_rejected want)
  file(REMOVE "${checkpoint}")
  execute_process(
    COMMAND "${CLI_BIN}" run --scenario music-movie --scale smoke
            --model NMCDR --steps 5 --save-checkpoint "${checkpoint}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "nmcdr_cli run ${ARGN}: want exit 2, got ${rc}\nstdout: ${stdout}\nstderr: ${stderr}")
  endif()
  if(EXISTS "${checkpoint}")
    message(FATAL_ERROR "nmcdr_cli run ${ARGN} wrote ${checkpoint} before rejecting its flags")
  endif()
  string(FIND "${stderr}" "${want}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "nmcdr_cli run ${ARGN}: stderr lacks '${want}': ${stderr}")
  endif()
endfunction()

expect_rejected("--backend: unknown flag" --backend parallel)
expect_rejected("--threads: unknown flag" --threads 4)
expect_rejected("--bogus-flag: unknown flag" --bogus-flag 7)
expect_rejected("--scale smok: unknown" --scale smok)

message(STATUS "cli_bad_flags_test passed: unknown flags and scales rejected before training")
