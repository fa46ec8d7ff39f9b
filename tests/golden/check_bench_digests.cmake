# Golden artifact pins: runs the driver at PBT_BENCH_SCALE=0.05 in a
# fresh directory and compares the SHA-256 of every BENCH_<name>.json
# it writes against tests/golden/bench_digests.txt, and the cells of
# Table 1, Table 2 and Fig. 6 against the readable rows of
# tests/golden/{table1,table2,fig6}_rows.txt.
#
#   cmake -DDRIVER=<driver> -DDIGESTS=<bench_digests.txt> \
#         -DTABLE1_ROWS=<table1_rows.txt> -DTABLE2_ROWS=<table2_rows.txt> \
#         -DFIG6_ROWS=<fig6_rows.txt> \
#         -DWORK_DIR=<work dir> -P check_bench_digests.cmake
#
# Fails when a pinned digest differs, a pinned artifact is missing, the
# driver writes an artifact the file does not pin, or a pinned table
# cell differs from its pinned row. On failure it names each changed
# cell and prints the digest lines of this run for a reviewed
# rebaseline.

cmake_minimum_required(VERSION 3.19) # string(JSON)

foreach(VAR DRIVER DIGESTS TABLE1_ROWS TABLE2_ROWS FIG6_ROWS WORK_DIR)
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "check_bench_digests: -D${VAR}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# The pins hold for a plain run: no store, trace or fault plan inherited
# from the caller's environment.
set(ENV{PBT_BENCH_SCALE} "0.05")
foreach(VAR PBT_CACHE_DIR PBT_TRACE PBT_FAULTS PBT_VERIFY_IR)
  unset(ENV{${VAR}})
endforeach()

execute_process(COMMAND "${DRIVER}"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE RC
                OUTPUT_QUIET ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "driver exited with ${RC}:\n${ERR}")
endif()

file(STRINGS "${DIGESTS}" LINES REGEX "^[0-9a-f]")
set(PINNED "")
set(FAILED FALSE)
foreach(LINE ${LINES})
  string(REGEX MATCH "^([0-9a-f]+)  (.+)$" _ "${LINE}")
  set(WANT "${CMAKE_MATCH_1}")
  set(NAME "${CMAKE_MATCH_2}")
  list(APPEND PINNED "${NAME}")
  if(NOT EXISTS "${WORK_DIR}/${NAME}")
    message(SEND_ERROR "missing artifact: ${NAME}")
    set(FAILED TRUE)
    continue()
  endif()
  file(SHA256 "${WORK_DIR}/${NAME}" GOT)
  if(NOT GOT STREQUAL WANT)
    message(SEND_ERROR "digest changed: ${NAME}\n  pinned ${WANT}\n  now    ${GOT}")
    set(FAILED TRUE)
  endif()
endforeach()

# Readable pins: each rows file holds the driver's printed table
# (header, rule, one row per line); each row's cells must equal the
# artifact's table row of the same index. Names each changed cell: the
# row's first cell, the column, the pinned and the new value.
function(check_rows LABEL ROWS_FILE ARTIFACT)
  file(STRINGS "${ROWS_FILE}" PINNED_ROWS REGEX "^[^#]")
  list(REMOVE_AT PINNED_ROWS 0 1) # Header and rule lines.
  set(ARTIFACT_PATH "${WORK_DIR}/${ARTIFACT}")
  if(NOT EXISTS "${ARTIFACT_PATH}")
    return() # Reported as a missing artifact by the digest check.
  endif()
  set(BAD FALSE)
  file(READ "${ARTIFACT_PATH}" JSON)
  string(JSON NUM_ROWS LENGTH "${JSON}" tables 0 rows)
  string(JSON NUM_COLS LENGTH "${JSON}" tables 0 columns)
  list(LENGTH PINNED_ROWS NUM_PINNED)
  if(NOT NUM_ROWS EQUAL NUM_PINNED)
    message(SEND_ERROR "${LABEL}: ${NUM_ROWS} rows, ${NUM_PINNED} pinned")
    set(BAD TRUE)
  endif()
  set(ROW 0)
  foreach(LINE ${PINNED_ROWS})
    if(NOT ROW LESS NUM_ROWS)
      break()
    endif()
    # Cells are space-free tokens separated by alignment padding.
    set(REST "${LINE}")
    set(COL 0)
    set(KEY "")
    while(NOT REST STREQUAL "" AND COL LESS NUM_COLS)
      string(REGEX MATCH "^([^ ]+) *(.*)$" _ "${REST}")
      set(WANT "${CMAKE_MATCH_1}")
      set(REST "${CMAKE_MATCH_2}")
      if(COL EQUAL 0)
        set(KEY "${WANT}")
      endif()
      string(JSON GOT GET "${JSON}" tables 0 rows ${ROW} ${COL})
      if(NOT GOT STREQUAL WANT)
        string(JSON COLUMN GET "${JSON}" tables 0 columns ${COL})
        message(SEND_ERROR "${LABEL} cell changed: ${KEY} / ${COLUMN}: "
                           "pinned ${WANT}, now ${GOT}")
        set(BAD TRUE)
      endif()
      math(EXPR COL "${COL} + 1")
    endwhile()
    if(NOT COL EQUAL NUM_COLS OR NOT REST STREQUAL "")
      message(SEND_ERROR "${LABEL}: pinned row '${LINE}' does not have the "
                         "artifact's ${NUM_COLS} cells")
      set(BAD TRUE)
    endif()
    math(EXPR ROW "${ROW} + 1")
  endforeach()
  if(BAD)
    set(FAILED TRUE PARENT_SCOPE)
  endif()
endfunction()

check_rows(table1 "${TABLE1_ROWS}" BENCH_table1_switches.json)
check_rows(table2 "${TABLE2_ROWS}" BENCH_table2_fairness.json)
check_rows(fig6 "${FIG6_ROWS}" BENCH_fig6_ipc_threshold.json)

file(GLOB WRITTEN RELATIVE "${WORK_DIR}" "${WORK_DIR}/BENCH_*.json")
list(REMOVE_ITEM WRITTEN "BENCH_driver.json")
list(SORT WRITTEN)
foreach(NAME ${WRITTEN})
  if(NOT NAME IN_LIST PINNED)
    message(SEND_ERROR "unpinned artifact: ${NAME}")
    set(FAILED TRUE)
  endif()
endforeach()

if(FAILED)
  set(NOW "")
  foreach(NAME ${WRITTEN})
    file(SHA256 "${WORK_DIR}/${NAME}" GOT)
    string(APPEND NOW "${GOT}  ${NAME}\n")
  endforeach()
  message("Digests of this run:\n${NOW}")
  message(FATAL_ERROR "BENCH artifacts differ from ${DIGESTS}")
endif()
list(LENGTH PINNED COUNT)
message(STATUS "bench_digests: ${COUNT} artifacts, Table 1, Table 2 and "
               "Fig. 6 match")
