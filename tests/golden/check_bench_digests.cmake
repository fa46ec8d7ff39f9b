# Golden artifact pins: runs the driver at PBT_BENCH_SCALE=0.05 in a
# fresh directory and compares the SHA-256 of every BENCH_<name>.json
# it writes against tests/golden/bench_digests.txt, and Table 2's cells
# against the readable rows of tests/golden/table2_rows.txt.
#
#   cmake -DDRIVER=<driver> -DDIGESTS=<bench_digests.txt> \
#         -DTABLE2_ROWS=<table2_rows.txt> \
#         -DWORK_DIR=<work dir> -P check_bench_digests.cmake
#
# Fails when a pinned digest differs, a pinned artifact is missing, the
# driver writes an artifact the file does not pin, or a Table 2 cell
# differs from its pinned row. On failure it names each changed Table 2
# cell and prints the digest lines of this run for a reviewed
# rebaseline.

cmake_minimum_required(VERSION 3.19) # string(JSON)

foreach(VAR DRIVER DIGESTS TABLE2_ROWS WORK_DIR)
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

# Table 2 in readable form: the pinned file holds the driver's printed
# table (header, rule, one row per technique); each row's cells must
# equal the artifact's table row of the same index.
file(STRINGS "${TABLE2_ROWS}" PINNED_ROWS REGEX "^[^#]")
list(REMOVE_AT PINNED_ROWS 0 1) # Header and rule lines.
set(TABLE2 "${WORK_DIR}/BENCH_table2_fairness.json")
if(EXISTS "${TABLE2}")
  file(READ "${TABLE2}" TABLE2_JSON)
  string(JSON NUM_ROWS LENGTH "${TABLE2_JSON}" tables 0 rows)
  string(JSON NUM_COLS LENGTH "${TABLE2_JSON}" tables 0 columns)
  list(LENGTH PINNED_ROWS NUM_PINNED)
  if(NOT NUM_ROWS EQUAL NUM_PINNED)
    message(SEND_ERROR "table2: ${NUM_ROWS} rows, ${NUM_PINNED} pinned")
    set(FAILED TRUE)
  endif()
  set(ROW 0)
  foreach(LINE ${PINNED_ROWS})
    if(NOT ROW LESS NUM_ROWS)
      break()
    endif()
    # Cells are space-free tokens separated by alignment padding.
    set(REST "${LINE}")
    set(COL 0)
    set(TECHNIQUE "")
    while(NOT REST STREQUAL "" AND COL LESS NUM_COLS)
      string(REGEX MATCH "^([^ ]+) *(.*)$" _ "${REST}")
      set(WANT "${CMAKE_MATCH_1}")
      set(REST "${CMAKE_MATCH_2}")
      if(COL EQUAL 0)
        set(TECHNIQUE "${WANT}")
      endif()
      string(JSON GOT GET "${TABLE2_JSON}" tables 0 rows ${ROW} ${COL})
      if(NOT GOT STREQUAL WANT)
        string(JSON COLUMN GET "${TABLE2_JSON}" tables 0 columns ${COL})
        message(SEND_ERROR "table2 cell changed: ${TECHNIQUE} / ${COLUMN}: "
                           "pinned ${WANT}, now ${GOT}")
        set(FAILED TRUE)
      endif()
      math(EXPR COL "${COL} + 1")
    endwhile()
    if(NOT COL EQUAL NUM_COLS OR NOT REST STREQUAL "")
      message(SEND_ERROR "table2: pinned row '${LINE}' does not have the "
                         "artifact's ${NUM_COLS} cells")
      set(FAILED TRUE)
    endif()
    math(EXPR ROW "${ROW} + 1")
  endforeach()
endif()

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
message(STATUS "bench_digests: ${COUNT} artifacts and Table 2 match")
