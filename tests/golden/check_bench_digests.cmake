# Golden artifact pins: runs the driver at PBT_BENCH_SCALE=0.05 in a
# fresh directory and compares the SHA-256 of every BENCH_<name>.json
# it writes against tests/golden/bench_digests.txt.
#
#   cmake -DDRIVER=<driver> -DDIGESTS=<bench_digests.txt> \
#         -DWORK_DIR=<work dir> -P check_bench_digests.cmake
#
# Fails when a pinned digest differs, a pinned artifact is missing, or
# the driver writes an artifact the file does not pin. On failure it
# prints the digest lines of this run for a reviewed rebaseline.

cmake_minimum_required(VERSION 3.16)

foreach(VAR DRIVER DIGESTS WORK_DIR)
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "check_bench_digests: -D${VAR}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# The pins hold for a plain run: no store, trace, fault plan or legacy
# scale alias inherited from the caller's environment.
set(ENV{PBT_BENCH_SCALE} "0.05")
foreach(VAR PBT_SCALE PBT_CACHE_DIR PBT_TRACE PBT_FAULTS PBT_VERIFY_IR)
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
message(STATUS "bench_digests: ${COUNT} artifacts match")
