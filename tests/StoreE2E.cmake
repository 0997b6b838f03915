# End-to-end check of the persistent optimization service over the real
# binaries (invoked by ctest as the `store_e2e` test):
#
#   1. fleet_scale --fast --store SA (jobs 1) and --store SB (jobs 8):
#      the cold night's store.json must be byte-identical — store bytes
#      are part of the §9 determinism contract
#   2. ropt-report store SA -> loads, validates the canonical fixed
#      point, renders the class roster and per-app boards (exit 0)
#   3. a second run against SA (the warm night): its report carries the
#      warm_start section with entries actually loaded, the
#      night counter advances, and the warm store stays canonical
#   4. the warm night is itself jobs-invariant (SA jobs 1 == SC jobs 8,
#      fed the same cold store)
#   5. --store (and --report) under a missing parent directory exit 2
#      with the usage line — a typo'd path fails fast, not after a run
#   6. ropt-report store on a missing directory exits 2
#
# Inputs: -DFLEET_SCALE=..., -DROPT_REPORT=..., -DWORK_DIR=...

foreach(Var FLEET_SCALE ROPT_REPORT WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "missing -D${Var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(StoreA "${WORK_DIR}/storeA")
set(StoreB "${WORK_DIR}/storeB")
set(StoreC "${WORK_DIR}/storeC")

# --- 1. Cold night, two --jobs values, byte-identical stores ----------------

execute_process(
  COMMAND ${FLEET_SCALE} --fast --seed 1 --devices 6 --store ${StoreA}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE ColdOut ERROR_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "fleet_scale --store ${StoreA} failed (${Rc})")
endif()
if(NOT ColdOut MATCHES "store: .*cold start")
  message(FATAL_ERROR "cold night did not announce a cold start:\n${ColdOut}")
endif()
if(NOT EXISTS "${StoreA}/store.json")
  message(FATAL_ERROR "cold night left no ${StoreA}/store.json")
endif()

execute_process(
  COMMAND ${FLEET_SCALE} --fast --seed 1 --devices 6 --jobs 8
          --store ${StoreB}
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "fleet_scale --jobs 8 --store ${StoreB} failed (${Rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${StoreA}/store.json" "${StoreB}/store.json"
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "store.json differs between --jobs 1 and --jobs 8")
endif()

# --- 2. The store inspector validates the cold night ------------------------

execute_process(
  COMMAND ${ROPT_REPORT} store ${StoreA}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "ropt-report store failed (${Rc}):\n${Out}${Err}")
endif()
if(NOT Out MATCHES "night 1")
  message(FATAL_ERROR "store view lacks the night counter:\n${Out}")
endif()
if(NOT Out MATCHES "classes: k=")
  message(FATAL_ERROR "store view lacks the class roster:\n${Out}")
endif()
if(NOT Out MATCHES "store ok: canonical")
  message(FATAL_ERROR "store is not canonical:\n${Out}")
endif()

# --- 3. Warm night against the cold store -----------------------------------

# Keep a copy of the cold store so the jobs-invariance rerun (step 4)
# starts from the same bytes after the warm night overwrites StoreA.
file(COPY "${StoreA}/store.json" DESTINATION "${StoreC}")

set(WarmRun "${WORK_DIR}/warm_run")
execute_process(
  COMMAND ${FLEET_SCALE} --fast --seed 1 --devices 6 --store ${StoreA}
          --report ${WarmRun}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE WarmOut ERROR_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "warm fleet_scale failed (${Rc})")
endif()
if(NOT WarmOut MATCHES "store: .* \\(night 1, [0-9]+ entries")
  message(FATAL_ERROR "warm night did not load the cold store:\n${WarmOut}")
endif()
if(NOT WarmOut MATCHES "saved .* \\(night 2,")
  message(FATAL_ERROR "warm night did not advance the night counter:\n"
                      "${WarmOut}")
endif()

file(READ "${WarmRun}/manifest.json" Manifest)
if(NOT Manifest MATCHES "\"warm_start\"")
  message(FATAL_ERROR "warm manifest lacks the warm_start section")
endif()
if(NOT Manifest MATCHES "\"entries_loaded\":[1-9]")
  message(FATAL_ERROR "warm_start reports no loaded entries:\n${Manifest}")
endif()
if(NOT Manifest MATCHES "\"class_leaderboards\"")
  message(FATAL_ERROR "warm manifest lacks class_leaderboards")
endif()
execute_process(
  COMMAND ${ROPT_REPORT} validate ${WarmRun}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "validate failed on the warm run (${Rc}):\n${Out}${Err}")
endif()

execute_process(
  COMMAND ${ROPT_REPORT} store ${StoreA}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "warm store failed validation (${Rc}):\n${Out}${Err}")
endif()
if(NOT Out MATCHES "night 2")
  message(FATAL_ERROR "warm store kept the old night counter:\n${Out}")
endif()

# --- 4. The warm night is jobs-invariant ------------------------------------

execute_process(
  COMMAND ${FLEET_SCALE} --fast --seed 1 --devices 6 --jobs 8
          --store ${StoreC}
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "warm fleet_scale --jobs 8 failed (${Rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${StoreA}/store.json" "${StoreC}/store.json"
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "warm store.json differs between --jobs 1 and 8")
endif()

# --- 5. Missing parent directories fail fast with exit 2 --------------------

execute_process(
  COMMAND ${FLEET_SCALE} --fast --store ${WORK_DIR}/no/such/parent
  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err)
if(NOT Rc EQUAL 2)
  message(FATAL_ERROR "--store under a missing parent exited ${Rc}, not 2")
endif()
if(NOT Err MATCHES "usage:")
  message(FATAL_ERROR "--store error did not print the usage line:\n${Err}")
endif()
execute_process(
  COMMAND ${FLEET_SCALE} --fast --report ${WORK_DIR}/no/such/parent
  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
if(NOT Rc EQUAL 2)
  message(FATAL_ERROR "--report under a missing parent exited ${Rc}, not 2")
endif()

# --- 6. Inspecting a missing store exits 2 ----------------------------------

execute_process(
  COMMAND ${ROPT_REPORT} store ${WORK_DIR}/never_created
  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
if(NOT Rc EQUAL 2)
  message(FATAL_ERROR "ropt-report store on a missing dir exited ${Rc}, "
                      "not 2")
endif()

message(STATUS "store_e2e: cold store jobs-invariant and canonical, warm "
               "night loads it (warm_start + class_leaderboards in the "
               "manifest), warm store jobs-invariant, typo'd paths exit 2")
