# End-to-end check of the run-report flight recorder over the real
# binaries (invoked by ctest as the `run_report_e2e` test):
#
#   1. fig09_ga_evolution --fast --seed 1 --report A          (jobs 1)
#   2. fig09_ga_evolution --fast --seed 1 --jobs 4 --report B
#   3. ropt-report validate A        -> artifacts parse, manifest fields ok
#   4. ropt-report summarize A       -> renders without error
#   5. evaluations.jsonl A == B      -> provenance is jobs-invariant
#   6. ropt-report diff A B          -> zero fitness regressions
#   7. the same pair with --racing on -> racing provenance (early stops,
#      escalations, per-eval samples_spent) is byte-identical too
#   8. fig09 --sessions off -> evaluations.jsonl is byte-identical to the
#      default (sessions-on) run: fork-server replay sessions are a pure
#      backend optimization with no observable effect on provenance
#
# Inputs: -DFIG09=..., -DROPT_REPORT=..., -DWORK_DIR=...

foreach(Var FIG09 ROPT_REPORT WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "missing -D${Var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(RunA "${WORK_DIR}/runA")
set(RunB "${WORK_DIR}/runB")
set(RunC "${WORK_DIR}/runC")
set(RunD "${WORK_DIR}/runD")
set(RunE "${WORK_DIR}/runE")

execute_process(
  COMMAND ${FIG09} --fast --seed 1 --apps Sieve --report ${RunA}
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "fig09 --report ${RunA} failed (${Rc})")
endif()

execute_process(
  COMMAND ${FIG09} --fast --seed 1 --apps Sieve --jobs 4 --report ${RunB}
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "fig09 --jobs 4 --report ${RunB} failed (${Rc})")
endif()

foreach(Artifact manifest.json evaluations.jsonl generations.jsonl
        metrics.json trace.json)
  if(NOT EXISTS "${RunA}/${Artifact}")
    message(FATAL_ERROR "missing artifact ${RunA}/${Artifact}")
  endif()
endforeach()

execute_process(
  COMMAND ${ROPT_REPORT} validate ${RunA}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "ropt-report validate failed (${Rc}):\n${Out}${Err}")
endif()

execute_process(
  COMMAND ${ROPT_REPORT} summarize ${RunA}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "ropt-report summarize failed (${Rc}):\n${Out}${Err}")
endif()
if(NOT Out MATCHES "Sieve")
  message(FATAL_ERROR "summary does not mention the app:\n${Out}")
endif()
# The compile memo's counters reach metrics.json (and only metrics.json).
if(NOT Out MATCHES "compile memo: [0-9.]+% of [0-9]+ pass applications")
  message(FATAL_ERROR "summary has no compile memo line:\n${Out}")
endif()
file(READ "${RunA}/evaluations.jsonl" Evals)
if(Evals MATCHES "memo")
  message(FATAL_ERROR "compile memo counters leaked into evaluations.jsonl")
endif()

# The tentpole guarantee: byte-identical provenance at any --jobs.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${RunA}/evaluations.jsonl" "${RunB}/evaluations.jsonl"
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR
          "evaluations.jsonl differs between --jobs 1 and --jobs 4")
endif()

execute_process(
  COMMAND ${ROPT_REPORT} diff ${RunA} ${RunB}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "ropt-report diff found regressions (${Rc}):\n"
                      "${Out}${Err}")
endif()
if(NOT Out MATCHES "fitness regressions: 0")
  message(FATAL_ERROR "unexpected diff output:\n${Out}")
endif()

# The session acceptance bar: turning the fork-server replay sessions off
# must not change a byte of provenance. Sessions only change how a replay's
# address space is prepared (delta reset vs full rebuild); every replay
# still runs on a fresh vm::Runtime over bit-identical memory.
execute_process(
  COMMAND ${FIG09} --fast --seed 1 --apps Sieve --sessions off
          --report ${RunE}
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "fig09 --sessions off --report ${RunE} failed (${Rc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${RunA}/evaluations.jsonl" "${RunE}/evaluations.jsonl"
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "evaluations.jsonl differs between --sessions on "
                      "(default) and --sessions off")
endif()

# The racing acceptance bar: the adaptive budget's decisions (who was
# early-stopped, who escalated, every samples_spent count) are part of
# the provenance and must also be jobs-invariant.
execute_process(
  COMMAND ${FIG09} --fast --seed 1 --apps Sieve --racing on
          --report ${RunC}
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "fig09 --racing on --report ${RunC} failed (${Rc})")
endif()

execute_process(
  COMMAND ${FIG09} --fast --seed 1 --apps Sieve --racing on --jobs 4
          --report ${RunD}
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR
          "fig09 --racing on --jobs 4 --report ${RunD} failed (${Rc})")
endif()

execute_process(
  COMMAND ${ROPT_REPORT} validate ${RunC}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR
          "ropt-report validate (racing) failed (${Rc}):\n${Out}${Err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${RunC}/evaluations.jsonl" "${RunD}/evaluations.jsonl"
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "racing evaluations.jsonl differs between "
                      "--jobs 1 and --jobs 4")
endif()

# summarize must render the replay-budget line for a racing run.
execute_process(
  COMMAND ${ROPT_REPORT} summarize ${RunC}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR
          "ropt-report summarize (racing) failed (${Rc}):\n${Out}${Err}")
endif()
if(NOT Out MATCHES "replay budget")
  message(FATAL_ERROR
          "racing summary lacks the replay-budget line:\n${Out}")
endif()

message(STATUS "run_report_e2e: all artifacts valid, provenance "
               "jobs-invariant (fixed and racing), session-invariant, "
               "diff clean")
