# End-to-end check of the observability loop over the real binaries
# (invoked by ctest as the `analyze_e2e` test):
#
#   1. abl_critical_path --fast --seed 1 --report A            (jobs 1)
#   2. abl_critical_path --fast --seed 1 --jobs 8 --report B
#   3. abl_critical_path --fast --seed 1 --report C            (rerun)
#   4. analysis.jsonl A == B == C     -> region analysis is jobs- and
#                                        rerun-invariant
#   5. ropt-report validate A         -> analysis artifacts check out
#   6. ropt-report analyze A          -> renders labels + budget shares
#   7. analyze A == analyze B == analyze C (modulo the run-dir path in
#      the header) -> the rendered view is byte-identical too
#   8. ropt-report analyze B --baseline A -> zero label changes
#
# Inputs: -DABL_CRITICAL_PATH=..., -DROPT_REPORT=..., -DWORK_DIR=...

foreach(Var ABL_CRITICAL_PATH ROPT_REPORT WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "missing -D${Var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(RunA "${WORK_DIR}/runA")
set(RunB "${WORK_DIR}/runB")
set(RunC "${WORK_DIR}/runC")

function(run_ablation Dir)
  execute_process(
    COMMAND ${ABL_CRITICAL_PATH} --fast --seed 1 ${ARGN} --report ${Dir}
    RESULT_VARIABLE Rc OUTPUT_QUIET)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "abl_critical_path --report ${Dir} failed (${Rc})")
  endif()
endfunction()

run_ablation(${RunA})
run_ablation(${RunB} --jobs 8)
run_ablation(${RunC})

foreach(Artifact manifest.json evaluations.jsonl analysis.jsonl)
  if(NOT EXISTS "${RunA}/${Artifact}")
    message(FATAL_ERROR "missing artifact ${RunA}/${Artifact}")
  endif()
endforeach()

# The decision stream is a pure function of the deterministic profile:
# byte-identical at any --jobs value and across reruns.
foreach(Other ${RunB} ${RunC})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${RunA}/analysis.jsonl" "${Other}/analysis.jsonl"
    RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "analysis.jsonl differs: ${RunA} vs ${Other}")
  endif()
endforeach()

execute_process(
  COMMAND ${ROPT_REPORT} validate ${RunA}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "ropt-report validate failed (${Rc}):\n${Out}${Err}")
endif()

# The rendered analysis: labels, critical chain, budget shares.
function(run_analyze Dir OutVar)
  execute_process(
    COMMAND ${ROPT_REPORT} analyze ${Dir}
    RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "ropt-report analyze ${Dir} failed (${Rc}):\n"
                        "${Out}${Err}")
  endif()
  # Normalize the run-directory path the header prints; everything else
  # must be byte-identical.
  string(REPLACE "${Dir}" "RUN_DIR" Out "${Out}")
  set(${OutVar} "${Out}" PARENT_SCOPE)
endfunction()

run_analyze(${RunA} AnalyzeA)
run_analyze(${RunB} AnalyzeB)
run_analyze(${RunC} AnalyzeC)

if(NOT AnalyzeA MATCHES "budget")
  message(FATAL_ERROR "analyze output lacks budget shares:\n${AnalyzeA}")
endif()
if(NOT AnalyzeA MATCHES "critical chain")
  message(FATAL_ERROR "analyze output lacks the critical chain:\n"
                      "${AnalyzeA}")
endif()
if(NOT AnalyzeA MATCHES "(balanced|branchy|memory_bound|native_heavy|compute)")
  message(FATAL_ERROR "analyze output lacks bottleneck labels:\n"
                      "${AnalyzeA}")
endif()

if(NOT AnalyzeA STREQUAL AnalyzeB)
  message(FATAL_ERROR "analyze output differs between --jobs 1 and "
                      "--jobs 8:\n--- A ---\n${AnalyzeA}\n--- B ---\n"
                      "${AnalyzeB}")
endif()
if(NOT AnalyzeA STREQUAL AnalyzeC)
  message(FATAL_ERROR "analyze output differs across reruns:\n"
                      "--- A ---\n${AnalyzeA}\n--- C ---\n${AnalyzeC}")
endif()

execute_process(
  COMMAND ${ROPT_REPORT} analyze ${RunB} --baseline ${RunA}
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "ropt-report analyze --baseline failed (${Rc}):\n"
                      "${Out}${Err}")
endif()
if(NOT Out MATCHES "label changes vs [^\n]*: 0")
  message(FATAL_ERROR "expected zero label changes vs baseline:\n${Out}")
endif()

message(STATUS "analyze_e2e: region analysis jobs- and rerun-invariant, "
               "analyze/validate clean, zero label drift")
