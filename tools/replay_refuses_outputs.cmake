# `stigsim --replay` writes no telemetry, so every output flag beside it is
# a usage error: exit 2, with a message naming the flag. The refusal comes
# before the repro is read, so the file need not exist.
#
#   cmake -DSTIGSIM=build/tools/stigsim -P tools/replay_refuses_outputs.cmake
foreach(pair --events=e.jsonl --chrome-trace=t.json --report=r.json
        --spans=s.json --span-trace=st.json --metrics=m.json
        --watchdog=report --flight-recorder=8 --jsonl=h.jsonl --svg=h.svg)
  string(REPLACE "=" ";" args "${pair}")
  list(GET args 0 flag)
  execute_process(COMMAND "${STIGSIM}" --replay missing_repro.json ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "cannot honour ${flag}\n")
    message(FATAL_ERROR "stigsim --replay ${flag}: exit ${rc}, stderr: ${err}")
  endif()
endforeach()
