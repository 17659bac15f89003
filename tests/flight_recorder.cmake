# Flight-recorder crash-dump triage, end to end, with a real SIGKILL
# (DESIGN.md §12):
#
#   1. a cell_jobsvc run with the recorder installed is killed mid-flight by
#      the --die-at-event crash clock (SIGKILL from inside the process); the
#      crash hook's last act is dumping the recorder;
#   2. the dump must exist, be a strict `# cbe-trace v1` stream with the
#      `# flight-recorder reason=crash-clock` comment, and carry causal span
#      tails (` s=`) for the job lifecycle events; the run records more
#      events than the 64-event ring holds, so the dump has wrapped: it
#      holds exactly 64 events, overwritten > 0, and recorded - overwritten
#      equals the count;
#   3. cell_profiler must refuse the mixed multi-job dump without --span,
#      name the jobs it found, and analyze cleanly with --span=<job>;
#   4. the statusz export of a healthy run must parse and render through
#      cell_top, and the JSON round trip (cell_top --json) must be
#      byte-identical to what the service wrote.
#
# Invoked by ctest as:
#   cmake -DJOBSVC=<cell_jobsvc> -DPROFILER=<cell_profiler>
#         -DCELL_TOP=<cell_top> -DWORKDIR=<dir> -P flight_recorder.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED JOBSVC OR NOT DEFINED PROFILER OR NOT DEFINED CELL_TOP
   OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DJOBSVC=... -DPROFILER=... "
          "-DCELL_TOP=... -DWORKDIR=... -P flight_recorder.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(run out_rc out_stdout out_stderr)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  set(${out_rc} "${rc}" PARENT_SCOPE)
  set(${out_stdout} "${stdout}" PARENT_SCOPE)
  set(${out_stderr} "${stderr}" PARENT_SCOPE)
endfunction()

set(WORKLOAD --jobs=60 --blades=4 --blade-fail-rate=0.3 --seed=2026)

# --- 1. crash mid-flight, expect the last-gasp dump --------------------------
run(rc out err "${JOBSVC}" ${WORKLOAD}
    --flight-recorder=64 --flight-dump=crash.trace --die-at-event=300)
if(rc EQUAL 0)
  message(FATAL_ERROR "run with --die-at-event was supposed to be killed "
          "but exited cleanly:\n${out}")
endif()
if(NOT EXISTS "${WORKDIR}/crash.trace")
  message(FATAL_ERROR "crash clock fired (rc=${rc}) but left no "
          "flight-recorder dump:\n${err}")
endif()

# --- 2. the dump is a strict trace with span tails ---------------------------
file(READ "${WORKDIR}/crash.trace" dump)
if(NOT dump MATCHES "^# cbe-trace v1\n")
  message(FATAL_ERROR "dump is not a strict cbe-trace v1 stream")
endif()
if(NOT dump MATCHES "# flight-recorder reason=crash-clock")
  message(FATAL_ERROR "dump lost its reason line")
endif()
if(NOT dump MATCHES " s=[0-9]")
  message(FATAL_ERROR "dump carries no causal span tails")
endif()
# Loss accounting: about 87 events are recorded before the kill, so the
# 64-event ring has wrapped and holds exactly its capacity; the comment's
# counters explain every event that is not in the file.
file(STRINGS "${WORKDIR}/crash.trace" event_lines REGEX "^[^#]")
list(LENGTH event_lines n_events)
if(NOT n_events EQUAL 64)
  message(FATAL_ERROR "dump holds ${n_events} events; a wrapped ring keeps "
          "exactly its 64")
endif()
if(NOT dump MATCHES "recorded=([0-9]+) overwritten=([0-9]+)")
  message(FATAL_ERROR "dump lost its recorded=/overwritten= counters")
endif()
if(CMAKE_MATCH_2 EQUAL 0)
  message(FATAL_ERROR "the ring never wrapped (overwritten=0): the crash "
          "path's loss accounting went unexercised")
endif()
math(EXPR held "${CMAKE_MATCH_1} - ${CMAKE_MATCH_2}")
if(NOT held EQUAL n_events)
  message(FATAL_ERROR "dump says recorded=${CMAKE_MATCH_1} "
          "overwritten=${CMAKE_MATCH_2} but holds ${n_events} events")
endif()

# --- 3. cell_profiler: mixed-trace guard, then per-span analysis -------------
run(rc out err "${PROFILER}" --input=crash.trace)
if(rc EQUAL 0)
  message(FATAL_ERROR "profiler accepted a mixed multi-job dump without "
          "--span:\n${out}")
endif()
if(NOT err MATCHES "mixed trace" OR NOT err MATCHES "--span")
  message(FATAL_ERROR "mixed-trace rejection is not actionable:\n${err}")
endif()
# The error lists job ids; analyze the first one it names.
string(REGEX MATCH "jobs \\(([0-9]+)" m "${err}")
set(job "${CMAKE_MATCH_1}")
run(rc out err "${PROFILER}" --input=crash.trace --span=${job})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "profiler failed on --span=${job} (rc=${rc}):\n${err}")
endif()
if(NOT out MATCHES "cell_profiler report")
  message(FATAL_ERROR "profiler produced no report for --span=${job}:\n${out}")
endif()

# --- 4. statusz -> cell_top round trip ---------------------------------------
run(rc out err "${JOBSVC}" ${WORKLOAD}
    --statusz=statusz.json --statusz-text=statusz.txt)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "statusz run failed (rc=${rc}):\n${err}")
endif()
run(rc top_text err "${CELL_TOP}" statusz.json)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cell_top failed on the service's export "
          "(rc=${rc}):\n${err}")
endif()
file(READ "${WORKDIR}/statusz.txt" service_text)
if(NOT top_text STREQUAL service_text)
  message(FATAL_ERROR "cell_top's rendering diverged from the service's own "
          "--statusz-text export")
endif()
run(rc top_json err "${CELL_TOP}" --json=true statusz.json)
file(READ "${WORKDIR}/statusz.json" service_json)
if(NOT top_json STREQUAL service_json)
  message(FATAL_ERROR "cell_top --json round trip is not byte-identical")
endif()

message(STATUS "flight-recorder crash dump, span filtering and statusz "
        "round trip all verified")
