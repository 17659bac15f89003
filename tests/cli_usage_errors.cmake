# CLI hardening: unknown flags, missing values, and non-numeric arguments
# must exit with code 2 (the conventional usage-error status) and print a
# usage line to stderr — for every shipped binary that takes flags.
# Invoked by ctest as:
#   cmake -DBINDIR=<build-dir> -P cli_usage_errors.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED BINDIR)
  message(FATAL_ERROR "usage: cmake -DBINDIR=... -P cli_usage_errors.cmake")
endif()

function(expect_usage_error exe)
  execute_process(
    COMMAND "${exe}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  get_filename_component(name "${exe}" NAME)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${name} ${ARGN}: expected exit code 2, "
            "got ${rc}\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  if(NOT stderr MATCHES "usage:")
    message(FATAL_ERROR "${name} ${ARGN}: no usage line on stderr:\n${stderr}")
  endif()
  # enforce_usage_or_exit prints the prefix itself; a usage text that
  # starts with it too doubles it.
  if(stderr MATCHES "usage: usage:")
    message(FATAL_ERROR "${name} ${ARGN}: doubled usage prefix:\n${stderr}")
  endif()
endfunction()

set(explorer "${BINDIR}/examples/cell_explorer")

# Unknown flag, misspelled flag, non-numeric value, missing value.
expect_usage_error("${explorer}" --no-such-flag)
expect_usage_error("${explorer}" --bootstrap=4)      # typo of --bootstraps
expect_usage_error("${explorer}" --bootstraps=many)
expect_usage_error("${explorer}" --seed)
expect_usage_error("${explorer}" --checkpoint-every=1.5x)
expect_usage_error("${explorer}" --fault-bitflip-rate=lots)
expect_usage_error("${explorer}" --verify-fraction=half)
# A bootstrap job recipe its own checkpoint would reject.
expect_usage_error("${explorer}" --checkpoint=unused.ckpt --taxa=2)
expect_usage_error("${explorer}" --checkpoint=unused.ckpt --bootstraps=-3)
expect_usage_error("${explorer}" --checkpoint=unused.ckpt --sites=0)

# The profiler adds a value-validated enum flag on top of the usual classes.
set(profiler "${BINDIR}/examples/cell_profiler")
expect_usage_error("${profiler}" --no-such-flag)
expect_usage_error("${profiler}" --seed=notanumber)
expect_usage_error("${profiler}" --report=xml)

# The job service driver is under the same contract.
set(jobsvc "${BINDIR}/examples/cell_jobsvc")
expect_usage_error("${jobsvc}" --no-such-flag)
expect_usage_error("${jobsvc}" --jobs=many)
expect_usage_error("${jobsvc}" --blade-fail-rate=high)
expect_usage_error("${jobsvc}" --fault-bitflip-rate=lots)
expect_usage_error("${jobsvc}" --verify-fraction=half)
# Ring sizes: a positive integer small enough to allocate.
expect_usage_error("${jobsvc}" --flight-recorder=-5)
expect_usage_error("${jobsvc}" --flight-recorder=0)
expect_usage_error("${jobsvc}" --flight-recorder=abc)
expect_usage_error("${jobsvc}" --flight-recorder=99999999999999999999)
expect_usage_error("${jobsvc}" --flight-recorder=16777217)
expect_usage_error("${BINDIR}/bench/bench_trace" --ring=-5)
expect_usage_error("${BINDIR}/bench/bench_trace" --ring=0)
expect_usage_error("${BINDIR}/bench/bench_trace" --ring=abc)
expect_usage_error("${BINDIR}/bench/bench_trace" --ring=16777217)

# The fault-script minimizer is under the same contract.
set(shrink "${BINDIR}/tools/fault_shrink")
expect_usage_error("${shrink}" --no-such-flag)
expect_usage_error("${shrink}" --min=notanumber --script=x.txt)
expect_usage_error("${shrink}" --verify-fraction=half --script=x.txt)

# The regression gate is itself under the same contract.
set(diff "${BINDIR}/tools/bench_diff")
expect_usage_error("${diff}" --no-such-flag a.json b.json)
expect_usage_error("${diff}" --threshold=abc a.json b.json)
expect_usage_error("${diff}" only-one-positional.json)

# The status viewer rejects bad flags before it looks for its FILE.
set(top "${BINDIR}/tools/cell_top")
expect_usage_error("${top}" --no-such-flag)
expect_usage_error("${top}" --seed=notanumber)
expect_usage_error("${top}")  # no FILE: its own usage path

# Every flag-taking bench and the remaining examples reject the same classes
# of bad input.
foreach(b bench/bench_table1 bench/bench_table2 bench/bench_fig7
        bench/bench_fig8 bench/bench_fig9 bench/bench_fig10
        bench/bench_ablation bench/bench_cluster bench/bench_faults
        bench/bench_opt_ladder bench/bench_jobs
        bench/bench_engine bench/bench_trace examples/quickstart
        examples/phylogenetics examples/adaptive_offload)
  expect_usage_error("${BINDIR}/${b}" --no-such-flag)
  expect_usage_error("${BINDIR}/${b}" --seed=notanumber)
endforeach()

message(STATUS "cli-usage-errors: all binaries reject malformed flags with exit code 2")
