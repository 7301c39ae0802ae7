# Error paths of the shared bench CLI (bench/bench_util.hpp), run as
# a ctest. Every malformed invocation must exit 2 with a named error
# on stderr before any scenario runs; well-formed seeds must parse
# (checked with --help, which exits 0 right after parsing).

function(expect_rejected pattern)
    execute_process(
        COMMAND ${BENCH_BIN} ${ARGN}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "'${ARGN}' exited ${rc}, expected 2")
    endif()
    if(NOT err MATCHES "${pattern}")
        message(FATAL_ERROR
            "'${ARGN}' printed '${err}', expected /${pattern}/")
    endif()
endfunction()

function(expect_accepted)
    execute_process(
        COMMAND ${BENCH_BIN} ${ARGN} --help
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "'${ARGN} --help' exited ${rc}: ${err}")
    endif()
endfunction()

expect_rejected("unknown option '--bogus'" --bogus)
expect_rejected("--trials must be >= 1" --trials 0)
expect_rejected("--jobs must be >= 1" --jobs 0)
expect_rejected("missing value for --seed" --seed)
expect_rejected("--seed must be .* got 'zzz'" --seed zzz)
expect_rejected("--seed must be .* got '12abc'" --seed 12abc)
expect_rejected("--seed must be .* got '-1'" --seed -1)
expect_rejected("--seed must be .* got ' 7'" --seed " 7")
expect_rejected("--seed must be .* got '0x'" --seed 0x)
expect_rejected("--seed must be .* got '18446744073709551616'"
    --seed 18446744073709551616)
expect_rejected("bad --log-level spec" --log-level "coord=loud")

expect_accepted(--seed 42)
expect_accepted(--seed 0x5eedc0de5eedc0de)
expect_accepted(--seed 18446744073709551615)

message(STATUS "cli_errors: every malformed invocation exited 2")
