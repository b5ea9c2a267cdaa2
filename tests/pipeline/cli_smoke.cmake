# CTest script: run qplacer_cli end to end and validate its artifacts.
# Invoked as:
#   cmake -DQPLACER_CLI=<path> -DWORK_DIR=<dir> -P cli_smoke.cmake

if(NOT QPLACER_CLI OR NOT WORK_DIR)
    message(FATAL_ERROR "cli_smoke.cmake needs -DQPLACER_CLI and -DWORK_DIR")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(csv "${WORK_DIR}/smoke.csv")
set(svg "${WORK_DIR}/smoke.svg")

execute_process(
    COMMAND "${QPLACER_CLI}" --topology grid3x3 --mode qplacer --seed 3
            --csv "${csv}" --svg "${svg}" --quiet
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

# --- CSV: header + exactly one data row, with the key metric columns. ---
if(NOT EXISTS "${csv}")
    message(FATAL_ERROR "qplacer_cli did not write ${csv}")
endif()
file(STRINGS "${csv}" csv_lines)
list(LENGTH csv_lines csv_count)
if(NOT csv_count EQUAL 2)
    message(FATAL_ERROR "expected 2 CSV lines (header + row), got ${csv_count}")
endif()
list(GET csv_lines 0 csv_header)
foreach(column topology mode qubits cells ph_percent utilization seconds)
    string(FIND "${csv_header}" "${column}" found)
    if(found EQUAL -1)
        message(FATAL_ERROR "CSV header missing '${column}': ${csv_header}")
    endif()
endforeach()
list(GET csv_lines 1 csv_row)
if(NOT csv_row MATCHES "^Grid9,Qplacer,9,")
    message(FATAL_ERROR "unexpected CSV data row: ${csv_row}")
endif()

# --- SVG: well-formed document envelope. ---
if(NOT EXISTS "${svg}")
    message(FATAL_ERROR "qplacer_cli did not write ${svg}")
endif()
file(READ "${svg}" svg_text)
if(NOT svg_text MATCHES "^<svg ")
    message(FATAL_ERROR "SVG does not start with an <svg> element")
endif()
if(NOT svg_text MATCHES "</svg>")
    message(FATAL_ERROR "SVG is not closed with </svg>")
endif()

# --- Threaded run: --threads must work and reproduce the layout. ---
# grid8x8 (~1400 instances, 64 bins) sits above every serial-grain
# cutoff, so worker threads genuinely run; a capped iteration budget
# keeps the smoke fast while still exercising hundreds of regions.
set(layout_a "${WORK_DIR}/threads_a.txt")
set(layout_b "${WORK_DIR}/threads_b.txt")
foreach(layout IN ITEMS "${layout_a}" "${layout_b}")
    execute_process(
        COMMAND "${QPLACER_CLI}" --topology grid8x8 --seed 3 --threads 2
                --set placer.maxIters=120 --layout "${layout}" --quiet
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "qplacer_cli --threads 2 exited ${rc}\n${err}")
    endif()
endforeach()
file(READ "${layout_a}" text_a)
file(READ "${layout_b}" text_b)
if(NOT text_a STREQUAL text_b)
    message(FATAL_ERROR "--threads 2 runs with the same seed diverged")
endif()

# --- Seed wraparound: --jobs near UINT64_MAX wraps mod 2^64. ---
# Base seed 2^64 - 2 with 3 jobs must resolve to the deterministic
# sequence {2^64 - 2, 2^64 - 1, 0} -- full-precision in the CSV seed
# column (strings, not doubles) and every job ok.
set(wrap_csv "${WORK_DIR}/wrap.csv")
execute_process(
    COMMAND "${QPLACER_CLI}" --topology grid3x3
            --seed 18446744073709551614 --jobs 3 --workers 1
            --set placer.maxIters=60 --csv "${wrap_csv}" --quiet
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli wraparound batch exited ${rc}\n${err}")
endif()
file(STRINGS "${wrap_csv}" wrap_lines)
list(LENGTH wrap_lines wrap_count)
if(NOT wrap_count EQUAL 4)
    message(FATAL_ERROR "expected 4 CSV lines (header + 3 rows), got ${wrap_count}")
endif()
foreach(seed 18446744073709551614 18446744073709551615 0)
    set(seen FALSE)
    foreach(row IN LISTS wrap_lines)
        if(row MATCHES ",${seed},ok$")
            set(seen TRUE)
        endif()
    endforeach()
    if(NOT seen)
        message(FATAL_ERROR "no ok row with wrapped seed ${seed} in:\n${wrap_lines}")
    endif()
endforeach()

# --- Portfolio: --portfolio picks a winner and rejects --jobs > 1. ---
set(folio_csv "${WORK_DIR}/folio.csv")
execute_process(
    COMMAND "${QPLACER_CLI}" --topology grid3x3 --seed 1 --portfolio 3
            --set placer.maxIters=80 --csv "${folio_csv}" --quiet
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli --portfolio 3 exited ${rc}\n${err}")
endif()
file(STRINGS "${folio_csv}" folio_lines)
list(LENGTH folio_lines folio_count)
if(NOT folio_count EQUAL 2)
    message(FATAL_ERROR "portfolio run must emit one CSV row, got ${folio_count}")
endif()
list(GET folio_lines 1 folio_row)
if(NOT folio_row MATCHES ",ok$")
    message(FATAL_ERROR "portfolio run did not finish ok: ${folio_row}")
endif()
execute_process(
    COMMAND "${QPLACER_CLI}" --topology grid3x3 --portfolio 2 --jobs 2
            --quiet
    RESULT_VARIABLE bad_rc
    OUTPUT_QUIET ERROR_QUIET)
if(bad_rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli accepted --portfolio with --jobs > 1")
endif()

# --- JSON report: parse --report json back and check the schema. ---
# The CLI builds each job with the server's jobReportJson, so these
# members are the flow_report/1 job shape (docs/REPORT_SCHEMA.md).
if(CMAKE_VERSION VERSION_LESS 3.19)
    message(FATAL_ERROR "cli_smoke parses JSON with string(JSON), which needs CMake >= 3.19")
endif()

# check_report(<jobs> <first seed> <fidelity benchmark> <cli args...>)
function(check_report jobs first_seed benchmark)
    execute_process(
        COMMAND "${QPLACER_CLI}" ${ARGN} --report json --quiet
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE json
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "qplacer_cli ${ARGN} --report json exited ${rc}\n${err}")
    endif()
    string(STRIP "${json}" json)
    string(FIND "${json}" "\n" newline)
    if(NOT newline EQUAL -1)
        message(FATAL_ERROR "--report json must print one line:\n${json}")
    endif()
    string(JSON schema ERROR_VARIABLE json_err GET "${json}" schema)
    if(json_err OR NOT schema STREQUAL "qplacer.flow_report/1")
        message(FATAL_ERROR "bad report schema '${schema}' ${json_err}:\n${json}")
    endif()
    foreach(field jobs ok)
        string(JSON value GET "${json}" aggregate ${field})
        if(NOT value EQUAL jobs)
            message(FATAL_ERROR "aggregate.${field} = ${value}, expected ${jobs}")
        endif()
    endforeach()
    string(JSON count LENGTH "${json}" jobs)
    if(NOT count EQUAL jobs)
        message(FATAL_ERROR "report has ${count} jobs, expected ${jobs}")
    endif()
    math(EXPR last "${jobs} - 1")
    foreach(i RANGE ${last})
        foreach(member seed status stages cells freq_slots assign build place
                       legal area hotspots fidelity seconds)
            string(JSON type ERROR_VARIABLE json_err TYPE "${json}" jobs ${i} ${member})
            if(json_err)
                message(FATAL_ERROR "job ${i} lacks '${member}': ${json_err}")
            endif()
        endforeach()
        string(JSON seed GET "${json}" jobs ${i} seed)
        math(EXPR want_seed "${first_seed} + ${i}")
        string(JSON code GET "${json}" jobs ${i} status code)
        if(NOT seed EQUAL want_seed OR NOT code STREQUAL "ok")
            message(FATAL_ERROR "job ${i}: seed ${seed} status ${code}")
        endif()
        string(JSON type TYPE "${json}" jobs ${i} fidelity)
        string(JSON bench GET "${json}" jobs ${i} fidelity benchmark)
        if(NOT type STREQUAL "OBJECT" OR NOT bench STREQUAL benchmark)
            message(FATAL_ERROR "job ${i}: fidelity is ${type} for '${bench}'")
        endif()
        foreach(stat mean min max)
            string(JSON type TYPE "${json}" jobs ${i} fidelity ${stat})
            if(NOT type STREQUAL "NUMBER")
                message(FATAL_ERROR "job ${i}: fidelity.${stat} is ${type}")
            endif()
        endforeach()
    endforeach()
endfunction()

check_report(1 3 bv-9 --topology grid3x3 --seed 3)
check_report(2 1 bv-9 --topology grid3x3 --jobs 2 --threads 1
             --set placer.maxIters=120)

# --- Knob surface: --help lists kKnownSetKeys; removed keys are errors. ---
execute_process(
    COMMAND "${QPLACER_CLI}" --help
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE help_text)
string(FIND "${help_text}" "portfolio.keepFrac" found)
if(NOT rc EQUAL 0 OR found EQUAL -1)
    message(FATAL_ERROR "--help does not list every --set key:\n${help_text}")
endif()
foreach(removed_key IN ITEMS legalizer.referenceProbes
                             legalizer.flowSparseThreshold
                             multidie.cutWeight)
    execute_process(
        COMMAND "${QPLACER_CLI}" --topology grid3x3
                --set ${removed_key}=1 --quiet
        RESULT_VARIABLE bad_rc
        OUTPUT_QUIET ERROR_VARIABLE err)
    if(bad_rc EQUAL 0 OR NOT err MATCHES "unknown --set key")
        message(FATAL_ERROR "removed key ${removed_key} was accepted (${bad_rc}):\n${err}")
    endif()
endforeach()

# --- Error path: unknown topology must fail cleanly. ---
execute_process(
    COMMAND "${QPLACER_CLI}" --topology no-such-device --quiet
    RESULT_VARIABLE bad_rc
    OUTPUT_QUIET ERROR_QUIET)
if(bad_rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli accepted an unknown topology")
endif()

message(STATUS "cli_smoke: OK")
