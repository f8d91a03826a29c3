# Command-line byte-identity checks (ctest label `cli`), run as
#   cmake -DSYNTH=<wantraffic_synth> -DANALYZE=<wantraffic_analyze>
#         -DINGEST=<wantraffic_ingest> -DDATA_DIR=<tests/data>
#         -DWORK_DIR=<scratch dir> -P cli_tools.cmake
# `wantraffic_synth pkt --binary` must write the same trace batch,
# --stream and --stream --chunk 1000; `wantraffic_analyze pkt` the same
# --vt-csv bytes batch, --stream and --shards 3; `wantraffic_ingest pkt`
# the same binary trace serially, with --shards 3 and from stdin, and
# `wantraffic_ingest conn` the same CSV from a file and from stdin.
# `wantraffic_analyze conn` must reach the in-memory verdicts on a
# synthesized day read back from its CSV. Invalid counts, mode-foreign
# flags and non-finite CSV numbers must be rejected.

if(NOT SYNTH OR NOT ANALYZE OR NOT INGEST OR NOT DATA_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "cli_tools.cmake: pass every -D variable above")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs one command (extra execute_process options after the command,
# e.g. INPUT_FILE, ride along in ARGN) and fails on a nonzero exit.
function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "exit ${rc}: ${cmd}\n${out}\n${err}")
  endif()
endfunction()

# Runs one command that must be rejected: it has to exit nonzero with
# `reason` in its error output.
function(run_fails reason)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(FIND "${err}" "${reason}" at)
  if(rc EQUAL 0 OR at EQUAL -1)
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "want a nonzero exit with '${reason}': ${cmd}\n"
            "exit ${rc}\n${out}\n${err}")
  endif()
endfunction()

# Runs one command (after COMMAND) that must exit 0 with stdout matching
# every regex after PATTERNS.
function(run_matches)
  cmake_parse_arguments(PARSE_ARGV 0 arg "" "" "PATTERNS;COMMAND")
  execute_process(COMMAND ${arg_COMMAND} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REPLACE ";" " " cmd "${arg_COMMAND}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exit ${rc}: ${cmd}\n${out}\n${err}")
  endif()
  foreach(pattern IN LISTS arg_PATTERNS)
    if(NOT out MATCHES "${pattern}")
      message(FATAL_ERROR "want '${pattern}' in the output of ${cmd}:\n"
              "${out}")
    endif()
  endforeach()
endfunction()

function(expect_same_file a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

# Binary packet traces `a` and `b`, whose headers name them `a_name` and
# `b_name`, must agree in every other byte. The header is magic,
# version, t_begin, t_end (24 bytes), name length (4 bytes), the name,
# then the record count and the records.
function(expect_same_trace_but_name a a_name b b_name)
  file(READ "${a}" head_a LIMIT 24 HEX)
  file(READ "${b}" head_b LIMIT 24 HEX)
  string(LENGTH "${a_name}" len_a)
  string(LENGTH "${b_name}" len_b)
  math(EXPR skip_a "28 + ${len_a}")
  math(EXPR skip_b "28 + ${len_b}")
  file(READ "${a}" tail_a OFFSET ${skip_a} HEX)
  file(READ "${b}" tail_b OFFSET ${skip_b} HEX)
  if(NOT head_a STREQUAL head_b OR NOT tail_a STREQUAL tail_b)
    message(FATAL_ERROR "${a} and ${b} differ beyond the trace name")
  endif()
endfunction()

# Connection CSVs `a` and `b`, whose headers name them `a_name` and
# `b_name`, must agree in every other byte.
function(expect_same_conn_csv_but_name a a_name b b_name)
  file(READ "${a}" text_a)
  file(READ "${b}" text_b)
  string(REPLACE " name=${a_name}\n" " name=\n" text_a "${text_a}")
  string(REPLACE " name=${b_name}\n" " name=\n" text_b "${text_b}")
  if(NOT text_a STREQUAL text_b)
    message(FATAL_ERROR "${a} and ${b} differ beyond the trace name")
  endif()
endfunction()

# --- wantraffic_synth pkt: batch, --stream and --stream --chunk 1000 ---
set(trace "${WORK_DIR}/pkt.bin")
run("${SYNTH}" pkt --out "${trace}" --binary --hours 0.25 --seed 7)
run("${SYNTH}" pkt --out "${WORK_DIR}/pkt_stream.bin" --binary --hours 0.25
    --seed 7 --stream)
run("${SYNTH}" pkt --out "${WORK_DIR}/pkt_chunk.bin" --binary --hours 0.25
    --seed 7 --stream --chunk 1000)
expect_same_file("${trace}" "${WORK_DIR}/pkt_stream.bin")
expect_same_file("${trace}" "${WORK_DIR}/pkt_chunk.bin")
run_fails("--chunk wants at least 1" "${SYNTH}" pkt
          --out "${WORK_DIR}/bad.bin" --binary --hours 0.1 --stream --chunk 0)
run_fails("--seed wants a non-negative integer" "${SYNTH}" pkt
          --out "${WORK_DIR}/bad.bin" --binary --hours 0.1 --seed -3)
run_fails("--seed wants a non-negative integer" "${SYNTH}" pkt
          --out "${WORK_DIR}/bad.bin" --binary --hours 0.1
          --seed 18446744073709551616)  # 2^64

# --- wantraffic_analyze pkt: batch, --stream and --shards 3 ------------
run("${ANALYZE}" pkt "${trace}" --binary --filtered
    --vt-csv "${WORK_DIR}/vt_batch.csv")
run("${ANALYZE}" pkt "${trace}" --binary --filtered --stream
    --vt-csv "${WORK_DIR}/vt_stream.csv")
run("${ANALYZE}" pkt "${trace}" --binary --filtered --shards 3
    --vt-csv "${WORK_DIR}/vt_shards.csv")
expect_same_file("${WORK_DIR}/vt_batch.csv" "${WORK_DIR}/vt_stream.csv")
expect_same_file("${WORK_DIR}/vt_batch.csv" "${WORK_DIR}/vt_shards.csv")

# --- wantraffic_ingest pkt: serial, --shards 3 and stdin ---------------
set(capture "${DATA_DIR}/tiny_le.pcap")
run("${INGEST}" pkt pcap "${capture}" --out "${WORK_DIR}/serial.bin")
run("${INGEST}" pkt pcap "${capture}" --shards 3
    --out "${WORK_DIR}/shards.bin")
run("${INGEST}" pkt pcap - --out "${WORK_DIR}/stdin.bin"
    INPUT_FILE "${capture}")
expect_same_file("${WORK_DIR}/serial.bin" "${WORK_DIR}/shards.bin")
# A piped capture has no path, so its trace is named "pcap:-".
expect_same_trace_but_name("${WORK_DIR}/serial.bin" "pcap:${capture}"
                           "${WORK_DIR}/stdin.bin" "pcap:-")

# --- wantraffic_ingest conn: file and stdin; --chunk rejected ----------
run("${INGEST}" conn pcap "${capture}" --out "${WORK_DIR}/conn_file.csv")
run("${INGEST}" conn pcap - --out "${WORK_DIR}/conn_stdin.csv"
    INPUT_FILE "${capture}")
expect_same_conn_csv_but_name("${WORK_DIR}/conn_file.csv" "pcap:${capture}"
                              "${WORK_DIR}/conn_stdin.csv" "pcap:-")
run_fails("--chunk applies to pkt mode only" "${INGEST}" conn pcap
          "${capture}" --chunk 8)

# --- wantraffic_analyze conn: a synthesized day through its CSV --------
# The CSV keeps every start time's bits, so the verdicts are the ones
# the same day gets in memory: 72 weather-map records go, and TELNET
# reads POISSON (91.7% exp-pass).
set(day "${WORK_DIR}/day.csv")
run("${SYNTH}" conn --days 1 --seed 1 --out "${day}")
run_matches(PATTERNS "removed 72 periodic" "TELNET +[^\n]* POISSON"
            COMMAND "${ANALYZE}" conn "${day}" --deperiodic)
file(WRITE "${WORK_DIR}/nan.csv"
     "# t_begin=0 t_end=100 name=nan\n"
     "start,duration,protocol,src,dst,bytes_orig,bytes_resp,session\n"
     "1,2,TELNET,1,2,3,4,0\n"
     "nan,2,TELNET,1,2,3,4,0\n")
run_fails("non-finite start at line 4" "${ANALYZE}" conn
          "${WORK_DIR}/nan.csv")
