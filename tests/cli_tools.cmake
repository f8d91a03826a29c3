# Command-line byte-identity checks (ctest label `cli`), run as
#   cmake -DSYNTH=<wantraffic_synth> -DANALYZE=<wantraffic_analyze>
#         -DINGEST=<wantraffic_ingest> -DDATA_DIR=<tests/data>
#         -DWORK_DIR=<scratch dir> -P cli_tools.cmake
# `wantraffic_synth pkt --binary` must write the same trace with the
# default chunk and with --chunk 1000; `wantraffic_analyze pkt` the same
# --vt-csv bytes by default and with --chunk 1000. The 0.25 h seed-7
# trace, binary and CSV, and the --filtered --vt-csv file of each are
# pinned by SHA256. `wantraffic_ingest pkt`'s binary trace of a pcap
# and CSV of an lbl-pkt file, and `wantraffic_ingest conn`'s CSV of the
# pcap, are pinned by SHA256; the binary trace and the connection CSV
# must also come out the same from stdin.
# `wantraffic_analyze conn` must reach the in-memory verdicts on a
# synthesized day read back from its CSV; that CSV and the day's
# --deperiodic report are pinned by SHA256. And `wantraffic_analyze pkt`
# must analyze a packet CSV without its metadata line from its first
# packet on, a CRLF copy of it alike, and a piped binary trace as its
# file, with and without --filtered (refusing a pipe only for a CSV it
# reads twice, one without its metadata line). Invalid counts,
# mode-foreign and removed flags, malformed and non-finite CSV fields,
# non-finite ITA numbers and a bin grid too fine to count must be
# rejected.

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

# Runs one command that must stop at argument parsing: exit 2, with
# `reason` and the usage text in its error output.
function(run_usage_error reason)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(FIND "${err}" "${reason}" at)
  string(FIND "${err}" "usage:" usage_at)
  if(NOT rc EQUAL 2 OR at EQUAL -1 OR usage_at EQUAL -1)
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "want exit 2 with '${reason}' and the usage: "
            "${cmd}\nexit ${rc}\n${out}\n${err}")
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

# Runs one command (after `want`; options such as WORKING_DIRECTORY ride
# along) that must exit 0 with a stdout whose SHA256 is `want`.
function(expect_stdout_sha256 want)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(REPLACE ";" " " cmd "${ARGN}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exit ${rc}: ${cmd}\n${out}\n${err}")
  endif()
  string(SHA256 got "${out}")
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "stdout of ${cmd}: SHA256 ${got}, want ${want}\n"
            "${out}")
  endif()
endfunction()

# `file`'s SHA256 must be `want`. The packet pins were taken from the
# tools' former batch mode, so they show that the one streamed path
# writes the bytes batch mode wrote.
function(expect_sha256 file want)
  file(SHA256 "${file}" got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${file}: SHA256 ${got}, want ${want}")
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

# --- wantraffic_synth pkt: default and --chunk 1000 --------------------
set(trace "${WORK_DIR}/pkt.bin")
run("${SYNTH}" pkt --out "${trace}" --binary --hours 0.25 --seed 7)
run("${SYNTH}" pkt --out "${WORK_DIR}/pkt_chunk.bin" --binary --hours 0.25
    --seed 7 --chunk 1000)
expect_same_file("${trace}" "${WORK_DIR}/pkt_chunk.bin")
expect_sha256("${trace}"
  2b889ad9c5d2b2eeb95e07d51284856b46243d6438e8be70cce25ce6718d8b47)
set(csv_trace "${WORK_DIR}/pkt.csv")
run("${SYNTH}" pkt --out "${csv_trace}" --hours 0.25 --seed 7)
expect_sha256("${csv_trace}"
  40a64b9bc5694f1277f7d425a18eb8265706441a47b5fb9393d468cd0604a135)
run_fails("--chunk wants at least 1" "${SYNTH}" pkt
          --out "${WORK_DIR}/bad.bin" --binary --hours 0.1 --chunk 0)
run_fails("--seed wants a non-negative integer" "${SYNTH}" pkt
          --out "${WORK_DIR}/bad.bin" --binary --hours 0.1 --seed -3)
run_fails("--seed wants a non-negative integer" "${SYNTH}" pkt
          --out "${WORK_DIR}/bad.bin" --binary --hours 0.1
          --seed 18446744073709551616)  # 2^64
run_usage_error("unknown flag --stream" "${SYNTH}" pkt
                --out "${WORK_DIR}/bad.bin" --binary --hours 0.1 --stream)

# --- wantraffic_analyze pkt: default and --chunk 1000 ------------------
# A vt CSV names the trace file it was read from, so these runs take
# the traces by their names inside WORK_DIR.
run("${ANALYZE}" pkt pkt.bin --binary --filtered --vt-csv vt_bin.csv
    WORKING_DIRECTORY "${WORK_DIR}")
run("${ANALYZE}" pkt pkt.bin --binary --filtered --chunk 1000
    --vt-csv vt_chunk.csv WORKING_DIRECTORY "${WORK_DIR}")
run("${ANALYZE}" pkt pkt.csv --filtered --vt-csv vt_csv.csv
    WORKING_DIRECTORY "${WORK_DIR}")
expect_sha256("${WORK_DIR}/vt_bin.csv"
  86e5b3fd6a4686159c82030c6a78f7e6f1aed729161ba71fe4278be87b86e552)
expect_same_file("${WORK_DIR}/vt_bin.csv" "${WORK_DIR}/vt_chunk.csv")
expect_sha256("${WORK_DIR}/vt_csv.csv"
  3da076b8921c5b0a5478db52e4d0a4400084d7ef43aa7cabc0339fd11453dcb1)
run_usage_error("unknown flag --stream" "${ANALYZE}" pkt "${trace}"
                --binary --stream)
run_usage_error("unknown flag --shards" "${ANALYZE}" pkt "${trace}"
                --binary --shards 3)
run_fails("bin 1e-300 s over a" "${ANALYZE}" pkt "${trace}" --binary
          --bin 1e-300)

# --- wantraffic_ingest pkt: pinned, and stdin; removed flags ------------
# The runs read copies of the fixtures by their names inside WORK_DIR,
# so the name= in each output's header holds no checkout path.
file(COPY "${DATA_DIR}/tiny_le.pcap" "${DATA_DIR}/sample.lbl-pkt"
     DESTINATION "${WORK_DIR}")
set(capture "${WORK_DIR}/tiny_le.pcap")
run("${INGEST}" pkt pcap tiny_le.pcap --out ingest.bin
    WORKING_DIRECTORY "${WORK_DIR}")
expect_sha256("${WORK_DIR}/ingest.bin"
  5e45442d060d42b884effbca88d598c69019cc2a10586c94410544c037757276)
run("${INGEST}" pkt lbl-pkt sample.lbl-pkt --csv --out lbl_pkt.csv
    WORKING_DIRECTORY "${WORK_DIR}")
expect_sha256("${WORK_DIR}/lbl_pkt.csv"
  fb0936ab361ce4d962c1b061d6de8c4415df2e8c57182ad021d902d97aa5341b)
run("${INGEST}" pkt pcap - --out "${WORK_DIR}/stdin.bin"
    INPUT_FILE "${capture}")
# A piped capture has no path, so its trace is named "pcap:-".
expect_same_trace_but_name("${WORK_DIR}/ingest.bin" "pcap:tiny_le.pcap"
                           "${WORK_DIR}/stdin.bin" "pcap:-")
run_usage_error("unknown flag --shards" "${INGEST}" pkt pcap "${capture}"
                --out "${WORK_DIR}/bad.bin" --shards 3)
run_usage_error("unknown flag --threads" "${INGEST}" pkt pcap "${capture}"
                --out "${WORK_DIR}/bad.bin" --threads 2)

# --- wantraffic_ingest conn: pinned, and stdin; --chunk, --shards ------
run("${INGEST}" conn pcap tiny_le.pcap --out conn_file.csv
    WORKING_DIRECTORY "${WORK_DIR}")
expect_sha256("${WORK_DIR}/conn_file.csv"
  58d319fabd1a3d0c72e3ed8656ec9abab3efd72a9bb30d7ba1ecc49c1c1d365a)
run("${INGEST}" conn pcap - --out "${WORK_DIR}/conn_stdin.csv"
    INPUT_FILE "${capture}")
expect_same_conn_csv_but_name("${WORK_DIR}/conn_file.csv" "pcap:tiny_le.pcap"
                              "${WORK_DIR}/conn_stdin.csv" "pcap:-")
run_fails("--chunk applies to pkt mode only" "${INGEST}" conn pcap
          "${capture}" --chunk 8)
run_usage_error("unknown flag --shards" "${INGEST}" conn pcap "${capture}"
                --shards 3)

# --- wantraffic_analyze conn: a synthesized day through its CSV --------
# The CSV keeps every start time's bits, so the verdicts are the ones
# the same day gets in memory: 72 weather-map records go, and TELNET
# reads POISSON (91.7% exp-pass).
set(day "${WORK_DIR}/day.csv")
run("${SYNTH}" conn --days 1 --seed 1 --out "${day}")
run_matches(PATTERNS "removed 72 periodic" "TELNET +[^\n]* POISSON"
            COMMAND "${ANALYZE}" conn "${day}" --deperiodic)
# The day's CSV and the whole report are pinned too. The report names
# the trace by the path it was given, so it reads day.csv from inside
# WORK_DIR. Like ConnAnalysisPins.SynthesizedDay, both pins hold on an
# FMA-capable glibc only (ROADMAP's "one announced re-pin" item).
expect_sha256("${day}"
  107a8eb95c06fee6b8b37ad619d72d81e6839390d1c4376bb288effef6e97fe9)
expect_stdout_sha256(
  524ec892e5e690a0dd740f78c20c24f8df886e6053e3d9a68e1e25d19aaa9763
  "${ANALYZE}" conn day.csv --deperiodic WORKING_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/nan.csv"
     "# t_begin=0 t_end=100 name=nan\n"
     "start,duration,protocol,src,dst,bytes_orig,bytes_resp,session\n"
     "1,2,TELNET,1,2,3,4,0\n"
     "nan,2,TELNET,1,2,3,4,0\n")
run_fails("non-finite start at line 4" "${ANALYZE}" conn
          "${WORK_DIR}/nan.csv")

# --- Trace CSVs: the window rule and whole-field parsing ---------------
# Without its metadata line the 0.25 h trace, which starts at 14 h, is
# analyzed over the window of its records, [first packet, just past the
# last): 8970 bins of 0.1 s, not 513000 from time 0.
file(READ "${csv_trace}" text)
string(FIND "${text}" "\n" eol)
math(EXPR eol "${eol} + 1")
string(SUBSTRING "${text}" ${eol} -1 text)
file(WRITE "${WORK_DIR}/nometa.csv" "${text}")
run_matches(PATTERNS "streamed 5856 packets" "count process: 8970 bins"
                     "Beran [^\n]* NOT fGn"
            COMMAND "${ANALYZE}" pkt "${WORK_DIR}/nometa.csv" --filtered)
file(WRITE "${WORK_DIR}/junk.csv"
     "# t_begin=0 t_end=100 name=junk\n"
     "time,protocol,conn,orig,payload\n"
     "1,TELNET,7,1,10\n"
     "2,TELNET,-1,1,10\n")
run_fails("malformed conn at line 4" "${ANALYZE}" pkt "${WORK_DIR}/junk.csv")
# A CRLF copy of the CSV trace (RFC 4180's line ending) reads the same.
string(REPLACE "\n" "\r\n" crlf "${text}")
file(WRITE "${WORK_DIR}/crlf.csv" "${crlf}")
run_matches(PATTERNS "streamed 5856 packets" "count process: 8970 bins"
            COMMAND "${ANALYZE}" pkt "${WORK_DIR}/crlf.csv" --filtered)

# --- Pipes: a trace file read once may be one --------------------------
# One pass reads the binary trace, with or without --filtered (whose
# outlier stage holds the rows it reads), so a pipe gives the file's vt
# CSV; a CSV without its metadata line is read twice, to learn its
# window, and refuses a pipe before the first pass.
set(cat_trace "${CMAKE_COMMAND}" -E cat pkt.bin COMMAND)
run("${ANALYZE}" pkt pkt.bin --binary --vt-csv vt_file.csv
    WORKING_DIRECTORY "${WORK_DIR}")
run(${cat_trace} "${ANALYZE}" pkt /dev/stdin --binary --vt-csv vt_pipe.csv
    WORKING_DIRECTORY "${WORK_DIR}")
expect_same_file("${WORK_DIR}/vt_file.csv" "${WORK_DIR}/vt_pipe.csv")
run(${cat_trace} "${ANALYZE}" pkt /dev/stdin --binary --filtered
    --vt-csv vt_pipe_filtered.csv WORKING_DIRECTORY "${WORK_DIR}")
expect_same_file("${WORK_DIR}/vt_bin.csv" "${WORK_DIR}/vt_pipe_filtered.csv")
run_fails("csv_chunk: input is not seekable, cannot read it twice"
          "${CMAKE_COMMAND}" -E cat nometa.csv COMMAND "${ANALYZE}" pkt
          /dev/stdin WORKING_DIRECTORY "${WORK_DIR}")

# --- ITA ASCII: nan and inf are bad lines ------------------------------
file(WRITE "${WORK_DIR}/nan.lbl-conn"
     "802397.21 58.1 telnet 111 222 2 15\n"
     "nan 58.1 telnet 111 222 2 15\n")
run_fails("lbl-conn bad timestamp 'nan'" "${ANALYZE}" conn
          "${WORK_DIR}/nan.lbl-conn" --ingest-format lbl-conn)
file(WRITE "${WORK_DIR}/nan.lbl-pkt"
     "0.000000 1 2 1025 23 0\n"
     "nan 2 1 23 1025 0\n")
run_fails("lbl-pkt unparsable field" "${INGEST}" pkt lbl-pkt
          "${WORK_DIR}/nan.lbl-pkt" --csv --out "${WORK_DIR}/nan_pkt.csv")
