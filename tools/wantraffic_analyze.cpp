// wantraffic_analyze — run the paper's analyses on a trace file.
//
// Usage:
//   wantraffic_analyze conn FILE [--interval SECONDS] [--deperiodic]
//       Appendix-A Poisson verdicts per protocol + FTPDATA burst stats.
//   wantraffic_analyze pkt FILE [--bin SECONDS] [--protocol NAME]
//       [--binary] [--filtered] [--vt-csv FILE] [--chunk N]
//       Count-process Hurst battery (VT, R/S, GPH, Whittle, Beran).
//
// Both modes also accept --ingest-format=pcap|lbl-conn|lbl-pkt to read
// a real capture (libpcap binary or an Internet Traffic Archive ASCII
// format) instead of this repo's trace files: packets are folded
// through flow reconstruction (src/ingest) on the way in, so the
// analyses below see the same record types either way. Ingestion is
// strict by default; --lenient salvages damaged captures and prints the
// error ledger. pcap ingestion is zero-copy (mmap'd decode, flat flow
// table, direct columnar emission — DESIGN.md §14).
//
// pkt mode always streams: the file is read in chunks of --chunk
// records (src/stream), so memory is bounded by the chunk size, not the
// trace length — except under --filtered, whose bulk-outlier stage holds
// the originator-data rows (16 bytes each) until it has every
// connection's totals. Every run opens one column source (native for
// pcap, bridged for lbl-pkt and this repo's binary/CSV readers) and
// hands it to exactly one analysis: the windowed engine or
// analyze_columns. A trace file may be a pipe, unless it is a CSV
// without its metadata line, which is prescanned for its window.
//
// --threads N sizes the src/par worker pool the estimators run on;
// output is byte-identical at every thread count.
//
// --window W (pkt mode) switches to the incremental sliding-window
// engine (src/stream/window_analyzer.hpp): one report row per --slide S
// (default: per window) covering the trailing W seconds — count
// moments, burst/lull, variance-time H, a warm-started Whittle H on a
// rolling periodogram, optionally an aggregation sweep
// (--sweep-levels) and a windowed Appendix-A verdict
// (--poisson-interval I). --window-csv FILE writes the rows as a
// figure CSV. --window rejects the whole-stream-only --filtered and
// --vt-csv outputs with reasoned messages.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/core/poisson_report.hpp"
#include "src/ingest/ingest.hpp"
#include "src/par/parallel.hpp"
#include "src/selfsim/hurst_report.hpp"
#include "src/stats/tail_fit.hpp"
#include "src/stream/binary_chunk.hpp"
#include "src/stream/csv_chunk.hpp"
#include "src/stream/pipeline.hpp"
#include "src/stream/window_analyzer.hpp"
#include "src/trace/burst.hpp"
#include "src/trace/csv_io.hpp"
#include "src/trace/periodic.hpp"
#include "tools/arg_parse.hpp"

using namespace wan;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  wantraffic_analyze conn FILE [--interval SEC] "
               "[--deperiodic]\n"
               "  wantraffic_analyze pkt FILE [--bin SEC] "
               "[--protocol NAME] [--binary]\n"
               "                         [--filtered] [--vt-csv FILE] "
               "[--chunk N]\n"
               "                         [--threads N]\n"
               "                         [--window SEC [--slide SEC] "
               "[--segment-bins N]\n"
               "                          [--sweep-levels N] "
               "[--poisson-interval SEC]\n"
               "                          [--window-csv FILE]]\n"
               "  either mode: [--ingest-format pcap|lbl-conn|lbl-pkt] "
               "[--lenient]\n"
               "  FILE may be - (stdin) with --ingest-format pcap; a piped "
               "trace\n"
               "  file may not be a CSV without its metadata line\n");
  return 2;
}

// --ingest-format parsed into an IngestFormat, or nullopt when the flag
// is absent (the repo's own trace formats). Exits via exception on an
// unknown spelling.
std::optional<ingest::IngestFormat> ingest_format(
    const tools::ArgParser& args) {
  const std::string* s = args.value("--ingest-format");
  if (s == nullptr) return std::nullopt;
  const auto format = ingest::ingest_format_from_string(*s);
  if (!format)
    throw std::invalid_argument("unknown ingest format " + *s +
                                " (want pcap, lbl-conn or lbl-pkt)");
  return format;
}

ingest::IngestOptions ingest_options(const tools::ArgParser& args) {
  ingest::IngestOptions opt;
  opt.mode = args.has("--lenient") ? ingest::ParseMode::kLenient
                                   : ingest::ParseMode::kStrict;
  opt.chunk_size = args.count("--chunk", opt.chunk_size, 1);
  return opt;
}

void print_ingest_ledger(const ingest::IngestStats& stats) {
  const std::string ledger = stats.to_string();
  if (!ledger.empty())
    std::printf("\ningest ledger:\n%s\n", ledger.c_str());
}

int run_conn(const std::string& path, const tools::ArgParser& args) {
  trace::ConnTrace tr;
  if (const auto format = ingest_format(args)) {
    ingest::IngestStats stats;
    tr = ingest::reconstruct_conn_trace(path, *format, ingest_options(args),
                                        &stats);
    print_ingest_ledger(stats);
  } else {
    tr = trace::read_conn_csv_file(path);
  }
  std::printf("loaded %zu connection records from %s\n", tr.size(),
              path.c_str());
  if (args.has("--deperiodic")) {
    const auto before = tr.size();
    tr = trace::remove_periodic_streams(std::move(tr));
    std::printf("removed %zu periodic (weather-map-like) records\n",
                before - tr.size());
  }
  core::PoissonReportConfig cfg;
  cfg.interval_length = args.number("--interval", cfg.interval_length);
  const auto bursts = trace::find_ftp_bursts(tr, cfg.burst_gap);
  const auto rows = core::poisson_report(tr, cfg, bursts);
  std::printf("\n%s\n", core::render_poisson_report(rows).c_str());

  if (bursts.size() >= 100) {
    const auto bytes = trace::burst_bytes(bursts);
    std::printf("FTPDATA bursts: %zu; top 0.5%% of bursts hold %.1f%% "
                "of bytes; tail Pareto beta %.2f\n",
                bursts.size(),
                100.0 * stats::mass_in_top_fraction(bytes, 0.005),
                stats::ccdf_tail_fit(bytes, 0.05).beta);
  }
  return 0;
}

// Drains the source through the sliding-window engine and prints one
// report row per slide (plus the optional figure CSV).
int run_windowed(stream::PacketColumnSource& src,
                 const stream::WindowedOptions& opt,
                 const tools::ArgParser& args) {
  const auto reports = stream::analyze_windowed(src, opt);
  const stream::WindowGeometry geometry = stream::window_geometry(opt);
  std::printf("windowed analysis: %zu reports, window %zu bins, slide %zu "
              "bins, %zu segments/window of %zu bins\n",
              reports.size(), geometry.window_bins, geometry.slide_bins,
              geometry.segments_per_window, geometry.segment_bins);
  for (const stream::WindowReport& r : reports)
    std::printf("%s\n", stream::to_string(r).c_str());
  if (const std::string* out = args.value("--window-csv")) {
    std::ofstream os(*out);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for write\n", out->c_str());
      return 1;
    }
    os << stream::window_csv_header();
    for (const stream::WindowReport& r : reports)
      os << stream::window_csv_row(r);
    std::printf("wrote windowed CSV to %s\n", out->c_str());
  }
  return reports.empty() ? 1 : 0;
}

// --window* flags folded into WindowedOptions; rejects the flag
// combinations the windowed engine cannot honor.
std::optional<stream::WindowedOptions> windowed_options(
    const tools::ArgParser& args, const stream::PipelineOptions& pipeline) {
  if (!args.given("--window")) {
    for (const char* dep : {"--slide", "--segment-bins", "--sweep-levels",
                            "--poisson-interval", "--window-csv"})
      if (args.given(dep))
        throw std::invalid_argument(std::string(dep) +
                                    " only applies to the sliding-window "
                                    "engine: pass --window SECONDS");
    return std::nullopt;
  }
  args.reject_together("--window", "--filtered",
                       "the windowed engine has no streaming outlier pass; "
                       "use --protocol to restrict the stream");
  args.reject_together("--window", "--vt-csv",
                       "--vt-csv is the whole-stream variance-time figure; "
                       "use --window-csv for per-window rows");
  stream::WindowedOptions opt;
  opt.bin = pipeline.bin;
  opt.protocol = pipeline.protocol;
  opt.window = args.number("--window", 0.0);
  opt.slide = args.number("--slide", 0.0);
  opt.segment_bins = args.count("--segment-bins", 0);
  opt.sweep_levels = args.count("--sweep-levels", 0);
  opt.poisson_interval = args.number("--poisson-interval", 0.0);
  stream::window_geometry(opt);  // validate before any file is opened
  return opt;
}

int run_pkt(const std::string& path, const tools::ArgParser& args) {
  stream::PipelineOptions opt;
  opt.bin = args.number("--bin", opt.bin);
  if (const std::string* proto_s = args.value("--protocol")) {
    const auto p = trace::protocol_from_string(*proto_s);
    if (!p) {
      std::fprintf(stderr, "unknown protocol %s\n", proto_s->c_str());
      return 2;
    }
    opt.protocol = *p;
  }
  if (args.has("--filtered")) {
    opt.orig_data_only = true;
    opt.remove_outliers = true;
  }
  opt.chunk_size = args.count("--chunk", opt.chunk_size, 1);
  const auto windowed = windowed_options(args, opt);

  // One column source, dispatched once.
  std::unique_ptr<ingest::IngestColumnSource> ingested;
  std::unique_ptr<stream::PacketChunkSource> file;
  std::optional<stream::ColumnsFromRows> file_columns;
  stream::PacketColumnSource* src = nullptr;
  if (const auto format = ingest_format(args)) {
    ingested = ingest::open_packet_column_source(path, *format,
                                                 ingest_options(args));
    src = ingested.get();
  } else {
    if (args.has("--binary"))
      file = std::make_unique<stream::BinaryChunkSource>(path, opt.chunk_size);
    else
      file = std::make_unique<stream::CsvChunkSource>(path, opt.chunk_size);
    src = &file_columns.emplace(*file);
  }

  if (windowed) return run_windowed(*src, *windowed, args);
  const stream::PipelineResult result = stream::analyze_columns(*src, opt);
  // A capture is named by its source, a trace file by the filtered stream.
  std::printf("%s %llu packets from %s (%s)\n",
              ingested ? "ingested" : "streamed",
              static_cast<unsigned long long>(result.packets), path.c_str(),
              (ingested ? ingested->info() : result.info).name.c_str());
  if (ingested) print_ingest_ledger(ingested->stats());
  if (result.packets < 1000) {
    std::fprintf(stderr, "too few packets (%llu) for the battery\n",
                 static_cast<unsigned long long>(result.packets));
    return 1;
  }
  if (const std::string* out = args.value("--vt-csv")) {
    std::ofstream os(*out);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for write\n", out->c_str());
      return 1;
    }
    os << stream::vt_csv(result);
    std::printf("wrote variance-time CSV to %s\n", out->c_str());
  }
  const auto report = selfsim::hurst_report(result.counts, result.vt);
  std::printf("\ncount process: %zu bins of %.3g s\n%s\n",
              result.counts.size(), result.bin, report.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::ArgParser args(argc, argv);
  args.add_flag("--deperiodic");
  args.add_flag("--binary");
  args.add_flag("--filtered");
  args.add_flag("--lenient");
  args.add_option("--ingest-format");
  args.add_option("--interval");
  args.add_option("--bin");
  args.add_option("--protocol");
  args.add_option("--vt-csv");
  args.add_option("--chunk");
  args.add_option("--threads");
  args.add_option("--window");
  args.add_option("--slide");
  args.add_option("--segment-bins");
  args.add_option("--sweep-levels");
  args.add_option("--poisson-interval");
  args.add_option("--window-csv");

  std::string error;
  if (!args.parse(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage();
  }
  if (args.positional().size() != 2) return usage();
  const std::string& mode = args.positional()[0];
  const std::string& path = args.positional()[1];

  try {
    if (const std::size_t threads = args.count("--threads", 0, 1))
      par::set_thread_count(threads);
    if (mode == "conn") return run_conn(path, args);
    if (mode == "pkt") return run_pkt(path, args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
