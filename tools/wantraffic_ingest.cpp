// wantraffic_ingest — pull a real capture into the repo's trace formats.
//
// Usage:
//   wantraffic_ingest pkt  FORMAT INPUT --out FILE [--csv] [--lenient]
//       [--chunk N] [--idle-timeout SEC]
//     Packets (with flow-reconstructed conn ids and protocols) written
//     as a binary packet trace (default) or packet CSV. FORMAT is
//     pcap or lbl-pkt.
//   wantraffic_ingest conn FORMAT INPUT [--out FILE] [--lenient]
//       [--idle-timeout SEC]
//     Connections (reconstructed for the packet formats, read directly
//     for lbl-conn) loaded whole in one pass, summarized per protocol
//     and optionally written as connection CSV. FORMAT is pcap,
//     lbl-conn or lbl-pkt.
//
// --chunk N (pkt mode only) sets the records per chunk; conn mode
// rejects it, because connections have no chunks.
//
// INPUT may be "-" for pcap: stdin is spooled to an anonymous temp file
// and served through the buffered byte source, so the two-pass
// (prescan + rewind) packet sources work on piped captures unchanged.
//
// Parsing is strict by default: the first structural defect aborts the
// run. --lenient salvages what the file still holds and prints the
// error ledger of everything that was dropped or repaired.
//
// Packets, in either mode, fold through one flow table
// (src/ingest/flow_table.hpp) on the calling thread.
//
// The binary output is byte-identical to what write_binary_file would
// produce from the same records, so every downstream tool (and the
// --binary paths of wantraffic_analyze) reads ingested and synthesized
// traces interchangeably.
#include <cstdio>
#include <string>

#include "src/ingest/ingest.hpp"
#include "src/stream/binary_chunk.hpp"
#include "src/stream/csv_chunk.hpp"
#include "src/trace/csv_io.hpp"
#include "tools/arg_parse.hpp"

using namespace wan;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  wantraffic_ingest pkt  FORMAT INPUT --out FILE [--csv]\n"
      "                         [--lenient] [--chunk N] [--idle-timeout "
      "SEC]\n"
      "  wantraffic_ingest conn FORMAT INPUT [--out FILE] [--lenient]\n"
      "                         [--idle-timeout SEC]\n"
      "  FORMAT: pcap | lbl-conn | lbl-pkt\n"
      "  INPUT:  a capture path, or - for stdin (pcap only)\n");
  return 2;
}

ingest::IngestOptions make_options(const tools::ArgParser& args) {
  ingest::IngestOptions opt;
  opt.mode = args.has("--lenient") ? ingest::ParseMode::kLenient
                                   : ingest::ParseMode::kStrict;
  opt.chunk_size = args.count("--chunk", opt.chunk_size, 1);
  opt.flow.idle_timeout =
      args.number("--idle-timeout", opt.flow.idle_timeout);
  return opt;
}

void print_ledger(const ingest::IngestStats& stats) {
  const std::string ledger = stats.to_string();
  if (!ledger.empty()) std::printf("\ningest ledger:\n%s\n", ledger.c_str());
}

int run_pkt(ingest::IngestFormat format, const std::string& input,
            const tools::ArgParser& args) {
  const std::string* out = args.value("--out");
  if (out == nullptr) {
    std::fprintf(stderr, "pkt mode needs --out FILE\n");
    return usage();
  }
  const auto opt = make_options(args);
  const auto source = ingest::open_packet_source(input, format, opt);
  const stream::StreamInfo& info = source->info();

  std::uint64_t packets = 0;
  if (args.has("--csv")) {
    stream::ChunkedCsvWriter writer(*out, info);
    packets = stream::drain_into(*source, writer);
  } else {
    stream::ChunkedBinaryWriter writer(*out, info);
    packets = stream::drain_into(*source, writer);
  }

  std::printf("%s: %llu packets over [%.6f, %.6f) -> %s\n",
              info.name.c_str(), static_cast<unsigned long long>(packets),
              info.t_begin, info.t_end, out->c_str());
  print_ledger(source->stats());
  return 0;
}

int run_conn(ingest::IngestFormat format, const std::string& input,
             const tools::ArgParser& args) {
  if (args.given("--chunk"))
    throw std::invalid_argument(
        "--chunk applies to pkt mode only: connections load whole, in one "
        "pass");
  const auto opt = make_options(args);
  ingest::IngestStats stats;
  const auto tr = ingest::reconstruct_conn_trace(input, format, opt, &stats);

  std::printf("%s: %zu connections over [%.6f, %.6f)\n", tr.name().c_str(),
              tr.size(), tr.t_begin(), tr.t_end());
  for (const auto& row : tr.summary()) {
    std::printf("  %-8s %8zu conns %14llu bytes\n",
                std::string(trace::to_string(row.protocol)).c_str(),
                row.connections, static_cast<unsigned long long>(row.bytes));
  }
  if (const std::string* out = args.value("--out")) {
    trace::write_csv_file(tr, *out);
    std::printf("wrote connection CSV to %s\n", out->c_str());
  }
  print_ledger(stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::ArgParser args(argc, argv);
  args.add_flag("--csv");
  args.add_flag("--lenient");
  args.add_option("--out");
  args.add_option("--chunk");
  args.add_option("--idle-timeout");

  std::string error;
  if (!args.parse(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage();
  }
  if (args.positional().size() != 3) return usage();
  const std::string& mode = args.positional()[0];
  const auto format = ingest::ingest_format_from_string(args.positional()[1]);
  const std::string& input = args.positional()[2];
  if (!format) {
    std::fprintf(stderr, "unknown format %s\n", args.positional()[1].c_str());
    return usage();
  }

  try {
    if (mode == "pkt") return run_pkt(*format, input, args);
    if (mode == "conn") return run_conn(*format, input, args);
    return usage();
  } catch (const ingest::IngestError& e) {
    std::fprintf(stderr, "strict parse failed: %s\n(--lenient salvages "
                 "what the file still holds)\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
