// wantraffic_synth — command-line trace synthesizer.
//
// Usage:
//   wantraffic_synth conn --out trace.csv [--days N] [--seed S]
//                         [--preset lbl|small] [--no-weathermap]
//   wantraffic_synth pkt  --out trace.csv [--hours H] [--seed S]
//                         [--preset lbl|dec] [--all-protocols] [--binary]
//                         [--chunk N]
//
// Produces a SYN/FIN connection trace (CSV) or a packet trace
// (CSV, or the compact binary format with --binary). The packet trace
// is generated and written chunk by chunk, --chunk N records at a time,
// so peak memory is bounded by the chunk size, not the trace length.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/stream/binary_chunk.hpp"
#include "src/stream/csv_chunk.hpp"
#include "src/synth/stream_synth.hpp"
#include "src/synth/synthesizer.hpp"
#include "src/trace/csv_io.hpp"
#include "tools/arg_parse.hpp"

using namespace wan;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  wantraffic_synth conn --out FILE [--days N] [--seed S]\n"
      "                        [--preset lbl|small] [--no-weathermap]\n"
      "  wantraffic_synth pkt  --out FILE [--hours H] [--seed S]\n"
      "                        [--preset lbl|dec] [--all-protocols] "
      "[--binary]\n"
      "                        [--chunk N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tools::ArgParser args(argc, argv);
  args.add_flag("--no-weathermap");
  args.add_flag("--all-protocols");
  args.add_flag("--binary");
  args.add_option("--out");
  args.add_option("--days");
  args.add_option("--hours");
  args.add_option("--seed");
  args.add_option("--preset");
  args.add_option("--chunk");

  std::string error;
  if (!args.parse(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage();
  }
  if (args.positional().size() != 1) return usage();
  const std::string& mode = args.positional()[0];
  const std::string* out = args.value("--out");
  if (!out) return usage();
  const std::string* preset = args.value("--preset");

  try {
    const std::uint64_t seed = args.count("--seed", 1);
    if (mode == "conn") {
      const double days = args.number("--days", 1.0);
      auto cfg = (preset && *preset == "small")
                     ? synth::small_site_conn_preset("CLI", days, seed)
                     : synth::lbl_conn_preset("CLI", days, seed);
      if (args.has("--no-weathermap")) cfg.include_weathermap = false;
      const auto tr = synth::synthesize_conn_trace(cfg);
      trace::write_csv_file(tr, *out);
      std::printf("wrote %zu connection records (%.2f days) to %s\n",
                  tr.size(), days, out->c_str());
    } else if (mode == "pkt") {
      const bool all = args.has("--all-protocols");
      auto cfg = (preset && *preset == "dec")
                     ? synth::dec_wrl_pkt_preset("CLI", seed)
                     : synth::lbl_pkt_preset("CLI", !all, seed);
      cfg.hours = args.number("--hours", cfg.hours);

      synth::StreamingPacketSynthesizer src(
          cfg, args.count("--chunk", stream::kDefaultChunkSize, 1));
      std::uint64_t n = 0;
      if (args.has("--binary")) {
        stream::ChunkedBinaryWriter writer(*out, src.info());
        n = stream::drain_into(src, writer);
      } else {
        stream::ChunkedCsvWriter writer(*out, src.info());
        n = stream::drain_into(src, writer);
      }
      std::printf("streamed %llu packets (%.2f h) to %s\n",
                  static_cast<unsigned long long>(n), cfg.hours,
                  out->c_str());
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
