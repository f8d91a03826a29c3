#include "src/ingest/onepass.hpp"

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace wan::ingest {

stream::PipelineResult analyze_pcap_onepass(
    PcapColumnSource& source, const stream::PipelineOptions& options) {
  if (!source.info_deferred()) return stream::analyze_columns(source, options);

  // The eager path rejects a non-positive bin up front (expected_bins
  // is zero); match its exception before streaming anything.
  if (!(options.bin > 0.0))
    throw std::invalid_argument("analyze_stream: series too short");

  // The filter stack analyze_columns builds. Its stages cache the inner
  // info() — whose deferred time range is zero, but only the derived
  // *name* is read from it here; the range comes from the emission
  // pass below.
  stream::ColumnFilterStack filtered(source, options);
  const std::string name = filtered.info().name;

  // Speculation failed (or never got off the ground): rewind, run the
  // prescan the deferred constructor skipped, and produce the result
  // through the ordinary two-pass path. The abandoned stack above is
  // rebuilt fresh by analyze_columns, so nothing stale survives into
  // the authoritative run.
  const auto fall_back = [&]() -> stream::PipelineResult {
    source.ensure_eager_info();
    return stream::analyze_columns(source, options);
  };

  // Single decode pass: bin as the packets flow, anchored at the first
  // emitted packet's time. The anchor is only available once a packet
  // has emitted, hence the lazy construction (a filter may pull many
  // raw chunks before its first surviving row, or drop every row).
  std::optional<stats::SpeculativeBinCounts> bins;
  std::uint64_t packets = 0;
  stream::PacketColumns chunk;
  while (filtered.next(chunk)) {
    packets += chunk.size();
    if (!bins) bins.emplace(source.first_emitted_time(), options.bin);
    bins->add(std::span<const double>(chunk.time));
  }

  // EOF: check the speculation.
  //  * Nothing emitted — the eager info would be a zero range; let the
  //    fallback throw "series too short" exactly as the eager path.
  //  * Any out-of-order packet — the first packet was not the minimum,
  //    so the anchor (and possibly bins already scattered) are wrong.
  if (!source.any_emitted() || source.stats().out_of_order != 0)
    return fall_back();
  // All rows filtered out: the grid still spans the *raw* time range
  // (filters forward the inner range); anchor it now.
  if (!bins) bins.emplace(source.first_emitted_time(), options.bin);
  const double t0 = source.first_emitted_time();
  const double mx = source.emitted_max_time();
  const double t_end = mx + source.tick();
  // Tick absorbed at double precision: the fixed grid's half-open
  // [t0, t_end) would *drop* the packets at mx, which the speculative
  // pass already counted. Rare (huge epoch magnitudes); redo exactly.
  if (!(t_end > mx)) return fall_back();
  std::optional<std::vector<double>> counts = bins->finish(t_end);
  if (!counts) return fall_back();

  // counts->size() == ceil((t_end - t0) / bin), the eager grid, so the
  // tail's 16-bin guard rejects exactly what the eager path would.
  const stream::CountTail tail({name, t0, t_end}, options.bin);
  return tail.finish(packets, std::move(*counts));
}

}  // namespace wan::ingest
