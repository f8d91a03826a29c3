#include "src/monitor/mux.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>

#include "src/fft/periodogram.hpp"
#include "src/par/parallel.hpp"
#include "src/stats/whittle.hpp"

namespace wan::monitor {

EngineMux::EngineMux(const stream::WindowedOptions& options,
                     const std::vector<trace::Protocol>& protocols,
                     double t_begin)
    : options_(options),
      t_begin_(t_begin),
      last_t1_(std::numeric_limits<double>::quiet_NaN()) {
  if (options_.protocol)
    throw std::invalid_argument(
        "EngineMux: the mux partitions by protocol itself; pass options "
        "without a protocol filter");
  const stream::WindowGeometry geometry =
      stream::window_geometry(options_);  // validate once, loudly

  // One refitter for every engine, so each table row is built once for
  // all of them: left to the engines, every engine would make its own at
  // its first report and build the rows it reads for itself.
  const std::shared_ptr<const stats::WhittleRefitter> refitter =
      std::make_shared<stats::WhittleRefitter>(
          fft::fourier_frequencies(geometry.segment_bins));

  engines_.resize(protocols.size() + 1);
  engines_[0].name = "ALL";
  engines_[0].all = true;
  bucket_of_.fill(kUntracked);
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const auto p = static_cast<std::uint8_t>(protocols[i]);
    if (bucket_of_[p] == kUntracked) {
      bucket_of_[p] = static_cast<std::uint8_t>(buckets_.size());
      buckets_.emplace_back();
    }
    engines_[i + 1].name = std::string(trace::to_string(protocols[i]));
    engines_[i + 1].bucket = bucket_of_[p];
  }
  for (Engine& e : engines_) {
    auto* pending = &e.pending;
    e.analyzer = std::make_unique<stream::WindowedAnalyzer>(
        options_, t_begin,
        [pending](const stream::WindowReport& r) { pending->push_back(r); },
        refitter);
  }
}

void EngineMux::push(const stream::PacketColumns& chunk) {
  if (chunk.empty()) return;
  // Partition once, serially, in one pass over the chunk: every engine's
  // input is then fixed before the parallel region, whatever the thread
  // count, and the engines only read it.
  for (std::vector<double>& bucket : buckets_) bucket.clear();
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const std::uint8_t b =
        bucket_of_[static_cast<std::uint8_t>(chunk.protocol[i])];
    if (b != kUntracked) buckets_[b].push_back(chunk.time[i]);
  }
  const auto input = [&](const Engine& e) {
    return e.all ? std::span<const double>(chunk.time)
                 : std::span<const double>(buckets_[e.bucket]);
  };
  for (Engine& e : engines_) e.events += input(e).size();

  // Advance target: the start of the bin holding the newest event.
  // Completing bins strictly before it is exactly what pushing a later
  // event would have done, so idle engines stay in lockstep without
  // ever closing the current (still-filling) bin early.
  const double t_hi = chunk.time.back();
  const double rel = (t_hi - t_begin_) / options_.bin;
  const double edge =
      rel <= 0.0 ? t_begin_ : t_begin_ + std::floor(rel) * options_.bin;

  par::parallel_for(0, engines_.size(), 1,
                    [&](std::size_t b, std::size_t e) {
                      for (std::size_t i = b; i < e; ++i) {
                        Engine& eng = engines_[i];
                        eng.analyzer->push_times(input(eng));
                        eng.analyzer->finish(edge);
                      }
                    });
}

void EngineMux::finish(double t_end) {
  par::parallel_for(0, engines_.size(), 1,
                    [&](std::size_t b, std::size_t e) {
                      for (std::size_t i = b; i < e; ++i)
                        engines_[i].analyzer->finish(t_end);
                    });
}

void EngineMux::take_reports(std::vector<MuxReport>& out) {
  for (;;) {
    for (const Engine& e : engines_)
      if (e.pending.empty()) return;
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      out.push_back({i, std::move(engines_[i].pending.front())});
      engines_[i].pending.pop_front();
      ++reports_emitted_;
    }
    last_t1_ = out.back().report.t1;
  }
}

}  // namespace wan::monitor
