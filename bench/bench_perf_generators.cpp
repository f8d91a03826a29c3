// Perf bench for traffic generation and the spectral engine: whole-trace
// synthesis serial vs parallel (per-source tasks), serial sampling
// micro-ops, planned fft/rfft/fGn/Whittle rows at 2^16-2^20, kernel rows
// for the monitor's segment transforms (rfft/150, rfft/300, fft/256), and
// the rfft-vs-complex periodogram comparison (the acceptance criterion
// for the real-input path). Appends results to BENCH_perf.json (see
// bench_harness.hpp).
//
// `--smoke` shrinks every workload to CI-sized inputs so the whole run
// takes seconds; the JSON rows still land, catching perf-pipeline
// regressions (a bench that stops building/running) if not absolute
// regressions.
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_harness.hpp"
#include "src/dist/pareto.hpp"
#include "src/dist/tcplib.hpp"
#include "src/fft/fft.hpp"
#include "src/fft/periodogram.hpp"
#include "src/par/parallel.hpp"
#include "src/rng/rng.hpp"
#include "src/selfsim/fgn.hpp"
#include "src/stats/whittle.hpp"
#include "src/synth/synthesizer.hpp"
#include "src/trace/conn_trace.hpp"
#include "src/trace/packet_trace.hpp"

using namespace wan;

namespace {

bool same_conn_trace(const trace::ConnTrace& a, const trace::ConnTrace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.records()[i];
    const auto& y = b.records()[i];
    if (x.start != y.start || x.duration != y.duration ||
        x.protocol != y.protocol || x.src_host != y.src_host ||
        x.dst_host != y.dst_host || x.bytes_orig != y.bytes_orig ||
        x.bytes_resp != y.bytes_resp || x.session_id != y.session_id)
      return false;
  }
  return true;
}

bool same_packet_trace(const trace::PacketTrace& a,
                       const trace::PacketTrace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.records()[i];
    const auto& y = b.records()[i];
    if (x.time != y.time || x.protocol != y.protocol ||
        x.conn_id != y.conn_id || x.from_originator != y.from_originator ||
        x.payload_bytes != y.payload_bytes)
      return false;
  }
  return true;
}

bool same_complex(const std::vector<fft::cd>& a,
                  const std::vector<fft::cd>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].real() != b[i].real() || a[i].imag() != b[i].imag())
      return false;
  return true;
}

bool same_reals(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

/// The pre-plan periodogram path, kept as the bench baseline: two-pass
/// mean, widen every real to a complex point, full-size complex FFT.
fft::Periodogram legacy_complex_periodogram(const std::vector<double>& x) {
  const std::size_t n = x.size();
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(n);
  std::vector<fft::cd> centered(n);
  for (std::size_t t = 0; t < n; ++t)
    centered[t] = fft::cd(x[t] - mean, 0.0);
  const auto spectrum = fft::fft(centered);
  fft::Periodogram pg;
  pg.frequency = fft::fourier_frequencies(n);
  pg.ordinate.resize(pg.frequency.size());
  const double scale = 1.0 / (2.0 * M_PI * static_cast<double>(n));
  for (std::size_t j = 1; j <= pg.ordinate.size(); ++j)
    pg.ordinate[j - 1] = std::norm(spectrum[j]) * scale;
  return pg;
}

/// Relative comparison for the cross-algorithm periodogram row (the two
/// paths regroup the same arithmetic, so they agree to ~1e-10; the
/// documented pin lives in tests/test_fft_plan.cpp).
bool periodograms_close(const fft::Periodogram& a, const fft::Periodogram& b,
                        double rel = 1e-6) {
  if (a.ordinate.size() != b.ordinate.size()) return false;
  for (std::size_t j = 0; j < a.ordinate.size(); ++j) {
    const double tol = rel * (std::abs(a.ordinate[j]) + 1e-300);
    if (std::abs(a.ordinate[j] - b.ordinate[j]) > tol) return false;
  }
  return true;
}

std::vector<fft::cd> random_complex(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<fft::cd> x(n);
  for (auto& v : x)
    v = fft::cd(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return x;
}

std::vector<double> random_reals(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

bool same_whittle(const stats::WhittleResult& a,
                  const stats::WhittleResult& b) {
  return a.hurst == b.hurst && a.scale == b.scale &&
         a.objective == b.objective && a.stderr_hurst == b.stderr_hurst;
}

std::string pow2_name(const char* op, std::size_t lg) {
  return std::string(op) + "/2^" + std::to_string(lg);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  bench::Harness harness(argc, argv);

  // Whole-day SYN/FIN connection trace, all eight per-protocol sources.
  {
    const auto cfg =
        synth::lbl_conn_preset("bench", smoke ? 0.05 : 1.0, 42);
    trace::ConnTrace serial, parallel;
    harness.compare(
        smoke ? "synthesize_conn_trace/smoke" : "synthesize_conn_trace/day",
        1.0, "traces", [&] { serial = synth::synthesize_conn_trace(cfg); },
        [&] { parallel = synth::synthesize_conn_trace(cfg); },
        [&] { return same_conn_trace(serial, parallel); });
    std::printf("  (conn records: %zu)\n", serial.size());
  }

  // Packet-level trace, quarter hour (FULL-TEL + bulk fill).
  {
    auto cfg = synth::lbl_pkt_preset("bench", /*tcp_only=*/true, 42);
    cfg.hours = smoke ? 0.02 : 0.25;
    trace::PacketTrace serial, parallel;
    harness.compare(
        smoke ? "synthesize_packet_trace/smoke"
              : "synthesize_packet_trace/15min",
        1.0, "traces", [&] { serial = synth::synthesize_packet_trace(cfg); },
        [&] { parallel = synth::synthesize_packet_trace(cfg); },
        [&] { return same_packet_trace(serial, parallel); });
    std::printf("  (packet records: %zu)\n", serial.size());
  }

  // Serial sampling micro-ops, for the per-draw cost trajectory.
  {
    const std::size_t kDraws = smoke ? 20000 : 1000000;
    rng::Rng rng(1);
    const dist::TcplibTelnetInterarrival tcplib;
    harness.serial_only("sample/tcplib_interarrival",
                        static_cast<double>(kDraws), "draws", [&] {
                          double acc = 0.0;
                          for (std::size_t i = 0; i < kDraws; ++i)
                            acc += tcplib.sample(rng);
                          if (acc < 0.0) std::printf("%f", acc);
                        });
    const dist::Pareto pareto(1.0, 1.06);
    harness.serial_only("sample/pareto", static_cast<double>(kDraws),
                        "draws", [&] {
                          double acc = 0.0;
                          for (std::size_t i = 0; i < kDraws; ++i)
                            acc += pareto.sample(rng);
                          if (acc < 0.0) std::printf("%f", acc);
                        });
  }

  // --- Spectral engine rows ----------------------------------------------
  // Serial vs parallel planned transforms; every row's `identical` flag
  // asserts the parallel output is bit-for-bit the serial one (the
  // determinism contract DESIGN.md section 9 documents).
  const std::vector<std::size_t> fft_sizes =
      smoke ? std::vector<std::size_t>{10, 12}
            : std::vector<std::size_t>{16, 18, 20};
  for (std::size_t lg : fft_sizes) {
    const std::size_t n = std::size_t{1} << lg;
    const int reps = lg >= 20 ? 1 : 3;

    {
      const auto x = random_complex(n, 900 + lg);
      std::vector<fft::cd> serial, parallel;
      harness.compare(
          pow2_name("fft", lg), static_cast<double>(n), "points",
          [&] { serial = fft::fft(x); }, [&] { parallel = fft::fft(x); },
          [&] { return same_complex(serial, parallel); }, reps);
    }
    {
      const auto x = random_reals(n, 910 + lg);
      std::vector<fft::cd> serial, parallel;
      harness.compare(
          pow2_name("rfft", lg), static_cast<double>(n), "points",
          [&] { serial = fft::rfft(x); }, [&] { parallel = fft::rfft(x); },
          [&] { return same_complex(serial, parallel); }, reps);
    }
    {
      // Warm the circulant-eigenvalue cache so the row times synthesis,
      // not the one-shot per-(size, H) embedding build the first run
      // would otherwise absorb.
      (void)selfsim::fgn_circulant_eigenvalues(n, 0.8);
      std::vector<double> serial, parallel;
      harness.compare(
          pow2_name("generate_fgn", lg), static_cast<double>(n), "points",
          [&] {
            rng::Rng rng(920 + lg);
            serial = selfsim::generate_fgn(rng, n, 0.8);
          },
          [&] {
            rng::Rng rng(920 + lg);
            parallel = selfsim::generate_fgn(rng, n, 0.8);
          },
          [&] { return same_reals(serial, parallel); }, reps);
    }
    {
      // Whittle cost is dominated by spectral-density evaluations over
      // n/2 ordinates, so one rep per size is plenty of signal.
      rng::Rng rng(930 + lg);
      const auto x = selfsim::generate_fgn(rng, n, 0.8);
      stats::WhittleResult serial, parallel;
      harness.compare(
          pow2_name("whittle_fgn", lg), static_cast<double>(n), "points",
          [&] { serial = stats::whittle_fgn(x); },
          [&] { parallel = stats::whittle_fgn(x); },
          [&] { return same_whittle(serial, parallel); }, /*reps=*/1);
    }
  }

  // --- Kernel rows: the monitor's segment transforms ---------------------
  // rfft at 150 and 300 points (the Welch segment lengths at
  // --sweep-levels 1 and 0, whose packed halves of 75 and 150 points
  // take Bluestein) and the radix-2 256-point transform that serves
  // Bluestein at 75. One rep times a batch of transforms on the
  // process-CPU clock at 1 thread; a row keeps the best of 9 reps.
  {
    const std::size_t batch = smoke ? 200 : 5000;
    const auto kernel_row = [&](const std::string& op,
                                const std::function<void()>& once) {
      bench::BenchResult row;
      row.op = op;
      row.threads = 1;
      row.items = static_cast<double>(batch);
      row.unit = "transforms";
      row.repeats = 9;
      par::set_thread_count(1);
      row.serial_ms = bench::min_cpu_time_ms(
          [&] {
            for (std::size_t i = 0; i < batch; ++i) once();
          },
          row.repeats);
      row.parallel_ms = row.serial_ms;
      row.throughput =
          row.serial_ms > 0.0 ? row.items / (row.serial_ms / 1000.0) : 0.0;
      row.extra = {{"clock", "\"process_cpu\""},
                   {"us_per_transform",
                    std::to_string(1000.0 * row.serial_ms / row.items)}};
      harness.add(row);
    };
    const auto x150 = random_reals(150, 950);
    const auto x300 = random_reals(300, 951);
    const auto z256 = random_complex(256, 952);
    std::vector<fft::cd> out;
    kernel_row("rfft/150", [&] { out = fft::rfft(x150); });
    kernel_row("rfft/300", [&] { out = fft::rfft(x300); });
    kernel_row("fft/256", [&] { out = fft::fft(z256); });
  }

  // --- Acceptance row: rfft periodogram vs the legacy complex path -------
  // Both runs single-threaded; serial_ms = legacy complex path,
  // parallel_ms = planned rfft path, so the speedup column reads as
  // "rfft gain over the complex baseline" (target >= 1.5x at 2^20).
  {
    const std::size_t lg = smoke ? 12 : 20;
    const std::size_t n = std::size_t{1} << lg;
    const auto x = random_reals(n, 940);

    bench::BenchResult r;
    r.op = pow2_name("periodogram_rfft_vs_complex", lg);
    r.threads = 1;
    r.items = static_cast<double>(n);
    r.unit = "points";
    par::set_thread_count(1);
    fft::Periodogram legacy, planned;
    r.serial_ms = bench::min_time_ms(
        [&] { legacy = legacy_complex_periodogram(x); }, smoke ? 3 : 5);
    r.parallel_ms = bench::min_time_ms(
        [&] { planned = fft::periodogram(x); }, smoke ? 3 : 5);
    r.speedup = r.parallel_ms > 0.0 ? r.serial_ms / r.parallel_ms : 1.0;
    r.throughput =
        r.parallel_ms > 0.0 ? r.items / (r.parallel_ms / 1000.0) : 0.0;
    r.identical = periodograms_close(legacy, planned);
    r.extra = {{"single_thread", "true"},
               {"speedup_target", "1.5"},
               {"meets_target", r.speedup >= 1.5 ? "true" : "false"}};
    harness.add(r);
    if (!smoke && (r.speedup < 1.5 || !r.identical)) {
      std::printf("FAIL: rfft periodogram speedup %.2fx < 1.5x target "
                  "(or outputs diverged)\n",
                  r.speedup);
      return 1;
    }
  }

  return 0;
}
