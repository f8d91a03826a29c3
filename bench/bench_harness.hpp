// Minimal serial-vs-parallel perf harness for the bench_perf_* targets.
//
// Each op is timed twice — once with the par layer forced serial
// (1 thread) and once at the configured thread count — and the caller
// supplies an equality check so the JSON records that the parallel run
// reproduced the serial output exactly. Results append into one shared
// BENCH_perf.json (array of objects), so running both perf benches
// produces a single machine-readable perf trajectory file.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/par/parallel.hpp"

// The build injects WAN_BENCH_DEFAULT_JSON (the repo-root
// BENCH_perf.json) so every bench appends into the one committed perf
// trajectory file regardless of the working directory it runs from. The
// cwd fallback keeps the header usable outside the repo's build.
#ifndef WAN_BENCH_DEFAULT_JSON
#define WAN_BENCH_DEFAULT_JSON "BENCH_perf.json"
#endif
// The build also injects the configured revision and build type, which
// provenance() stamps on every row.
#ifndef WAN_BENCH_REV
#define WAN_BENCH_REV "unknown"
#endif
#ifndef WAN_BENCH_BUILD_TYPE
#define WAN_BENCH_BUILD_TYPE "unknown"
#endif

namespace wan::bench {

struct BenchResult {
  std::string op;
  std::size_t threads = 1;    ///< thread count of the parallel run
  double items = 0.0;         ///< work units per run, for throughput
  std::string unit = "items";
  double serial_ms = 0.0;
  double parallel_ms = 0.0;   ///< == serial_ms for serial-only ops
  double speedup = 1.0;       ///< serial_ms / parallel_ms
  double throughput = 0.0;    ///< items per second at the best time
  bool identical = true;      ///< parallel output matched serial output
  int repeats = 1;            ///< timed runs behind the recorded times
  /// Extra key → raw-JSON-value pairs appended verbatim to the record
  /// (e.g. {"peak_rss_kb", "12345"} or {"rss_bounded", "true"}), for
  /// benches that measure more than wall time. provenance()'s keys are
  /// stamped on every row already.
  std::vector<std::pair<std::string, std::string>> extra;
};

/// Physical cores the host reports (>= 1). Every JSON row records this
/// next to its thread count, and speedup gates must require cores() > 1:
/// on a 1-core container a parallel run cannot beat serial, so a ~1x
/// "speedup" there is a scheduling fact, not a regression.
inline std::size_t cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

/// Where a row was measured, as key → raw-JSON-value pairs that
/// Harness::write stamps on every row: the source revision the build
/// was configured from (git describe, "-dirty" when the tree had
/// uncommitted changes then), the UTC date of the run, the build type
/// and the host's CPU model.
inline std::vector<std::pair<std::string, std::string>> provenance() {
  const auto quoted = [](std::string v) {
    std::string out = "\"";
    for (char c : v)
      if (c != '"' && c != '\\') out += c;
    return out + "\"";
  };
  char date[16] = "unknown";
  const std::time_t now = std::time(nullptr);
  if (const std::tm* utc = std::gmtime(&now))
    std::strftime(date, sizeof(date), "%Y-%m-%d", utc);
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size())
      cpu = line.substr(colon + 2);
    break;
  }
  return {{"rev", quoted(WAN_BENCH_REV)},
          {"date", quoted(date)},
          {"build_type", quoted(WAN_BENCH_BUILD_TYPE)},
          {"cpu_model", quoted(cpu)}};
}

/// Best-of-`reps` wall time of fn, in milliseconds.
inline double min_time_ms(const std::function<void()>& fn, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

/// Best-of-`reps` process CPU time of fn, in milliseconds. For
/// single-threaded A/B legs on shared hosts: wall time charges whatever
/// the hypervisor steals mid-rep to whichever leg happened to be
/// running, which can swing an A/B ratio by double digits; CPU time
/// counts only the cycles the process actually executed. Never use it
/// for multi-threaded work — the clock sums across threads, so a
/// perfect 4-way parallel run "takes" the same CPU time as its serial
/// leg.
inline double min_cpu_time_ms(const std::function<void()>& fn, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    timespec t0{}, t1{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t0);
    fn();
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t1);
    const double ms = static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e3 +
                      static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-6;
    if (ms < best) best = ms;
  }
  return best;
}

/// A fixed leg of CPU and memory work that no change to the program
/// touches: splitmix64 over a fixed array of 2^20 words (8 MiB), each
/// word replaced by its mix, four passes. Timed next to a measured leg,
/// it tells how fast this process runs on this host at the time, so a
/// row can be bounded against an earlier process's as a ratio of the
/// two times (min_cpu_time_calibrated_ms, Harness::bound_by_previous).
inline void calibration_leg() {
  static std::vector<std::uint64_t> words(std::size_t{1} << 20, 1);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t& w : words) {
      std::uint64_t z = (state += 0x9E3779B97F4A7C15ull) ^ w;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      w = z ^ (z >> 31);
    }
  }
}

/// Best process CPU times, in milliseconds, of a measured leg and of
/// calibration_leg(), timed alternately.
struct CalibratedMs {
  double ms = 0.0;
  double calib_ms = 0.0;
};

/// Times calibration_leg() and then fn, `reps` times in turn, on the
/// process-CPU clock, and returns each one's best. Single-threaded legs
/// only, as min_cpu_time_ms.
inline CalibratedMs min_cpu_time_calibrated_ms(const std::function<void()>& fn,
                                               int reps) {
  CalibratedMs best{1e300, 1e300};
  for (int r = 0; r < reps; ++r) {
    best.calib_ms =
        std::min(best.calib_ms, min_cpu_time_ms(calibration_leg, 1));
    best.ms = std::min(best.ms, min_cpu_time_ms(fn, 1));
  }
  return best;
}

/// Median-of-`reps` wall time of fn after one untimed warmup run, in
/// milliseconds — the --repeat timing mode. Median resists the
/// one-sided noise (page faults, frequency ramps, a neighbor stealing
/// the core) that makes min optimistic and mean pessimistic; the warmup
/// pays the cold-cache/allocator cost outside the measurement.
inline double median_time_ms(const std::function<void()>& fn, int reps = 3) {
  fn();  // warmup, untimed
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps > 0 ? reps : 1));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1
             ? samples[mid]
             : 0.5 * (samples[mid - 1] + samples[mid]);
}

class Harness {
 public:
  /// argv[1], when it is not a flag, overrides the JSON output path
  /// (default: the repo-root BENCH_perf.json baked in at build time).
  /// "--repeat N" anywhere in argv switches every compare/serial_only
  /// timing from best-of-reps to median-of-N-with-warmup; other flags
  /// (--smoke, bench-specific knobs) pass through untouched for the
  /// bench's own argv scan. Only position 1 can be the path — a later
  /// bare token may be some flag's value (e.g. "--days 30").
  Harness(int argc, char** argv)
      : path_(WAN_BENCH_DEFAULT_JSON),
        threads_(par::thread_count() > 4 ? par::thread_count() : 4) {
    if (argc > 1 && argv[1][0] != '-') path_ = argv[1];
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--repeat") == 0) {
        repeat_ = std::atoi(argv[i + 1]);
        if (repeat_ < 1) repeat_ = 1;
      }
    }
    std::printf("%-34s %10s %10s %8s %8s %s\n", "op", "serial_ms",
                "par_ms", "speedup", "ident", "throughput");
  }

  ~Harness() { write(); }

  std::size_t threads() const { return threads_; }

  /// Timed runs per measurement: the --repeat override, or the bench's
  /// own default when --repeat was not given.
  int repeats(int fallback) const { return repeat_ > 0 ? repeat_ : fallback; }

  /// One measurement under the active timing mode: median-of-N with
  /// warmup under --repeat, best-of-reps otherwise.
  double time_ms(const std::function<void()>& fn, int reps) const {
    const int n = repeats(reps);
    return repeat_ > 0 ? median_time_ms(fn, n) : min_time_ms(fn, n);
  }

  /// Appends rows/sec and bytes/sec extras derived from the row's best
  /// time: rows_per_s is the throughput in items (records) per second,
  /// bytes_per_s scales it by the per-item byte width. Benches that know
  /// their record size call this (or pass bytes_per_item to compare /
  /// serial_only) so BENCH_perf.json rows carry both rate columns.
  static void add_rates(BenchResult& r, double bytes_per_item) {
    std::ostringstream rows, bytes;
    rows << r.throughput;
    bytes << r.throughput * bytes_per_item;
    r.extra.emplace_back("rows_per_s", rows.str());
    r.extra.emplace_back("bytes_per_s", bytes.str());
  }

  /// Times `run_serial` at 1 thread and `run_parallel` at threads(); the
  /// two closures should write their outputs into distinct caller-held
  /// slots which `identical` then compares. Runs repeat `reps` times, so
  /// they must be idempotent for a fixed seed. bytes_per_item > 0 adds
  /// the rows/sec + bytes/sec extras.
  void compare(const std::string& op, double items, const std::string& unit,
               const std::function<void()>& run_serial,
               const std::function<void()>& run_parallel,
               const std::function<bool()>& identical, int reps = 3,
               double bytes_per_item = 0.0) {
    BenchResult r;
    r.op = op;
    r.threads = threads_;
    r.items = items;
    r.unit = unit;
    r.repeats = repeats(reps);

    par::set_thread_count(1);
    r.serial_ms = time_ms(run_serial, reps);

    par::set_thread_count(threads_);
    r.parallel_ms = time_ms(run_parallel, reps);

    r.speedup = r.parallel_ms > 0.0 ? r.serial_ms / r.parallel_ms : 1.0;
    const double best =
        r.parallel_ms < r.serial_ms ? r.parallel_ms : r.serial_ms;
    r.throughput = best > 0.0 ? items / (best / 1000.0) : 0.0;
    r.identical = identical();
    if (bytes_per_item > 0.0) add_rates(r, bytes_per_item);
    add(r);
  }

  /// Times a serial-only op (no parallel path); speedup is reported as 1.
  void serial_only(const std::string& op, double items,
                   const std::string& unit, const std::function<void()>& run,
                   int reps = 3, double bytes_per_item = 0.0) {
    BenchResult r;
    r.op = op;
    r.threads = 1;
    r.items = items;
    r.unit = unit;
    r.repeats = repeats(reps);
    par::set_thread_count(1);
    r.serial_ms = time_ms(run, reps);
    r.parallel_ms = r.serial_ms;
    r.throughput =
        r.serial_ms > 0.0 ? items / (r.serial_ms / 1000.0) : 0.0;
    if (bytes_per_item > 0.0) add_rates(r, bytes_per_item);
    add(r);
  }

  /// serial_ms / calib_ms of the latest row already in the target JSON
  /// with this op, this run's cpu_model and build_type (as provenance()
  /// stamps them) and a calib_ms; nullopt when there is none. write()
  /// puts one row per line, so rows are matched line by line.
  std::optional<double> previous_ratio(const std::string& op) const {
    std::vector<std::string> want = {"{\"op\": \"" + op + "\","};
    for (const auto& [key, value] : provenance())
      if (key == "cpu_model" || key == "build_type")
        want.push_back("\"" + key + "\": " + value);
    const auto number = [](const std::string& line, const std::string& key)
        -> std::optional<double> {
      const std::size_t at = line.find("\"" + key + "\": ");
      if (at == std::string::npos) return std::nullopt;
      return std::strtod(line.c_str() + at + key.size() + 4, nullptr);
    };
    std::optional<double> found;
    std::ifstream in(path_);
    for (std::string line; std::getline(in, line);) {
      const std::optional<double> ms = number(line, "serial_ms");
      const std::optional<double> calib = number(line, "calib_ms");
      if (ms && calib && *calib > 0.0 &&
          std::all_of(want.begin(), want.end(), [&](const std::string& w) {
            return line.find(w) != std::string::npos;
          }))
        found = *ms / *calib;
    }
    return found;
  }

  /// Largest ratio to the previous row bound_by_previous accepts.
  static constexpr double kMaxSlowdown = 1.10;

  /// The previous-row check of a single-leg row whose serial_ms and
  /// `calib_ms` come from min_cpu_time_calibrated_ms: true when
  /// serial_ms / calib_ms is at most kMaxSlowdown times
  /// previous_ratio(op), or there is no such ratio (the first row just
  /// records). Adds the calib_ms, ratio, previous_ratio and
  /// max_slowdown extras to `r`; the caller decides whether a failed
  /// check fails its run.
  bool bound_by_previous(BenchResult& r, double calib_ms) const {
    const std::optional<double> previous = previous_ratio(r.op);
    const double ratio = calib_ms > 0.0 ? r.serial_ms / calib_ms : 0.0;
    r.extra.emplace_back("clock", "\"process_cpu\"");
    r.extra.emplace_back("calib_ms", std::to_string(calib_ms));
    r.extra.emplace_back("ratio", std::to_string(ratio));
    r.extra.emplace_back("previous_ratio",
                         previous ? std::to_string(*previous) : "null");
    r.extra.emplace_back("max_slowdown", std::to_string(kMaxSlowdown));
    std::printf("%s: %.3f ms, %.3f ms calibration, ratio %.4f", r.op.c_str(),
                r.serial_ms, calib_ms, ratio);
    if (previous)
      std::printf(" against %.4f before (at most %.2fx)", *previous,
                  kMaxSlowdown);
    std::printf("\n");
    return !previous || ratio <= kMaxSlowdown * *previous;
  }

  /// True when every row added so far reads identical.
  bool all_identical() const {
    return std::all_of(results_.begin(), results_.end(),
                       [](const BenchResult& r) { return r.identical; });
  }

  void add(BenchResult r) {
    std::printf("%-34s %10.3f %10.3f %7.2fx %8s %10.0f %s/s\n",
                r.op.c_str(), r.serial_ms, r.parallel_ms, r.speedup,
                r.identical ? "yes" : "NO", r.throughput, r.unit.c_str());
    std::fflush(stdout);
    results_.push_back(std::move(r));
  }

  /// Appends results into the JSON array at path_, creating it if absent.
  void write() const {
    if (results_.empty()) return;
    std::string existing;
    {
      std::ifstream in(path_);
      if (in) {
        std::ostringstream ss;
        ss << in.rdbuf();
        existing = ss.str();
      }
    }
    std::ostringstream out;
    const std::size_t close = existing.rfind(']');
    bool appending = false;
    if (close != std::string::npos &&
        existing.find('[') != std::string::npos) {
      // Splice new entries before the final ']' of the existing array.
      std::string head = existing.substr(0, close);
      while (!head.empty() &&
             (head.back() == '\n' || head.back() == ' ' ||
              head.back() == '\t'))
        head.pop_back();
      if (head.empty()) head = "[";
      appending = head.back() != '[';
      out << head;
    } else {
      out << "[";
    }
    const auto stamp = provenance();
    for (const BenchResult& r : results_) {
      out << (appending ? "," : "") << "\n  " << to_json(r, stamp);
      appending = true;
    }
    out << "\n]\n";
    std::ofstream of(path_, std::ios::trunc);
    of << out.str();
    std::printf("wrote %zu result(s) to %s\n", results_.size(),
                path_.c_str());
  }

 private:
  static std::string to_json(
      const BenchResult& r,
      const std::vector<std::pair<std::string, std::string>>& stamp) {
    std::ostringstream j;
    j << "{\"op\": \"" << r.op << "\", \"threads\": " << r.threads
      << ", \"cores\": " << cores() << ", \"items\": " << r.items
      << ", \"unit\": \"" << r.unit
      << "\", \"serial_ms\": " << r.serial_ms
      << ", \"parallel_ms\": " << r.parallel_ms
      << ", \"speedup\": " << r.speedup
      << ", \"throughput_per_s\": " << r.throughput
      << ", \"identical\": " << (r.identical ? "true" : "false")
      << ", \"repeats\": " << r.repeats;
    for (const auto& [key, value] : stamp)
      j << ", \"" << key << "\": " << value;
    for (const auto& [key, value] : r.extra)
      j << ", \"" << key << "\": " << value;
    j << "}";
    return j.str();
  }

  std::string path_;
  std::size_t threads_;
  int repeat_ = 0;  ///< 0: best-of-reps; >0: --repeat median-of-N
  std::vector<BenchResult> results_;
};

}  // namespace wan::bench
