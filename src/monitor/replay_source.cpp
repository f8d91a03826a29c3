#include "src/monitor/replay_source.hpp"

#include <thread>

#include "src/monitor/stop_flag.hpp"

namespace wan::monitor {

ReplaySource::ReplaySource(const std::string& path, ingest::ParseMode mode,
                           double speed, ingest::FlowTableConfig flow,
                           std::size_t chunk_size,
                           const std::atomic<bool>* stop)
    : inner_(path, mode, flow, chunk_size), speed_(speed), stop_(stop) {
  inner_.info();  // the prescan: the range is known before the first chunk
}

bool ReplaySource::next(stream::PacketColumns& chunk) {
  if (!inner_.next(chunk)) return false;
  if (speed_ <= 0.0 || chunk.time.empty()) return true;

  if (!anchored_) {
    anchor_ = std::chrono::steady_clock::now();
    anchored_ = true;
  }
  const double capture_elapsed = chunk.time.back() - inner_.info().t_begin;
  const auto deadline =
      anchor_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(capture_elapsed / speed_));
  // Sliced sleep: wake at least every 50 ms to honor a stop request.
  while (std::chrono::steady_clock::now() < deadline) {
    if (global_stop().load(std::memory_order_relaxed)) break;
    if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) break;
    const auto remaining = deadline - std::chrono::steady_clock::now();
    const auto slice = std::chrono::milliseconds(50);
    std::this_thread::sleep_for(remaining < slice ? remaining : slice);
  }
  return true;
}

}  // namespace wan::monitor
