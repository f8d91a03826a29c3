#include "src/stream/chunk.hpp"

#include <algorithm>

namespace wan::stream {

bool TraceChunkSource::next(std::vector<trace::PacketRecord>& chunk) {
  chunk.clear();
  const auto& records = trace_->records();
  if (pos_ >= records.size()) return false;
  const std::size_t n = std::min(chunk_size_, records.size() - pos_);
  chunk.assign(records.begin() + static_cast<std::ptrdiff_t>(pos_),
               records.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return true;
}

trace::PacketTrace collect(PacketChunkSource& source) {
  const StreamInfo& info = source.info();
  trace::PacketTrace out(info.name, info.t_begin, info.t_end);
  std::vector<trace::PacketRecord> chunk;
  while (source.next(chunk)) {
    for (const trace::PacketRecord& r : chunk) out.add(r);
  }
  return out;
}

}  // namespace wan::stream
