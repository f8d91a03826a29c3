#include "src/stream/binary_chunk.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/trace/binary_io.hpp"

namespace wan::stream {

ChunkedBinaryWriter::ChunkedBinaryWriter(const std::string& path,
                                         const StreamInfo& info)
    : os_(path, std::ios::binary) {
  if (!os_)
    throw std::runtime_error("binary_chunk: cannot open for write: " + path);
  count_offset_ = trace::write_packet_header(
      os_, {info.name, info.t_begin, info.t_end, 0});
}

ChunkedBinaryWriter::~ChunkedBinaryWriter() {
  if (!closed_) {
    try {
      close();
    } catch (...) {
      // Destructor must not throw; an explicit close() surfaces errors.
    }
  }
}

void ChunkedBinaryWriter::write(std::span<const trace::PacketRecord> records) {
  trace::write_packet_records(os_, records);
  count_ += records.size();
}

void ChunkedBinaryWriter::close() {
  if (closed_) return;
  closed_ = true;
  os_.seekp(static_cast<std::streamoff>(count_offset_));
  os_.write(reinterpret_cast<const char*>(&count_), sizeof(count_));
  os_.flush();
  if (!os_) throw std::runtime_error("binary_chunk: write failed on close");
  os_.close();
}

BinaryChunkSource::BinaryChunkSource(const std::string& path,
                                     std::size_t chunk_size)
    : is_(path, std::ios::binary), chunk_size_(chunk_size) {
  if (!is_)
    throw std::runtime_error("binary_chunk: cannot open for read: " + path);
  trace::PacketFileHeader h = trace::read_packet_header(is_);
  info_ = {std::move(h.name), h.t_begin, h.t_end};
  total_ = h.count;
  data_offset_ = is_.tellg();
}

bool BinaryChunkSource::next(std::vector<trace::PacketRecord>& chunk) {
  chunk.clear();
  if (read_ >= total_) return false;
  const auto n = static_cast<std::size_t>(
      std::min<std::uint64_t>(chunk_size_, total_ - read_));
  trace::read_packet_records(is_, n, chunk);
  read_ += n;
  return true;
}

void BinaryChunkSource::reset() {
  if (data_offset_ == std::streampos(-1))
    throw std::runtime_error(
        "binary_chunk: input is not seekable, cannot read it twice");
  is_.clear();
  is_.seekg(data_offset_);
  if (!is_) throw std::runtime_error("binary_chunk: reset seek failed");
  read_ = 0;
}

}  // namespace wan::stream
