#include "src/stream/csv_chunk.hpp"

#include <stdexcept>

#include "src/trace/csv_io.hpp"

namespace wan::stream {

ChunkedCsvWriter::ChunkedCsvWriter(const std::string& path,
                                   const StreamInfo& info)
    : os_(path) {
  if (!os_)
    throw std::runtime_error("csv_chunk: cannot open for write: " + path);
  trace::write_packet_csv_header(os_, info.name, info.t_begin, info.t_end);
}

void ChunkedCsvWriter::write(std::span<const trace::PacketRecord> records) {
  trace::write_packet_csv_rows(os_, records);
  count_ += records.size();
}

void ChunkedCsvWriter::close() {
  os_.flush();
  if (!os_) throw std::runtime_error("csv_chunk: write failed on close");
  os_.close();
}

CsvChunkSource::CsvChunkSource(const std::string& path,
                               std::size_t chunk_size)
    : is_(path), chunk_size_(chunk_size) {
  if (!is_)
    throw std::runtime_error("csv_chunk: cannot open for read: " + path);
  const auto meta = trace::read_csv_header(is_, header_lines_);
  data_offset_ = is_.tellg();
  line_no_ = header_lines_;
  trace::CsvRecordExtent extent;
  if (!(meta.second > meta.first)) {
    reset();  // refuses a pipe before the prescan reads a row
    std::vector<trace::PacketRecord> chunk;
    while (next(chunk))
      for (const trace::PacketRecord& r : chunk) extent.add(r.time, r.time);
    reset();
  }
  const auto [t_begin, t_end] = extent.window(meta);
  info_ = {path, t_begin, t_end};
}

bool CsvChunkSource::next(std::vector<trace::PacketRecord>& chunk) {
  chunk.clear();
  return trace::read_packet_csv_rows(is_, chunk_size_, chunk, line_no_);
}

void CsvChunkSource::reset() {
  if (data_offset_ == std::streampos(-1))
    throw std::runtime_error(
        "csv_chunk: input is not seekable, cannot read it twice");
  is_.clear();
  is_.seekg(data_offset_);
  if (!is_) throw std::runtime_error("csv_chunk: reset seek failed");
  line_no_ = header_lines_;
}

}  // namespace wan::stream
