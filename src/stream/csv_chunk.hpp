// Chunked access to the packet-CSV format, built on the codec in
// src/trace/csv_io.hpp so a streamed file is byte-identical to one
// produced by write_csv_file, and a streamed read parses what
// read_packet_csv parses. Rows are formatted into an 8 KiB buffer and
// written one buffer per stream call.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>

#include "src/stream/chunk.hpp"

namespace wan::stream {

class ChunkedCsvWriter {
 public:
  /// Opens `path` and writes the metadata + column header immediately.
  /// Throws std::runtime_error if the file cannot be opened.
  ChunkedCsvWriter(const std::string& path, const StreamInfo& info);

  void write(std::span<const trace::PacketRecord> records);

  std::uint64_t count() const { return count_; }

  /// Flushes; throws on I/O failure.
  void close();

 private:
  std::ofstream os_;
  std::uint64_t count_ = 0;
};

/// Streams a packet-CSV file chunk by chunk. Its window is the one
/// read_packet_csv gives the file (the window rule in csv_io.hpp): a
/// file without a usable metadata line is read once up front, as the
/// capture sources do, to learn the window of its records. Both that
/// prescan and reset() seek back to the first row, so on an input that
/// cannot seek (a pipe) they throw, the prescan before reading a row.
class CsvChunkSource final : public PacketChunkSource {
 public:
  /// Throws std::runtime_error on open failure or a malformed header,
  /// and on a malformed row: from the constructor when it reads the
  /// rows to learn the window, otherwise lazily from next().
  explicit CsvChunkSource(const std::string& path,
                          std::size_t chunk_size = kDefaultChunkSize);

  const StreamInfo& info() const override { return info_; }
  bool next(std::vector<trace::PacketRecord>& chunk) override;
  void reset() override;

 private:
  std::ifstream is_;
  StreamInfo info_;
  std::streampos data_offset_;
  std::size_t header_lines_ = 0;
  std::size_t line_no_ = 0;
  std::size_t chunk_size_;
};

}  // namespace wan::stream
