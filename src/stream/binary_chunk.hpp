// Chunked access to the binary trace format, built on the format
// primitives in src/trace/binary_io.hpp so a file written chunk by
// chunk is byte-identical to one written by write_binary_file. A chunk
// is read and written one 8 KiB block of records per stream call.
//
// The writer does not know the record count up front (a streaming
// synthesizer doesn't either), so it writes the header with count 0 and
// patches the count field in place on close().
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>

#include "src/stream/chunk.hpp"

namespace wan::stream {

class ChunkedBinaryWriter {
 public:
  /// Opens `path` and writes the header immediately (count 0).
  /// Throws std::runtime_error if the file cannot be opened.
  ChunkedBinaryWriter(const std::string& path, const StreamInfo& info);
  ~ChunkedBinaryWriter();

  ChunkedBinaryWriter(const ChunkedBinaryWriter&) = delete;
  ChunkedBinaryWriter& operator=(const ChunkedBinaryWriter&) = delete;

  void write(std::span<const trace::PacketRecord> records);

  std::uint64_t count() const { return count_; }

  /// Patches the record count into the header and flushes. Throws on
  /// I/O failure; the destructor closes silently if not already closed.
  void close();

 private:
  std::ofstream os_;
  std::uint64_t count_offset_ = 0;
  std::uint64_t count_ = 0;
  bool closed_ = false;
};

/// Streams a binary trace file chunk by chunk; peak memory is one chunk
/// regardless of file size. reset() seeks back to the first record, so
/// it throws on an input that cannot seek (a pipe), which can be read
/// only once.
class BinaryChunkSource final : public PacketChunkSource {
 public:
  /// Opens the file and reads the header. Throws std::runtime_error on
  /// open failure or a malformed header.
  explicit BinaryChunkSource(const std::string& path,
                             std::size_t chunk_size = kDefaultChunkSize);

  const StreamInfo& info() const override { return info_; }
  bool next(std::vector<trace::PacketRecord>& chunk) override;
  void reset() override;

 private:
  std::ifstream is_;
  StreamInfo info_;
  std::uint64_t total_ = 0;
  std::uint64_t read_ = 0;
  std::streampos data_offset_;
  std::size_t chunk_size_;
};

}  // namespace wan::stream
