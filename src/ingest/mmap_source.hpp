// Zero-copy pcap ingestion: the capture is mapped into the address
// space once and every record — header and frame bytes — is parsed in
// place. No per-record read() syscalls, no record buffer, no copy
// between the page cache and the parser; the kernel streams pages in
// under MADV_SEQUENTIAL while the decode loop walks pointers.
//
// Two layers:
//
//   * ByteSource — a minimal forward cursor over a byte stream:
//     ensure(want) returns a pointer to the next `want` bytes (fewer
//     near end of input) without consuming, advance(n) consumes.
//     MmapByteSource implements it as pointer arithmetic over the
//     mapping; BufferedByteSource is the fallback for inputs that
//     cannot be mapped (pipes, stdin, odd filesystems), keeping a
//     sliding buffer so memory stays bounded by one record either way.
//     open_byte_source() picks: regular mappable file -> mmap,
//     anything else -> buffered.
//
//   * MmapPcapReader — the pcap reader on top of a ByteSource: the
//     global header, then one IPv4 TCP/UDP packet per next(), with
//     every defect reported through the strict/lenient ledger (the
//     `ingest`-labeled tests pin its records and ledger on every
//     fixture). next_batch() and fold_packets() decode a whole chunk
//     of records per call, so the hot loop has no per-record virtual
//     dispatch. Frames decode through src/ingest/pcap_decode.hpp.
//
// Mapping lifetime: the mapping lives exactly as long as the reader
// (sources keep their reader for their own lifetime), and RawPackets
// copy every field out of the mapped bytes — nothing downstream holds
// a pointer into the file, so source/reset/destruction ordering cannot
// dangle. See DESIGN.md §14.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ingest/ingest_stats.hpp"
#include "src/ingest/pcap_decode.hpp"
#include "src/ingest/raw_packet.hpp"

namespace wan::ingest {

/// Forward cursor over a byte stream. ensure() never consumes —
/// repeated calls return the same bytes until advance() moves past
/// them. Pointers returned by ensure() are invalidated by the next
/// ensure()/advance()/rewind() call (the mmap implementation keeps them
/// stable for its lifetime, but callers must not rely on that).
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Pointer to the next min(want, remaining) bytes; *avail receives
  /// that count (0 at end of input, pointer then unspecified).
  virtual const unsigned char* ensure(std::size_t want,
                                      std::size_t* avail) = 0;

  /// Consumes n bytes. n must not exceed the last ensure()'s *avail.
  virtual void advance(std::size_t n) = 0;

  /// True when the end of the underlying input has been reached (i.e.
  /// a short ensure() means truncation, not a pending read error).
  virtual bool at_input_end() const = 0;

  /// Back to byte 0. Throws std::runtime_error if the input cannot be
  /// repositioned (pipes, stdin).
  virtual void rewind() = 0;
};

/// The whole file mapped read-only; cursor = pointer arithmetic.
/// Consumed pages are released back to the kernel (MADV_DONTNEED) every
/// kDropWindow bytes, so resident memory stays bounded by the window
/// plus readahead — not the capture length. A released page refaults
/// from the page cache if revisited (rewind), so the drop is purely a
/// residency hint, never a correctness concern on the immutable file.
class MmapByteSource final : public ByteSource {
 public:
  /// Throws std::runtime_error when the file cannot be opened, is not a
  /// regular file, or the mapping fails — callers that want the
  /// fallback instead use open_byte_source().
  explicit MmapByteSource(const std::string& path);
  ~MmapByteSource() override;

  MmapByteSource(const MmapByteSource&) = delete;
  MmapByteSource& operator=(const MmapByteSource&) = delete;

  const unsigned char* ensure(std::size_t want, std::size_t* avail) override;
  void advance(std::size_t n) override {
    pos_ += n;
    if (pos_ - drop_mark_ >= kDropWindow) drop_behind();
  }
  bool at_input_end() const override { return true; }  // all bytes mapped
  void rewind() override {
    pos_ = 0;
    drop_mark_ = 0;
  }

  std::size_t size() const { return size_; }
  /// The mapping itself, for the reader's devirtualized batch loop.
  const unsigned char* data() const { return base_; }
  std::size_t pos() const { return pos_; }

  /// Page-drop cadence; the batch walk syncs its local cursor this
  /// often so residency stays bounded even within one long walk.
  static constexpr std::size_t kDropWindow = std::size_t{1} << 22;  // 4 MiB

 private:

  void drop_behind();

  const unsigned char* base_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  std::size_t drop_mark_ = 0;  ///< bytes before this are released
};

/// Buffered-read fallback: a sliding window over a file descriptor, for
/// inputs mmap cannot serve. Reads in large blocks; the partial record
/// at the window's tail slides to the front before each refill, so
/// memory stays bounded by max(block, one record), never by the input.
class BufferedByteSource final : public ByteSource {
 public:
  explicit BufferedByteSource(const std::string& path);

  /// Adopts an already-open descriptor (closed on destruction). `name`
  /// appears in error messages in place of a path. This is how the
  /// stdin spool and the monitor daemon's pipe source reuse the
  /// sliding-buffer contract on descriptors that have no path.
  BufferedByteSource(int fd, std::string name);

  ~BufferedByteSource() override;

  BufferedByteSource(const BufferedByteSource&) = delete;
  BufferedByteSource& operator=(const BufferedByteSource&) = delete;

  const unsigned char* ensure(std::size_t want, std::size_t* avail) override;
  void advance(std::size_t n) override { pos_ += n; }
  bool at_input_end() const override { return eof_ && !read_error_; }
  void rewind() override;

  /// A read() failed with an error (not EOF). The reader above maps
  /// this to the io_errors ledger row instead of truncated_records.
  bool read_error() const { return read_error_; }

 private:
  void refill(std::size_t want);

  int fd_ = -1;
  std::string path_;
  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;   ///< cursor within buf_
  std::size_t end_ = 0;   ///< valid bytes in buf_
  bool eof_ = false;
  bool read_error_ = false;
};

/// mmap when the path is a regular mappable file, buffered otherwise.
/// The path "-" means standard input: the stream is spooled once into
/// an unlinked temporary file (bounded by disk, not memory) and served
/// through BufferedByteSource, so the two-pass sources' prescan +
/// rewind contract holds even though a pipe cannot seek. Every pcap
/// reader and source therefore accepts "-" transparently.
std::unique_ptr<ByteSource> open_byte_source(const std::string& path);

/// Drains `fd` to EOF into an unlinked temp file and returns a
/// rewindable BufferedByteSource over it — the "-" implementation,
/// exposed so tests can feed a pipe directly. Throws std::runtime_error
/// when the spool file cannot be created or a read/write fails.
std::unique_ptr<ByteSource> spooled_byte_source(int fd,
                                                const std::string& name);

/// Streaming libpcap reader built for adversarial input: the classic
/// 24-byte global header in either byte order, microsecond and
/// nanosecond timestamps, and per-record bounds checks, so a truncated
/// or corrupt capture degrades into ledger entries instead of undefined
/// behaviour. Link layers: Ethernet (DLT 1, 802.1Q/802.1ad tags
/// unwrapped), raw IP (DLT 12 / 101) and BSD loopback (DLT 0). Frames
/// that are not first-fragment IPv4 TCP/UDP are counted and skipped.
///
/// End of input: a file that ends on a record boundary is a clean EOF;
/// one that ends mid-record is a truncated record, and a read that
/// fails before EOF an I/O error. Every defect, an out-of-order
/// timestamp included, goes through report(): strict mode throws at
/// the first, lenient mode counts it and goes on (keeping an
/// out-of-order packet). Memory does not grow with the capture: both
/// ByteSources bound what they hold.
class MmapPcapReader {
 public:
  /// Opens `path` via open_byte_source (mmap with buffered fallback)
  /// and parses the global header. Strict mode throws IngestError on a
  /// malformed header; lenient mode counts it and yields an exhausted
  /// reader (next() == false). Throws std::runtime_error in both modes
  /// if the file cannot be opened at all.
  MmapPcapReader(const std::string& path, ParseMode mode);

  /// Adopts an explicit byte source (tests use this to force the
  /// buffered fallback onto a mappable file).
  MmapPcapReader(std::unique_ptr<ByteSource> source, std::string name,
                 ParseMode mode);

  /// Decodes the next IPv4 TCP/UDP packet. Returns false when the file
  /// (or, in lenient mode, the parsable prefix of it) is exhausted.
  bool next(RawPacket& out);

  /// Appends decoded packets to `out` until it holds `max` packets or
  /// input is exhausted. Returns the number appended. Equivalent to
  /// calling next() in a loop, minus the per-record call overhead; the
  /// bulk sources drain through this.
  std::size_t next_batch(std::vector<RawPacket>& out, std::size_t max);

  /// Streams up to `max` decoded packets into `sink(const RawPacket&)`
  /// without materializing them anywhere — the fused ingest path hands
  /// each packet straight from the mapping to the flow table, and the
  /// range prescan folds only its time. Same records, same ledger as
  /// next(); next_batch is a thin wrapper over this.
  template <typename Sink>
  std::size_t fold_packets(std::size_t max, Sink&& sink) {
    if (!header_.ok || fatal_) return 0;
    if (mapped_ != nullptr) return walk_mapped(max, sink);
    std::size_t appended = 0;
    RawPacket pkt;
    while (appended < max && next(pkt)) {
      sink(pkt);
      ++appended;
    }
    return appended;
  }

  /// Rewinds to the first record and clears the ledger.
  void reset();

  const IngestStats& stats() const { return stats_; }
  /// False when the global header was unusable (lenient mode only —
  /// strict mode throws from the constructor instead).
  bool header_ok() const { return header_.ok; }
  /// Timestamp resolution: 1e-6 (usec magic) or 1e-9 (nsec magic).
  double tick() const { return header_.tick; }
  /// Link-layer type from the global header.
  std::uint32_t linktype() const { return header_.linktype; }

 private:
  bool read_record(RawPacket& out, bool* decoded);
  template <typename Emit>
  std::size_t walk_mapped(std::size_t max_out, Emit&& emit);
  void report_short_tail(const char* what_eof, const char* what_err);

  std::unique_ptr<ByteSource> source_;
  MmapByteSource* mapped_ = nullptr;  ///< source_ downcast, batch fast path
  std::string path_;
  ParseMode mode_;
  IngestStats stats_;
  PcapHeader header_;
  bool fatal_ = false;
  double prev_time_ = 0.0;
  bool any_record_ = false;
};

/// The devirtualized hot loop: when the source is the mapping itself,
/// every regular record parses straight off a local cursor with no
/// virtual ensure()/advance() round trips and no per-record ledger
/// stores (bytes/records accumulate in registers, flushed on every
/// exit path — including strict-mode throws — by the sync guard).
/// Irregular records — short tail, oversized length — sync and drop to
/// read_record(), whose ledger handling is the single source of truth
/// for those paths; everything this loop does inline (byte accounting,
/// timestamp checks, decode, ooo bookkeeping) mirrors read_record
/// statement for statement, so the two paths stay byte-identical (the
/// `ingest` tests pin them). `emit` receives each decoded packet —
/// next_batch appends to its vector, the prescan folds min/max, the
/// fused column source feeds its flow table — up to `max_out` packets.
template <typename Emit>
std::size_t MmapPcapReader::walk_mapped(std::size_t max_out, Emit&& emit) {
  const unsigned char* const base = mapped_->data();
  const std::size_t size = mapped_->size();
  const double tick = header_.tick;
  // Integer form of read_record's double comparison: every uint32 up to
  // 1e6/1e9 converts to double exactly, so `ts_frac >= frac_limit` and
  // `(double)ts_frac >= (double)frac_limit` accept identical records.
  const std::uint32_t frac_limit = tick == 1e-6 ? 1000000u : 1000000000u;
  std::size_t appended = 0;

  std::size_t pos = mapped_->pos();
  std::size_t synced = pos;  ///< mapped_->pos() mirror, updated on sync
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  // Ordering state mirrored into locals too: `emit` may reach back into
  // the object owning this reader (the fused source's lambda captures
  // it), so without the mirrors the compiler must reload/store the
  // members around every emit call.
  double prev_time = prev_time_;
  bool any_record = any_record_;
  // Flush register state back to the source and ledger on every way out
  // of the loop: normal exit, delegation, or a report() throw in strict
  // mode (read_record's ledger is already synced when it throws, so the
  // walk's must be too).
  struct Sync {
    MmapPcapReader* r;
    std::size_t* pos;
    std::uint64_t* bytes;
    std::uint64_t* records;
    double* prev_time;
    bool* any_record;
    ~Sync() {
      // The local cursor can only be ahead of the source (read_record
      // delegation moves the source itself, after which pos re-syncs).
      const std::size_t at = r->mapped_->pos();
      if (*pos > at) r->mapped_->advance(*pos - at);
      r->stats_.bytes += *bytes;
      r->stats_.records += *records;
      r->prev_time_ = *prev_time;
      r->any_record_ = *any_record;
    }
  } sync{this, &pos, &bytes, &records, &prev_time, &any_record};

  RawPacket pkt;
  while (appended < max_out) {
    const std::size_t rem = size > pos ? size - pos : 0;
    if (rem == 0) break;  // clean EOF at a record boundary
    const unsigned char* rh = base + pos;
    std::uint32_t incl_len = 0;
    if (rem >= 16) incl_len = header_.u32(rh + 8);
    if (rem < 16 || incl_len > kMaxCaptureBytes ||
        rem - 16 < incl_len) [[unlikely]] {
      // Truncated tail or oversized record: all terminal. Sync first,
      // then read_record owns the ledger wording and fatal_.
      mapped_->advance(pos - mapped_->pos());
      stats_.bytes += bytes;
      stats_.records += records;
      bytes = records = 0;
      prev_time_ = prev_time;
      any_record_ = any_record;
      bool decoded = false;
      const bool more = read_record(pkt, &decoded);
      pos = synced = mapped_->pos();
      prev_time = prev_time_;
      any_record = any_record_;
      if (!more) break;
      if (decoded) {
        ++stats_.records;
        emit(pkt);
        ++appended;
      }
      continue;
    }

    const std::uint32_t ts_sec = header_.u32(rh);
    const std::uint32_t ts_frac = header_.u32(rh + 4);
    bytes += 16u + incl_len;
    pos += 16u + static_cast<std::size_t>(incl_len);

    if (ts_frac >= frac_limit) [[unlikely]] {
      report(stats_, &IngestStats::bad_headers, mode_,
             "pcap timestamp fraction out of range: " + path_);
      continue;  // lenient: drop this record, keep going
    }
    const double t =
        static_cast<double>(ts_sec) + static_cast<double>(ts_frac) * tick;
    if (!decode_pcap_frame_inline(header_, rh + 16, incl_len, pkt, stats_,
                                  mode_, path_))
      continue;  // counted inside

    pkt.time = t;
    if (any_record && t < prev_time) [[unlikely]] {
      report(stats_, &IngestStats::out_of_order, mode_,
             "pcap timestamp went backwards: " + path_);
    }
    if (!any_record || t > prev_time) prev_time = t;
    any_record = true;
    ++records;
    emit(pkt);
    ++appended;

    // A long walk (the prescan crosses the whole capture in one call)
    // must still drop consumed pages as it goes — sync the source
    // cursor every drop window so residency never grows with the walk
    // length, only with the window.
    if (pos - synced >= MmapByteSource::kDropWindow) {
      mapped_->advance(pos - synced);
      synced = pos;
    }
  }
  return appended;
}

}  // namespace wan::ingest
