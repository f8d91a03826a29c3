#include "src/ingest/mmap_source.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace wan::ingest {

namespace {

/// Refill granularity of the buffered fallback. One record is at most
/// kMaxCaptureBytes + 16, so ensure() requests never exceed the buffer
/// a single refill provides.
constexpr std::size_t kBufferBlock = std::size_t{1} << 20;

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw std::runtime_error("pcap: " + what + ": " + path + " (" +
                           std::strerror(errno) + ")");
}

}  // namespace

// --------------------------------------------------------- MmapByteSource

MmapByteSource::MmapByteSource(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("pcap: cannot open for read: " + path);

  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("fstat failed", path);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    throw std::runtime_error("pcap: not a regular file (use the buffered "
                             "fallback): " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (m == MAP_FAILED) {
      ::close(fd);
      throw_errno("mmap failed", path);
    }
    base_ = static_cast<const unsigned char*>(m);
    // Pure forward scan: let readahead run ahead of the decode loop.
    ::madvise(const_cast<unsigned char*>(base_), size_, MADV_SEQUENTIAL);
  }
  // An empty regular file maps to an empty window — the reader then
  // reports a truncated global header, as the buffered source does.
  ::close(fd);  // the mapping holds its own reference
}

MmapByteSource::~MmapByteSource() {
  if (base_ != nullptr)
    ::munmap(const_cast<unsigned char*>(base_), size_);
}

const unsigned char* MmapByteSource::ensure(std::size_t want,
                                            std::size_t* avail) {
  const std::size_t left = pos_ < size_ ? size_ - pos_ : 0;
  *avail = left < want ? left : want;
  return base_ + pos_;
}

void MmapByteSource::drop_behind() {
  // Release whole consumed pages behind the cursor. The page holding
  // pos_ stays: ensure() pointers into the current record must remain
  // cheap to touch.
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t keep = pos_ - (pos_ % page);
  if (keep > drop_mark_) {
    ::madvise(const_cast<unsigned char*>(base_ + drop_mark_),
              keep - drop_mark_, MADV_DONTNEED);
    drop_mark_ = keep;
  }
}

// ----------------------------------------------------- BufferedByteSource

BufferedByteSource::BufferedByteSource(const std::string& path)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0)
    throw std::runtime_error("pcap: cannot open for read: " + path);
}

BufferedByteSource::BufferedByteSource(int fd, std::string name)
    : fd_(fd), path_(std::move(name)) {}

BufferedByteSource::~BufferedByteSource() {
  if (fd_ >= 0) ::close(fd_);
}

void BufferedByteSource::refill(std::size_t want) {
  // Slide the unconsumed tail to the front, then top the buffer up to
  // at least `want` bytes (or EOF/error). memmove, not assignment: the
  // regions can overlap.
  if (pos_ > 0) {
    const std::size_t tail = end_ - pos_;
    if (tail > 0) std::memmove(buf_.data(), buf_.data() + pos_, tail);
    end_ = tail;
    pos_ = 0;
  }
  const std::size_t target = want > kBufferBlock ? want : kBufferBlock;
  if (buf_.size() < target) buf_.resize(target);
  // Stop as soon as `want` is satisfied, not when the block fills:
  // each read() still requests the whole remaining block, so a regular
  // file refills in big strides, but a pipe delivering records slower
  // than the block size never stalls the caller behind bytes that
  // have not arrived yet.
  while (end_ < want && !eof_ && !read_error_) {
    const ssize_t got =
        ::read(fd_, buf_.data() + end_, buf_.size() - end_);
    if (got > 0) {
      end_ += static_cast<std::size_t>(got);
    } else if (got == 0) {
      eof_ = true;
    } else if (errno != EINTR) {
      read_error_ = true;
    }
  }
}

const unsigned char* BufferedByteSource::ensure(std::size_t want,
                                                std::size_t* avail) {
  if (end_ - pos_ < want && !eof_ && !read_error_) refill(want);
  const std::size_t left = end_ - pos_;
  *avail = left < want ? left : want;
  return buf_.data() + pos_;
}

void BufferedByteSource::rewind() {
  if (::lseek(fd_, 0, SEEK_SET) != 0)
    throw std::runtime_error(
        "pcap: input is not seekable, cannot rewind: " + path_);
  pos_ = 0;
  end_ = 0;
  eof_ = false;
  read_error_ = false;
}

std::unique_ptr<ByteSource> spooled_byte_source(int fd,
                                                const std::string& name) {
  char spool_path[] = "/tmp/wantraffic_spool_XXXXXX";
  const int spool = ::mkstemp(spool_path);
  if (spool < 0)
    throw_errno("cannot create stdin spool file", name);
  ::unlink(spool_path);  // anonymous: vanishes with the descriptor

  std::vector<unsigned char> block(std::size_t{1} << 20);
  for (;;) {
    const ssize_t got = ::read(fd, block.data(), block.size());
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(spool);
      throw_errno("read from stream failed while spooling", name);
    }
    std::size_t off = 0;
    while (off < static_cast<std::size_t>(got)) {
      const ssize_t put =
          ::write(spool, block.data() + off,
                  static_cast<std::size_t>(got) - off);
      if (put < 0) {
        if (errno == EINTR) continue;
        ::close(spool);
        throw_errno("write to stdin spool failed", name);
      }
      off += static_cast<std::size_t>(put);
    }
  }
  if (::lseek(spool, 0, SEEK_SET) != 0) {
    ::close(spool);
    throw_errno("cannot rewind stdin spool", name);
  }
  return std::make_unique<BufferedByteSource>(spool, name);
}

std::unique_ptr<ByteSource> open_byte_source(const std::string& path) {
  if (path == "-") return spooled_byte_source(0, "<stdin>");
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
    try {
      return std::make_unique<MmapByteSource>(path);
    } catch (const std::runtime_error&) {
      // Mappable in principle but mmap refused (some filesystems do):
      // fall through to the sliding buffer.
    }
  }
  return std::make_unique<BufferedByteSource>(path);
}

// -------------------------------------------------------- MmapPcapReader

MmapPcapReader::MmapPcapReader(const std::string& path, ParseMode mode)
    : MmapPcapReader(open_byte_source(path), path, mode) {}

MmapPcapReader::MmapPcapReader(std::unique_ptr<ByteSource> source,
                               std::string name, ParseMode mode)
    : source_(std::move(source)), path_(std::move(name)), mode_(mode) {
  mapped_ = dynamic_cast<MmapByteSource*>(source_.get());
  std::size_t avail = 0;
  const unsigned char* h = source_->ensure(24, &avail);
  if (avail == 24) stats_.bytes += 24;
  header_ = parse_pcap_header(h, avail, stats_, mode_, path_);
  if (header_.ok) source_->advance(24);
}

void MmapPcapReader::report_short_tail(const char* what_eof,
                                       const char* what_err) {
  const bool eof = source_->at_input_end();
  report(stats_,
         eof ? &IngestStats::truncated_records : &IngestStats::io_errors,
         mode_, std::string(eof ? what_eof : what_err) + ": " + path_);
  fatal_ = true;
}

bool MmapPcapReader::read_record(RawPacket& out, bool* decoded) {
  *decoded = false;
  std::size_t avail = 0;
  const unsigned char* rh = source_->ensure(16, &avail);
  if (avail == 0) {
    if (source_->at_input_end()) return false;  // clean EOF
    report(stats_, &IngestStats::io_errors, mode_,
           "pcap read failed before end of file: " + path_);
    fatal_ = true;
    return false;
  }
  if (avail < 16) {
    report_short_tail("pcap final record header truncated by EOF",
                      "pcap read failed mid record header");
    return false;
  }

  stats_.bytes += 16;

  const std::uint32_t ts_sec = header_.u32(rh);
  const std::uint32_t ts_frac = header_.u32(rh + 4);
  const std::uint32_t incl_len = header_.u32(rh + 8);

  if (incl_len > kMaxCaptureBytes) {
    report(stats_, &IngestStats::oversized_records, mode_,
           "pcap record length " + std::to_string(incl_len) +
               " beyond sanity cap: " + path_);
    fatal_ = true;
    return false;
  }
  source_->advance(16);

  const unsigned char* data = source_->ensure(incl_len, &avail);
  if (avail < incl_len) {
    report_short_tail("pcap final record data truncated by EOF",
                      "pcap read failed mid record data");
    return false;
  }
  stats_.bytes += incl_len;
  source_->advance(incl_len);

  const double frac_limit = header_.tick == 1e-6 ? 1e6 : 1e9;
  if (static_cast<double>(ts_frac) >= frac_limit) {
    report(stats_, &IngestStats::bad_headers, mode_,
           "pcap timestamp fraction out of range: " + path_);
    return true;  // lenient: drop this record, keep going
  }
  const double t =
      static_cast<double>(ts_sec) + static_cast<double>(ts_frac) * header_.tick;

  // Decode in place: `data` points into the mapping (or the sliding
  // buffer), valid until the next ensure(); every field is copied out.
  if (!decode_pcap_frame(header_, data, incl_len, out, stats_, mode_, path_))
    return true;  // counted inside

  out.time = t;
  if (any_record_ && t < prev_time_) {
    report(stats_, &IngestStats::out_of_order, mode_,
           "pcap timestamp went backwards: " + path_);
  }
  if (!any_record_ || t > prev_time_) prev_time_ = t;
  any_record_ = true;
  *decoded = true;
  return true;
}

bool MmapPcapReader::next(RawPacket& out) {
  if (!header_.ok || fatal_) return false;
  while (true) {
    bool decoded = false;
    if (!read_record(out, &decoded)) return false;
    if (decoded) {
      ++stats_.records;
      return true;
    }
  }
}

std::size_t MmapPcapReader::next_batch(std::vector<RawPacket>& out,
                                       std::size_t max) {
  const std::size_t budget = out.size() < max ? max - out.size() : 0;
  return fold_packets(budget,
                      [&](const RawPacket& pkt) { out.push_back(pkt); });
}

void MmapPcapReader::scan_times(bool* any, double* lo, double* hi) {
  fold_packets(static_cast<std::size_t>(-1), [&](const RawPacket& pkt) {
    if (!*any) {
      *lo = *hi = pkt.time;
      *any = true;
    } else {
      if (pkt.time < *lo) *lo = pkt.time;
      if (pkt.time > *hi) *hi = pkt.time;
    }
  });
}

void MmapPcapReader::reset() {
  if (!header_.ok) return;
  source_->rewind();
  std::size_t avail = 0;
  source_->ensure(24, &avail);
  if (avail != 24)
    throw std::runtime_error("pcap: reset reread failed: " + path_);
  source_->advance(24);
  stats_.clear();
  stats_.bytes += 24;  // the already-validated global header
  fatal_ = false;
  any_record_ = false;
  prev_time_ = 0.0;
}

}  // namespace wan::ingest
