// Parse-mode contract and error ledger for the ingestion subsystem.
//
// Real captures are adversarial input: endian-swapped headers, records
// cut off by a full disk, clocks stepping backwards, snap lengths that
// chop transport headers. Every reader in src/ingest takes a ParseMode
// and an IngestStats ledger:
//   * strict  — the first structural defect throws IngestError; use it
//     when a trace is supposed to be pristine and silence would hide
//     corruption.
//   * lenient — defects are counted in the ledger, the offending unit
//     (record, line, frame) is dropped or clamped, and parsing carries
//     on; use it to salvage what a damaged capture still holds. Lenient
//     mode must never crash on any byte sequence.
// The ledger is the single source of truth for "what was thrown away":
// a lenient ingest that reports zero errors parsed the file exactly as
// strict mode would have.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace wan::ingest {

enum class ParseMode : std::uint8_t {
  kStrict,   ///< throw IngestError at the first structural defect
  kLenient,  ///< count defects in IngestStats and keep going
};

/// Thrown by strict-mode parsing (and by unrecoverable defects, e.g. a
/// header too corrupt to locate any records, in either mode when the
/// caller asked for it).
class IngestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Structured counts of everything a reader consumed, produced, skipped
/// or repaired. Counters are cumulative across next() calls; reset()
/// on a source rewinds them along with the stream position.
struct IngestStats {
  // --- produced ---------------------------------------------------------
  std::uint64_t records = 0;        ///< records delivered downstream
  std::uint64_t bytes = 0;          ///< input bytes consumed

  // --- structural defects (strict mode throws on each) ------------------
  std::uint64_t bad_headers = 0;         ///< unusable file/frame header
  std::uint64_t truncated_records = 0;   ///< input ended mid-record (EOF)
  std::uint64_t oversized_records = 0;   ///< length field beyond sanity cap
  std::uint64_t bad_lines = 0;           ///< unparsable ASCII line
  std::uint64_t out_of_order = 0;        ///< timestamp before predecessor
  /// Read failed before end of file (I/O error, not truncation). Kept
  /// separate from truncated_records so a capture whose final record
  /// was cut by a full disk reads differently from a dying disk: a
  /// short read at EOF is truncation, a short read anywhere else is an
  /// input error. Before this counter existed both silently ended the
  /// stream through the clean-EOF return path.
  std::uint64_t io_errors = 0;

  // --- tolerated oddities (counted in both modes, never fatal) ----------
  std::uint64_t skipped_frames = 0;      ///< non-IPv4 / fragment / odd link
  /// 802.1Q/802.1ad-tagged Ethernet frames whose tags were unwrapped to
  /// reach the inner payload — decoded, not dropped; counted so a
  /// capture from a trunk port is recognizable from its ledger.
  std::uint64_t vlan_frames = 0;
  std::uint64_t short_captures = 0;      ///< snaplen cut transport header
  std::uint64_t unknown_transports = 0;  ///< IP proto other than TCP/UDP
  std::uint64_t unknown_protocols = 0;   ///< service name/port not mapped
  std::uint64_t missing_fields = 0;      ///< "?" placeholders in ITA logs

  /// Defects that strict mode treats as fatal.
  std::uint64_t structural_errors() const {
    return bad_headers + truncated_records + oversized_records + bad_lines +
           out_of_order + io_errors;
  }

  /// Multi-line human-readable ledger (only non-zero rows).
  std::string to_string() const;

  void clear() { *this = IngestStats{}; }
};

/// Counts `counter` and, in strict mode, throws IngestError with `what`.
/// The single choke point through which every reader reports a defect,
/// so the two modes cannot drift apart in what they consider an error.
void report(IngestStats& stats, std::uint64_t IngestStats::* counter,
            ParseMode mode, const std::string& what);

}  // namespace wan::ingest
