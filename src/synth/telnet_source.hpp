// TELNET traffic synthesis — Sections IV & V.
//
// Connection arrivals: Poisson with fixed hourly rates (Section III).
// Connection sizes in packets: log2-normal, mean log2(100), sd 2.24
// (Section V). Packet interarrivals within a connection: one of the
// paper's three schemes —
//   TCPLIB  : i.i.d. draws from the (reconstructed) Tcplib law;
//   EXP     : i.i.d. exponential, mean 1.1 s;
//   VAR-EXP : the connection's packets scattered uniformly over its
//             observed duration (exponential with per-connection rate).
#pragma once

#include <cstdint>
#include <vector>

#include "src/dist/lognormal.hpp"
#include "src/dist/tcplib.hpp"
#include "src/synth/arrivals.hpp"
#include "src/synth/host_model.hpp"
#include "src/trace/conn_trace.hpp"
#include "src/trace/packet_trace.hpp"

namespace wan::synth {

/// Section IV's packet interarrival schemes.
enum class InterarrivalScheme { kTcplib, kExponential, kVarExp };

/// Skeleton of a connection: what the paper keeps fixed when comparing
/// schemes (start time and size, plus the observed duration for
/// VAR-EXP), and all a SYN/FIN connection record reads of it.
struct ConnSkeleton {
  double start = 0.0;
  std::size_t packets = 0;
  /// Last packet time minus start; generate_from_skeletons reads it
  /// only for kVarExp.
  double duration = 0.0;
};

/// The TELNET *responder* side — the paper models only the originator
/// and names the responder as open work ("Modeling the TELNET responder
/// remains to be done", Section VIII). This extension supplies a simple
/// mechanistic responder: each originator packet is echoed after a small
/// network delay, and some keystrokes (command completions) trigger a
/// burst of output packets.
struct ResponderConfig {
  double echo_delay_log_mean = -2.8;  ///< ln seconds (~60 ms RTT-ish)
  double echo_delay_log_sd = 0.5;
  double output_probability = 0.15;   ///< keystrokes that finish a command
  double output_gap = 0.03;           ///< seconds between output packets
  std::size_t max_output_packets = 64;
  std::uint16_t output_bytes = 512;   ///< full output segments
};

struct TelnetConfig {
  double conns_per_day = 3000.0;
  DiurnalProfile profile = DiurnalProfile::telnet();
  dist::TcplibParams tcplib = dist::TcplibParams::paper();
  double exp_mean = 1.1;          ///< the paper's matched exponential mean
  double size_log2_mean = 6.6438561897747244;  ///< log2(100)
  double size_log2_sd = 2.24;
  std::size_t min_packets = 2;
  std::size_t max_packets = 20000; ///< clip the log-normal's far tail
  trace::Protocol protocol = trace::Protocol::kTelnet;
};

/// One synthesized TELNET connection: originator data-packet times.
struct TelnetConnection {
  double start = 0.0;
  std::vector<double> packet_times;
  double duration() const {
    return packet_times.empty() ? 0.0 : packet_times.back() - start;
  }
};

/// Generator for TELNET-like (also RLOGIN-like) traffic.
class TelnetSource {
 public:
  explicit TelnetSource(TelnetConfig config);

  const TelnetConfig& config() const { return config_; }

  /// Draws a connection size in packets (clamped log2-normal).
  std::size_t sample_size_packets(rng::Rng& rng) const;

  /// Packet times for one connection of n packets starting at `start`.
  /// For kVarExp, `duration` bounds the uniform scatter.
  std::vector<double> generate_packet_times(rng::Rng& rng, double start,
                                            std::size_t n,
                                            InterarrivalScheme scheme,
                                            double duration = 0.0) const;

  /// The Tcplib walk: the last packet time of an n-packet connection
  /// starting at `start`, without its packet times. It takes the n gaps
  /// generate_packet_times(rng, start, n, kTcplib) takes, the last one
  /// drawn and discarded, and adds the first n - 1 in the same order, so
  /// the result is that vector's back() bit for bit and rng ends where
  /// that call leaves it. With n == 0 it draws nothing and returns
  /// `start`.
  double tcplib_last_packet_time(rng::Rng& rng, double start,
                                 std::size_t n) const;

  /// Advances rng past the Tcplib walk of an n-packet connection, to
  /// where tcplib_last_packet_time(rng, start, n) leaves it, without
  /// inverting the law: each gap is one Distribution::sample, which
  /// takes one uniform and maps it through quantile().
  void skip_tcplib_walk(rng::Rng& rng, std::size_t n) const;

  /// Full FULL-TEL synthesis over [t0, t1): Poisson-hourly connection
  /// arrivals, log-normal sizes, per-scheme packet times.
  std::vector<TelnetConnection> generate_connections(
      rng::Rng& rng, double t0, double t1,
      InterarrivalScheme scheme = InterarrivalScheme::kTcplib) const;

  /// skeletons_of(generate_connections(rng, t0, t1, kTcplib)) without
  /// the packet times: the same draws in the same order (the hourly
  /// Poisson starts, then per connection its size and its Tcplib walk),
  /// so the skeletons match field for field and rng ends where
  /// generate_connections leaves it. What connection records are built
  /// from.
  std::vector<ConnSkeleton> generate_skeletons(rng::Rng& rng, double t0,
                                               double t1) const;

  /// Re-synthesis from fixed skeletons (the Fig. 5 comparison): same
  /// starts and sizes, scheme-specific timing.
  std::vector<TelnetConnection> generate_from_skeletons(
      rng::Rng& rng, const std::vector<ConnSkeleton>& skeletons,
      InterarrivalScheme scheme) const;

  /// Renders connections into a PacketTrace (originator data packets,
  /// 1-4 byte payloads), assigning sequential connection ids starting at
  /// `first_conn_id`.
  trace::PacketTrace to_packet_trace(
      const std::vector<TelnetConnection>& conns, double t0, double t1,
      std::uint32_t first_conn_id = 1) const;

  /// Both directions: originator packets plus the responder model
  /// (echoes and command-output bursts).
  trace::PacketTrace to_packet_trace_with_responder(
      rng::Rng& rng, const std::vector<TelnetConnection>& conns, double t0,
      double t1, const ResponderConfig& responder = ResponderConfig{},
      std::uint32_t first_conn_id = 1) const;

  /// Appends one connection's originator data packets (in-window only,
  /// payload keyed to the keystroke index) without sorting — the
  /// per-connection unit both to_packet_trace and the streaming
  /// synthesizer are built on. Consumes no randomness.
  void append_originator_packets(const TelnetConnection& c, double t0,
                                 double t1, std::uint32_t conn_id,
                                 trace::PacketTrace& out) const;

  /// Appends one connection's responder packets (echoes + command-output
  /// bursts), consuming rng exactly as to_packet_trace_with_responder's
  /// per-connection loop does — so a caller replaying connections in
  /// order off a saved rng state reproduces the batch packets.
  void append_responder_packets(rng::Rng& rng, const TelnetConnection& c,
                                double t0, double t1, std::uint32_t conn_id,
                                const ResponderConfig& responder,
                                trace::PacketTrace& out) const;

  /// Appends one SYN/FIN-style connection record per skeleton to `out`
  /// (for ConnTrace synthesis): its start and duration, hosts drawn from
  /// `hosts`, and bytes from its packet count, ~1.6 per originator
  /// packet (Section V notes 85k packets carried 139k bytes). Draws two
  /// hosts and one uniform per record.
  void append_conn_records(rng::Rng& rng,
                           const std::vector<ConnSkeleton>& skeletons,
                           const HostModel& hosts,
                           trace::ConnTrace& out) const;

  /// Extracts skeletons from connections (the "trace measurement" step).
  static std::vector<ConnSkeleton> skeletons_of(
      const std::vector<TelnetConnection>& conns);

 private:
  TelnetConfig config_;
  dist::TcplibTelnetInterarrival tcplib_dist_;
  dist::LogNormal size_dist_;
};

}  // namespace wan::synth
