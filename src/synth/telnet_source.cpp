#include "src/synth/telnet_source.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/dist/exponential.hpp"
#include "src/dist/zipf.hpp"

namespace wan::synth {

TelnetSource::TelnetSource(TelnetConfig config)
    : config_(config),
      tcplib_dist_(config.tcplib),
      size_dist_(dist::LogNormal::from_log2(config.size_log2_mean,
                                            config.size_log2_sd)) {
  if (!(config_.exp_mean > 0.0))
    throw std::invalid_argument("TelnetConfig: exp_mean must be > 0");
  if (config_.min_packets < 2)
    throw std::invalid_argument("TelnetConfig: min_packets must be >= 2");
}

std::size_t TelnetSource::sample_size_packets(rng::Rng& rng) const {
  const double raw = size_dist_.sample(rng);
  const auto n = static_cast<std::size_t>(std::llround(raw));
  return std::clamp(n, config_.min_packets, config_.max_packets);
}

std::vector<double> TelnetSource::generate_packet_times(
    rng::Rng& rng, double start, std::size_t n, InterarrivalScheme scheme,
    double duration) const {
  switch (scheme) {
    case InterarrivalScheme::kTcplib:
      return renewal_arrivals_count(rng, tcplib_dist_, start, n);
    case InterarrivalScheme::kExponential: {
      const dist::Exponential exp_dist(config_.exp_mean);
      return renewal_arrivals_count(rng, exp_dist, start, n);
    }
    case InterarrivalScheme::kVarExp: {
      if (!(duration > 0.0)) duration = config_.exp_mean * static_cast<double>(n);
      return uniform_arrivals(rng, start, start + duration, n);
    }
  }
  return {};
}

double TelnetSource::tcplib_last_packet_time(rng::Rng& rng, double start,
                                             std::size_t n) const {
  // renewal_arrivals_count's loop, keeping only the last time it pushes.
  double t = start;
  double last = start;
  for (std::size_t i = 0; i < n; ++i) {
    last = t;
    t += tcplib_dist_.sample(rng);
  }
  return last;
}

std::vector<TelnetConnection> TelnetSource::generate_connections(
    rng::Rng& rng, double t0, double t1, InterarrivalScheme scheme) const {
  const auto starts =
      poisson_arrivals_hourly(rng, config_.profile, config_.conns_per_day,
                              t0, t1);
  std::vector<TelnetConnection> conns;
  conns.reserve(starts.size());
  for (double s : starts) {
    TelnetConnection c;
    c.start = s;
    const std::size_t n = sample_size_packets(rng);
    c.packet_times = generate_packet_times(rng, s, n, scheme);
    conns.push_back(std::move(c));
  }
  return conns;
}

std::vector<ConnSkeleton> TelnetSource::generate_skeletons(rng::Rng& rng,
                                                          double t0,
                                                          double t1) const {
  const auto starts =
      poisson_arrivals_hourly(rng, config_.profile, config_.conns_per_day,
                              t0, t1);
  std::vector<ConnSkeleton> skeletons;
  skeletons.reserve(starts.size());
  for (double s : starts) {
    const std::size_t n = sample_size_packets(rng);
    skeletons.push_back({s, n, tcplib_last_packet_time(rng, s, n) - s});
  }
  return skeletons;
}

std::vector<TelnetConnection> TelnetSource::generate_from_skeletons(
    rng::Rng& rng, const std::vector<ConnSkeleton>& skeletons,
    InterarrivalScheme scheme) const {
  std::vector<TelnetConnection> conns;
  conns.reserve(skeletons.size());
  for (const ConnSkeleton& sk : skeletons) {
    TelnetConnection c;
    c.start = sk.start;
    c.packet_times = generate_packet_times(rng, sk.start, sk.packets, scheme,
                                           sk.duration);
    conns.push_back(std::move(c));
  }
  return conns;
}

void TelnetSource::append_originator_packets(const TelnetConnection& c,
                                             double t0, double t1,
                                             std::uint32_t conn_id,
                                             trace::PacketTrace& out) const {
  for (std::size_t i = 0; i < c.packet_times.size(); ++i) {
    const double t = c.packet_times[i];
    if (t < t0 || t >= t1) continue;
    trace::PacketRecord r;
    r.time = t;
    r.protocol = config_.protocol;
    r.conn_id = conn_id;
    r.from_originator = true;
    // Mostly single keystrokes; occasional line-mode packets. The blend
    // averages ~1.6 bytes/packet, matching Section V's 139k bytes over
    // 85k packets.
    r.payload_bytes = static_cast<std::uint16_t>(1 + (i % 8 == 7 ? 5 : 0));
    out.add(r);
  }
}

void TelnetSource::append_responder_packets(rng::Rng& rng,
                                            const TelnetConnection& c,
                                            double t0, double t1,
                                            std::uint32_t conn_id,
                                            const ResponderConfig& responder,
                                            trace::PacketTrace& out) const {
  const dist::LogNormal echo_delay(responder.echo_delay_log_mean,
                                   responder.echo_delay_log_sd);
  for (double t : c.packet_times) {
    if (t < t0 || t >= t1) continue;
    // Echo of the keystroke.
    trace::PacketRecord echo;
    echo.time = t + echo_delay.sample(rng);
    echo.protocol = config_.protocol;
    echo.conn_id = conn_id;
    echo.from_originator = false;
    echo.payload_bytes = static_cast<std::uint16_t>(1 + rng.uniform_int(4));
    if (echo.time < t1) out.add(echo);

    // Occasional command output: a run of full segments.
    if (rng.bernoulli(responder.output_probability)) {
      const std::size_t n =
          1 + std::min<std::size_t>(dist::DiscretePareto{}.sample(rng),
                                    responder.max_output_packets - 1);
      double ot = echo.time + 0.05;
      for (std::size_t k = 0; k < n && ot < t1; ++k) {
        trace::PacketRecord outp;
        outp.time = ot;
        outp.protocol = config_.protocol;
        outp.conn_id = conn_id;
        outp.from_originator = false;
        outp.payload_bytes = responder.output_bytes;
        out.add(outp);
        ot += responder.output_gap * (0.5 + rng.uniform01());
      }
    }
  }
}

trace::PacketTrace TelnetSource::to_packet_trace(
    const std::vector<TelnetConnection>& conns, double t0, double t1,
    std::uint32_t first_conn_id) const {
  trace::PacketTrace out("telnet-synth", t0, t1);
  std::uint32_t id = first_conn_id;
  for (const TelnetConnection& c : conns) {
    append_originator_packets(c, t0, t1, id, out);
    ++id;
  }
  out.sort_by_time();
  return out;
}

trace::PacketTrace TelnetSource::to_packet_trace_with_responder(
    rng::Rng& rng, const std::vector<TelnetConnection>& conns, double t0,
    double t1, const ResponderConfig& responder,
    std::uint32_t first_conn_id) const {
  trace::PacketTrace out = to_packet_trace(conns, t0, t1, first_conn_id);
  std::uint32_t id = first_conn_id;
  for (const TelnetConnection& c : conns) {
    append_responder_packets(rng, c, t0, t1, id, responder, out);
    ++id;
  }
  out.sort_by_time();
  return out;
}

void TelnetSource::append_conn_records(
    rng::Rng& rng, const std::vector<ConnSkeleton>& skeletons,
    const HostModel& hosts, trace::ConnTrace& out) const {
  for (const ConnSkeleton& c : skeletons) {
    trace::ConnRecord r;
    r.start = c.start;
    r.duration = c.duration;
    r.protocol = config_.protocol;
    r.src_host = hosts.sample_local(rng);
    r.dst_host = hosts.sample_remote(rng);
    const auto pkts = static_cast<double>(c.packets);
    r.bytes_orig = static_cast<std::uint64_t>(pkts * 1.6);
    // The responder echoes keystrokes and adds command output.
    r.bytes_resp = static_cast<std::uint64_t>(
        pkts * (10.0 + 40.0 * rng.uniform01()));
    out.add(r);
  }
}

std::vector<ConnSkeleton> TelnetSource::skeletons_of(
    const std::vector<TelnetConnection>& conns) {
  std::vector<ConnSkeleton> sk;
  sk.reserve(conns.size());
  for (const TelnetConnection& c : conns) {
    sk.push_back({c.start, c.packet_times.size(), c.duration()});
  }
  return sk;
}

}  // namespace wan::synth
