#include "src/synth/synthesizer.hpp"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "src/par/parallel.hpp"

namespace wan::synth {

ConnDatasetConfig::ConnDatasetConfig() {
  rlogin.protocol = trace::Protocol::kRlogin;
  rlogin.conns_per_day = 1200.0;
}

namespace {

// Runs one independent per-source generator per task, then gathers the
// parts' records: the largest part's are moved out, and each other part
// is appended and freed once copied. Each task owns a pre-derived child
// Rng stream, so the records it emits are identical to a serial run no
// matter how tasks are scheduled, and the caller's sort_by_start, a
// total order, makes the gather order irrelevant.
std::vector<trace::ConnRecord> generate_sources(
    std::vector<std::function<void(trace::ConnTrace&)>>& tasks) {
  std::vector<trace::ConnTrace> parts(tasks.size());
  par::parallel_for(0, tasks.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) tasks[i](parts[i]);
  });
  std::size_t total = 0;
  for (const trace::ConnTrace& p : parts) total += p.size();
  const auto largest = std::max_element(
      parts.begin(), parts.end(),
      [](const trace::ConnTrace& a, const trace::ConnTrace& b) {
        return a.size() < b.size();
      });
  std::vector<trace::ConnRecord> records = std::move(*largest).take_records();
  records.reserve(total);
  for (auto p = parts.begin(); p != parts.end(); ++p) {
    if (p == largest) continue;
    records.insert(records.end(), p->records().begin(), p->records().end());
    *p = trace::ConnTrace();
  }
  return records;
}

}  // namespace

trace::ConnTrace synthesize_conn_trace(const ConnDatasetConfig& config) {
  rng::Rng root(config.seed);
  const HostModel hosts(config.n_local_hosts, config.n_remote_hosts);
  const double t0 = 0.0;
  const double t1 = config.days * 86400.0;

  // Derive the per-source streams up front in the fixed order the serial
  // code always used; child() advances the root stream, so this order —
  // not the task schedule — determines every source's randomness.
  rng::Rng r_telnet = root.child("telnet");
  rng::Rng r_rlogin = root.child("rlogin");
  rng::Rng r_ftp = root.child("ftp");
  rng::Rng r_weather = config.include_weathermap ? root.child("weathermap")
                                                 : rng::Rng(0);
  rng::Rng r_smtp = root.child("smtp");
  rng::Rng r_nntp = root.child("nntp");
  rng::Rng r_www = root.child("www");
  rng::Rng r_x11 = root.child("x11");

  std::vector<std::function<void(trace::ConnTrace&)>> tasks;
  // TELNET and RLOGIN records read only each connection's start, packet
  // count and duration, so they take the Tcplib walk's skeletons, not
  // the connections' packet times.
  tasks.push_back([&, r_telnet](trace::ConnTrace& part) mutable {
    const TelnetSource src(config.telnet);
    src.append_conn_records(r_telnet,
                            src.generate_skeletons(r_telnet, t0, t1), hosts,
                            part);
  });
  tasks.push_back([&, r_rlogin](trace::ConnTrace& part) mutable {
    const TelnetSource src(config.rlogin);
    src.append_conn_records(r_rlogin,
                            src.generate_skeletons(r_rlogin, t0, t1), hosts,
                            part);
  });
  // FTP and the weather-map job share the session-id counter, so they
  // stay sequential inside one task.
  tasks.push_back([&, r_ftp, r_weather](trace::ConnTrace& part) mutable {
    std::uint64_t next_session = 1;
    const FtpSource src(config.ftp);
    src.generate(r_ftp, t0, t1, hosts, &next_session, part);
    if (config.include_weathermap) {
      WeatherMapConfig wm = config.weathermap;
      wm.local_host = 0;
      // The weather server is an obscure host: the *last* remote id, whose
      // Zipf popularity is negligible. (Using a popular remote would mix
      // user FTP traffic into the same host pair and blur the periodic
      // signature the detector looks for.)
      wm.remote_host = config.n_local_hosts + config.n_remote_hosts - 1;
      const WeatherMapSource wsrc(wm);
      wsrc.generate(r_weather, t0, t1, &next_session, part);
    }
  });
  tasks.push_back([&, r_smtp](trace::ConnTrace& part) mutable {
    const SmtpSource src(config.smtp);
    src.generate(r_smtp, t0, t1, hosts, part);
  });
  tasks.push_back([&, r_nntp](trace::ConnTrace& part) mutable {
    const NntpSource src(config.nntp);
    src.generate(r_nntp, t0, t1, hosts, part);
  });
  tasks.push_back([&, r_www](trace::ConnTrace& part) mutable {
    const WwwSource src(config.www);
    src.generate(r_www, t0, t1, hosts, part);
  });
  tasks.push_back([&, r_x11](trace::ConnTrace& part) mutable {
    const X11Source src(config.x11);
    src.generate(r_x11, t0, t1, hosts, part);
  });

  trace::ConnTrace out(config.name, t0, t1, generate_sources(tasks));
  out.sort_by_start();
  return out;
}

trace::PacketTrace synthesize_packet_trace(const PacketDatasetConfig& config) {
  rng::Rng root(config.seed);
  const HostModel hosts(config.n_local_hosts, config.n_remote_hosts);
  const double t0 = config.start_hour * 3600.0;
  const double t1 = t0 + config.hours * 3600.0;

  trace::PacketTrace out(config.name, t0, t1);
  std::uint32_t next_conn_id = 1;

  // Child streams in the serial derivation order (see
  // synthesize_conn_trace).
  rng::Rng r_telnet = root.child("telnet");
  rng::Rng r_ftp = root.child("ftp");
  rng::Rng r_smtp = root.child("smtp");
  rng::Rng r_nntp = root.child("nntp");
  rng::Rng r_www = root.child("www");
  rng::Rng r_fill = root.child("fill");
  // DNS and MBone each own a child stream (rather than sharing a "udp"
  // stream sequentially) so either can be generated without first
  // materializing the other — the streaming synthesizer needs that.
  rng::Rng r_dns = config.tcp_only ? rng::Rng(0) : root.child("dns");
  rng::Rng r_mbone = config.tcp_only ? rng::Rng(0) : root.child("mbone");

  // TELNET: FULL-TEL originator packets plus the responder model
  // (echoes and command-output bursts) so the aggregate trace carries
  // both directions. Runs concurrently with the bulk connection
  // generators; its packets keep the first conn-id block.
  trace::PacketTrace telnet_pkts;
  std::size_t n_telnet_conns = 0;
  trace::ConnTrace ftp_part, smtp_part, nntp_part, www_part;
  {
    std::vector<std::function<void()>> tasks;
    tasks.push_back([&, r_telnet]() mutable {
      TelnetConfig tc = config.telnet;
      tc.conns_per_day *= config.volume_scale;
      const TelnetSource src(tc);
      const auto conns = src.generate_connections(
          r_telnet, t0, t1, InterarrivalScheme::kTcplib);
      n_telnet_conns = conns.size();
      telnet_pkts = src.to_packet_trace_with_responder(
          r_telnet, conns, t0, t1, ResponderConfig{}, /*next_conn_id=*/1);
    });
    tasks.push_back([&, r_ftp]() mutable {
      FtpConfig fc = config.ftp;
      fc.sessions_per_day *= config.volume_scale;
      const FtpSource src(fc);
      std::uint64_t next_session = 1;
      ftp_part = trace::ConnTrace("bulk", t0, t1);
      src.generate(r_ftp, t0, t1, hosts, &next_session, ftp_part);
    });
    tasks.push_back([&, r_smtp]() mutable {
      SmtpConfig sc = config.smtp;
      sc.conns_per_day *= config.volume_scale;
      const SmtpSource src(sc);
      smtp_part = trace::ConnTrace("bulk", t0, t1);
      src.generate(r_smtp, t0, t1, hosts, smtp_part);
    });
    tasks.push_back([&, r_nntp]() mutable {
      NntpConfig nc = config.nntp;
      nc.conns_per_day *= config.volume_scale;
      const NntpSource src(nc);
      nntp_part = trace::ConnTrace("bulk", t0, t1);
      src.generate(r_nntp, t0, t1, hosts, nntp_part);
    });
    tasks.push_back([&, r_www]() mutable {
      WwwConfig wc = config.www;
      wc.sessions_per_day *= config.volume_scale;
      const WwwSource src(wc);
      www_part = trace::ConnTrace("bulk", t0, t1);
      src.generate(r_www, t0, t1, hosts, www_part);
    });
    par::parallel_for(0, tasks.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) tasks[i]();
    });
  }

  for (const auto& p : telnet_pkts.records()) out.add(p);
  next_conn_id += static_cast<std::uint32_t>(n_telnet_conns);

  // Bulk protocols: concatenate the per-protocol connection records in
  // the serial order, then packetize.
  {
    trace::ConnTrace bulk("bulk", t0, t1);
    bulk.reserve(ftp_part.size() + smtp_part.size() + nntp_part.size() +
                 www_part.size());
    for (const trace::ConnTrace* part :
         {&ftp_part, &smtp_part, &nntp_part, &www_part}) {
      for (const auto& rec : part->records()) bulk.add(rec);
    }
    fill_bulk_packets(r_fill, bulk, config.fill, &next_conn_id, out);
  }

  if (!config.tcp_only) {
    DnsConfig dc = config.dns;
    dc.queries_per_hour *= config.volume_scale;
    fill_dns_packets(r_dns, dc, t0, t1, &next_conn_id, out);
    MboneConfig mc = config.mbone;
    mc.sessions_per_hour *= config.volume_scale;
    fill_mbone_packets(r_mbone, mc, t0, t1, &next_conn_id, out);
  }

  // Drop packets that drifted past the capture window and sort.
  trace::PacketTrace clipped(config.name, t0, t1);
  clipped.reserve(out.size());
  for (const auto& p : out.records()) {
    if (p.time >= t0 && p.time < t1) clipped.add(p);
  }
  clipped.sort_by_time();
  return clipped;
}

ConnDatasetConfig lbl_conn_preset(std::string name, double days,
                                  std::uint64_t seed) {
  ConnDatasetConfig c;
  c.name = std::move(name);
  c.days = days;
  c.seed = seed;
  return c;  // defaults are LBL-like
}

ConnDatasetConfig small_site_conn_preset(std::string name, double days,
                                         std::uint64_t seed) {
  ConnDatasetConfig c;
  c.name = std::move(name);
  c.days = days;
  c.seed = seed;
  const double s = 0.2;
  c.telnet.conns_per_day *= s;
  c.rlogin.conns_per_day *= s;
  c.ftp.sessions_per_day *= s;
  c.smtp.conns_per_day *= s;
  c.smtp.profile = DiurnalProfile::smtp_east();
  c.nntp.conns_per_day *= s;
  c.www.sessions_per_day *= s;
  c.x11.sessions_per_day *= s;
  return c;
}

PacketDatasetConfig lbl_pkt_preset(std::string name, bool tcp_only,
                                   std::uint64_t seed) {
  PacketDatasetConfig c;
  c.name = std::move(name);
  c.tcp_only = tcp_only;
  c.seed = seed;
  // ~270 TELNET connections in a 2 PM - 4 PM two-hour window: the two
  // hours carry ~13% of the telnet() profile's day, so 270 / 0.13.
  c.telnet.conns_per_day = 2100.0;
  c.hours = tcp_only ? 2.0 : 1.0;
  return c;
}

PacketDatasetConfig dec_wrl_pkt_preset(std::string name, std::uint64_t seed) {
  PacketDatasetConfig c = lbl_pkt_preset(std::move(name), false, seed);
  c.hours = 1.0;
  c.volume_scale = 2.5;  // DEC WRL ran hotter than LBL
  return c;
}

}  // namespace wan::synth
