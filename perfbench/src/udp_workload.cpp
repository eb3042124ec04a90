// udp_lossy: the FT engine (f = 1) electing over real localhost UDP
// sockets inside this process, n = 4, with 2% injected send loss. Each
// election gets its own seed, so its own identities, loss pattern and
// session jitter.
//
// Untraced rounds call net::RunUdpElection. It builds its transports
// internally, so the traced rounds drive UdpTransport and PeerNode
// through a loop of the same shape (pump every node, check agreement,
// sleep 200 us) with a TimedTransport around each transport and a
// TimedFactory around the engine.
#include <unistd.h>

#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "celect/net/cluster.h"
#include "celect/net/frame.h"
#include "celect/net/peer_node.h"
#include "celect/net/udp_transport.h"
#include "celect/proto/nosod/fault_tolerant.h"
#include "celect/util/rng.h"
#include "celect/wire/packet_codec.h"
#include "timed.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace celect;

constexpr std::uint32_t kUdpN = 4;
constexpr double kUdpLoss = 0.02;
constexpr net::Micros kDeadlineUs = 20'000'000;

// Ports base..base+n-1 on 127.0.0.1, below the usual ephemeral range.
// A block that cannot be bound is skipped, not counted as a failure.
constexpr int kPortAttempts = 64;
std::uint16_t PortBlock(std::uint64_t seed, int attempt) {
  return static_cast<std::uint16_t>(
      20000 + 16 * ((seed * 7919 + static_cast<std::uint64_t>(attempt)) %
                    700));
}

net::ClusterConfig UdpConfig(std::uint64_t seed, std::uint16_t base_port) {
  net::ClusterConfig config;
  config.n = kUdpN;
  config.seed = seed;
  config.base_port = base_port;
  config.send_loss = kUdpLoss;
  config.deadline_us = kDeadlineUs;
  return config;
}

// The identities RunUdpElection assigns for a seed (net/cluster.cpp),
// so a traced election elects among the same identities.
std::vector<sim::Id> UdpIds(std::uint32_t n, std::uint64_t seed) {
  Rng rng(SplitMix64(seed ^ 0x1d5).Next());
  const auto perm = rng.Permutation(n);
  std::vector<sim::Id> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ids[i] = static_cast<sim::Id>(perm[i]) * 7 + 1001;
  }
  return ids;
}

// Spans and counts summed over the traced elections of a run.
struct UdpTracing {
  ProcessTimes process;
  TransportTimes transport;
  Span pump;
  std::uint64_t wall_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t acks = 0;
  std::uint64_t bytes = 0;
  std::vector<double> rtt_us;
};

struct TracedElection {
  bool bound = false;
  std::uint64_t total_ns = 0;  // set-up + election + teardown
  std::string error;
};

TracedElection RunTracedElection(std::uint64_t seed, std::uint16_t base_port,
                                 UdpTracing& tr) {
  TracedElection out;
  const std::uint64_t t0 = NowNs();
  const net::ClusterConfig config = UdpConfig(seed, base_port);
  const auto ids = UdpIds(config.n, config.seed);
  std::vector<std::unique_ptr<net::UdpTransport>> transports(config.n);
  std::vector<std::unique_ptr<TimedTransport>> timed(config.n);
  for (net::PeerId i = 0; i < config.n; ++i) {
    net::UdpTransportConfig tc;
    tc.self = i;
    tc.n = config.n;
    tc.base_port = config.base_port;
    tc.session = config.session;
    tc.send_loss = config.send_loss;
    tc.seed = SplitMix64(config.seed ^ (i + 1)).Next();
    tc.epoch = config.seed * config.n + i + 1;
    transports[i] = std::make_unique<net::UdpTransport>(tc);
    if (!transports[i]->Open()) return out;
    timed[i] = std::make_unique<TimedTransport>(*transports[i], tr.transport);
  }
  out.bound = true;
  const std::size_t declared_before = tr.process.declarations.size();
  const sim::ProcessFactory factory =
      TimedFactory(proto::nosod::MakeFaultTolerant(1), tr.process);
  std::vector<std::unique_ptr<net::PeerNode>> nodes(config.n);
  for (net::PeerId i = 0; i < config.n; ++i) {
    net::PeerNodeConfig pc;
    pc.id = ids[i];
    pc.unit_us = config.unit_us;
    pc.announce_interval_us = config.announce_interval_us;
    nodes[i] = std::make_unique<net::PeerNode>(pc, *timed[i], factory);
  }

  std::set<sim::Id> declared;
  std::optional<sim::Id> leader;
  const std::uint64_t start = NowNs();
  for (;;) {
    for (auto& node : nodes) {
      const std::uint64_t p0 = NowNs();
      node->Pump();
      tr.pump.Add(NowNs() - p0);
    }
    for (auto& node : nodes) {
      if (node->declared_self()) declared.insert(node->id());
    }
    // Agreement as RunUdpElection defines it: every node holds the same
    // belief, and that leader declared itself.
    std::optional<sim::Id> belief = nodes[0]->leader();
    for (auto& node : nodes) {
      if (node->leader() != belief) belief.reset();
    }
    if (belief && declared.count(*belief) != 0) {
      leader = belief;
      break;
    }
    if (NowNs() - start > kDeadlineUs * 1000) break;
    ::usleep(200);
  }
  tr.wall_ns += NowNs() - start;

  const std::vector<sim::Id> declarations(
      tr.process.declarations.begin() + declared_before,
      tr.process.declarations.end());
  std::ostringstream e;
  if (!leader) {
    e << "no agreement within " << kDeadlineUs / 1000 << " ms; ";
  } else if (declarations.size() != 1 || declarations[0] != *leader) {
    e << declarations.size()
      << " DeclareLeader calls, want one, from the agreed leader; ";
  }
  out.error = e.str();

  for (net::PeerId i = 0; i < config.n; ++i) {
    tr.events += nodes[i]->events_dispatched();
    const net::TransportStats st = transports[i]->Stats();
    tr.retransmits += st.sessions.data_retransmits;
    tr.acks += st.sessions.acks_sent;
    tr.bytes += st.bytes_sent;
    for (net::Micros r : st.sessions.rtt_samples) {
      tr.rtt_us.push_back(static_cast<double>(r));
    }
  }
  nodes.clear();
  timed.clear();
  transports.clear();
  out.total_ns = NowNs() - t0;
  return out;
}

// Replays the sent packets through the packet and frame codecs, the
// same four calls a Data frame's packet goes through on its way from a
// sender's session to the receiver's engine. Returns ns per packet, or
// a negative value if a packet did not survive the round trip.
double ReplayCodec(const std::vector<wire::Packet>& sent) {
  if (sent.empty()) return 0;
  std::vector<std::optional<wire::Packet>> decoded;
  decoded.reserve(sent.size());
  std::vector<std::uint8_t> frame;
  std::vector<net::Frame> frames;
  net::FrameDecoder decoder;
  const std::uint64_t t0 = NowNs();
  for (const wire::Packet& p : sent) {
    const std::vector<std::uint8_t> bytes = wire::Encode(p);
    frame.clear();
    net::EncodeFrame(net::FrameKind::kData, bytes, frame);
    frames.clear();
    decoder.PushBytes(frame.data(), frame.size(), frames);
    decoded.push_back(frames.size() == 1
                          ? wire::Decode(frames[0].payload)
                          : std::nullopt);
  }
  const std::uint64_t t1 = NowNs();
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (!decoded[i] || !(*decoded[i] == sent[i])) return -1;
  }
  return static_cast<double>(t1 - t0) / static_cast<double>(sent.size());
}

struct UntracedElection {
  std::optional<net::ClusterResult> result;  // nullopt: ports unbindable
  std::uint64_t call_ns = 0;
};

UntracedElection RunUntracedElection(std::uint64_t seed,
                                     std::uint16_t base_port) {
  UntracedElection out;
  const std::uint64_t t0 = NowNs();
  out.result = net::RunUdpElection(UdpConfig(seed, base_port),
                                   proto::nosod::MakeFaultTolerant(1));
  out.call_ns = NowNs() - t0;
  return out;
}

// Runs `election(port)` on the first bindable port block; false when
// none could be bound.
template <typename F>
bool OnFreePorts(std::uint64_t seed, F&& election) {
  for (int a = 0; a < kPortAttempts; ++a) {
    if (election(PortBlock(seed, a))) return true;
  }
  return false;
}

}  // namespace

void RunUdpLossy(const Options& opt, Report& report) {
  const auto budget = static_cast<std::uint64_t>(opt.seconds * 1e9);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::uint64_t t0 = NowNs();
  const auto ports_unavailable = [&report] {
    report.errors.push_back("no bindable UDP port block on 127.0.0.1");
  };

  if (!opt.trace) {
    std::vector<double> setup_s, election_ms, delivered_per_s;
    std::uint64_t elections = 0, datagrams = 0;
    for (std::uint64_t i = 0; i == 0 || NowNs() - t0 < budget; ++i) {
      UntracedElection u;
      if (!OnFreePorts(opt.seed, [&](std::uint16_t port) {
            u = RunUntracedElection(RoundSeed(opt.seed, i), port);
            return u.result.has_value();
          })) {
        ports_unavailable();
        return;
      }
      const net::ClusterResult& r = *u.result;
      report.Count(r.agreed ? "" : "election did not reach agreement");
      if (!r.agreed) continue;
      setup_s.push_back((d(u.call_ns) - d(r.elapsed_us) * 1e3) / 1e9);
      election_ms.push_back(d(r.elapsed_us) / 1e3);
      delivered_per_s.push_back(d(r.delivered) / (d(r.elapsed_us) / 1e6));
      ++elections;
      datagrams += r.datagrams;
    }
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.events_per_s = Median(delivered_per_s);
    e.election_ms_p50 = Median(election_ms);
    e.election_ms_p95 = Quantile(election_ms, 0.95);
    e.elections_per_s = d(elections) / (d(NowNs() - t0) / 1e9);
    e.datagrams_per_election = PerUnit(d(datagrams), d(elections));
    e.peak_rss_mb = d(PeakRssBytes()) / (1 << 20);
    AddEndToEnd(e, report);
    return;
  }

  // Traced: each round runs one untraced and one traced election on the
  // same seed.
  const double clock_ns = ClockReadNs();
  UdpTracing tr;
  std::vector<double> setup_ns, codec_ns;
  std::uint64_t untraced_ns = 0, traced_ns = 0, elections = 0;
  for (std::uint64_t i = 0; i == 0 || NowNs() - t0 < budget; ++i) {
    const std::uint64_t seed = RoundSeed(opt.seed, i);
    UntracedElection u;
    TracedElection t;
    tr.transport.sent.clear();
    if (!OnFreePorts(opt.seed, [&](std::uint16_t port) {
          u = RunUntracedElection(seed, port);
          if (!u.result) return false;
          t = RunTracedElection(seed, port, tr);
          return t.bound;
        })) {
      ports_unavailable();
      return;
    }
    std::string error = t.error;
    if (!u.result->agreed) error = "untraced election did not agree";
    const double codec = ReplayCodec(tr.transport.sent);
    if (codec < 0) error = "codec replay did not round-trip a packet";
    report.Count(error);
    codec_ns.push_back(codec);
    setup_ns.push_back(d(u.call_ns) - d(u.result->elapsed_us) * 1e3);
    untraced_ns += u.call_ns;
    traced_ns += t.total_ns;
    ++elections;
  }

  const ProcessTimes& p = tr.process;
  const Span& send = tr.transport.send;
  const Span& poll = tr.transport.poll;
  const double send_w = d(send.ns) - clock_ns * d(send.calls);
  const double poll_w = d(poll.ns) - clock_ns * d(poll.calls);
  const double ctx_send_w = d(p.send.ns) - clock_ns * d(p.send.calls);
  const double timer_w = d(p.timer.ns) - clock_ns * d(p.timer.calls);
  const double handler_self_w =
      d(p.handler.ns) - d(p.send.ns) - d(p.timer.ns) -
      clock_ns * d(p.handler.calls + p.send.calls + p.timer.calls);
  // Every nested span's two clock readings fall inside the pump span.
  const double pump_reads =
      clock_ns * (d(tr.pump.calls) +
                  2 * d(poll.calls + send.calls + p.handler.calls +
                        p.send.calls + p.timer.calls));
  const double host_w =
      d(tr.pump.ns) - pump_reads - poll_w - send_w - handler_self_w;

  Layers l;
  l.sim_send_ns_per_message = PerUnit(ctx_send_w, d(p.messages));
  l.sim_events_per_election = PerUnit(d(tr.events), d(elections));
  l.sim_timer_ns_per_call = PerUnit(timer_w, d(p.timer.calls));
  l.sim_timer_calls_per_election = PerUnit(d(p.timer.calls), d(elections));
  l.proto_handler_ns_per_event = PerUnit(handler_self_w, d(p.handler.calls));
  l.proto_messages_per_election = PerUnit(d(p.messages), d(elections));
  l.harness_setup_ns_per_node = Median(setup_ns) / kUdpN;
  l.net_send_ns_per_packet = PerUnit(send_w, d(send.calls));
  l.net_poll_ns_per_call = PerUnit(poll_w, d(poll.calls));
  l.net_polls_per_election = PerUnit(d(poll.calls), d(elections));
  l.net_host_ns_per_event = PerUnit(host_w, d(tr.events));
  l.net_wait_ms_per_election =
      PerUnit((d(tr.wall_ns) - d(tr.pump.ns)) / 1e6, d(elections));
  l.net_wait_pct_of_election =
      PerUnit((d(tr.wall_ns) - d(tr.pump.ns)) * 100, d(tr.wall_ns));
  l.net_retransmits_per_election = PerUnit(d(tr.retransmits), d(elections));
  l.net_acks_per_election = PerUnit(d(tr.acks), d(elections));
  l.net_bytes_per_election = PerUnit(d(tr.bytes), d(elections));
  l.net_rtt_us_p50 = Median(tr.rtt_us);
  l.wire_codec_ns_per_packet = Median(codec_ns);
  l.trace_overhead_pct = (d(traced_ns) / d(untraced_ns) - 1) * 100;
  AddLayers(l, report);
}

}  // namespace perfbench
