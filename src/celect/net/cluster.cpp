#include "celect/net/cluster.h"

#include <algorithm>
#include <memory>
#include <set>

#include <unistd.h>

#include "celect/util/check.h"
#include "celect/util/rng.h"

namespace celect::net {

namespace {

// Distinct, seed-shuffled identities: protocols contest on ids, so the
// winner should not trivially be node n-1 every run.
std::vector<sim::Id> MakeIds(std::uint32_t n, std::uint64_t seed) {
  Rng rng(SplitMix64(seed ^ 0x1d5).Next());
  auto perm = rng.Permutation(n);
  std::vector<sim::Id> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ids[i] = static_cast<sim::Id>(perm[i]) * 7 + 1001;
  }
  return ids;
}

struct Agreement {
  bool agreed = false;
  sim::Id leader = 0;
};

// Live nodes unanimous, and the believed id was actually declared.
template <typename NodeVec>
Agreement CheckAgreement(const NodeVec& nodes,
                         const std::vector<bool>& alive,
                         const std::set<sim::Id>& declared) {
  Agreement a;
  std::optional<sim::Id> belief;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!alive[i] || nodes[i] == nullptr) continue;
    auto l = nodes[i]->leader();
    if (!l) return a;
    if (belief && *belief != *l) return a;
    belief = l;
  }
  if (!belief || declared.count(*belief) == 0) return a;
  a.agreed = true;
  a.leader = *belief;
  return a;
}

// The fixed totals and RTT percentiles, once every transport is in.
void Finish(ClusterResult& r, std::vector<Micros>& samples) {
  for (const TransportStats& st : r.transports) {
    r.datagrams += st.datagrams_sent;
    r.delivered += st.sessions.delivered;
  }
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  r.rtt_p50_us = samples[samples.size() / 2];
  r.rtt_p99_us = samples[samples.size() * 99 / 100];
}

}  // namespace

obs::MetricsRegistry ClusterResult::metrics() const {
  obs::MetricsRegistry m;
  for (const TransportStats& st : transports) RecordTransportStats(st, m);
  return m;
}

ClusterResult RunSimElection(const ClusterConfig& config,
                             const sim::ProcessFactory& factory) {
  SimNetConfig nc;
  nc.n = config.n;
  nc.link = config.link;
  nc.session = config.session;
  nc.seed = config.seed;
  SimNet net(nc);

  auto ids = MakeIds(config.n, config.seed);
  std::vector<std::unique_ptr<PeerNode>> nodes(config.n);
  auto make_node = [&](PeerId i, bool rejoin) {
    PeerNodeConfig pc;
    pc.id = ids[i];
    pc.unit_us = config.unit_us;
    pc.announce_interval_us = config.announce_interval_us;
    pc.rejoin = rejoin;
    pc.trace = config.trace;
    pc.trace_cap = config.trace_cap;
    return std::make_unique<PeerNode>(pc, net.at(i), factory);
  };
  std::vector<bool> alive(config.n, true);
  for (PeerId i = 0; i < config.n; ++i) nodes[i] = make_node(i, false);

  auto chaos = config.chaos;
  std::stable_sort(chaos.begin(), chaos.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at < b.at;
                   });
  std::size_t chaos_idx = 0;

  ClusterResult result;
  wire::Fnv1aStream fp;
  std::set<sim::Id> declared;
  auto note_declared = [&] {
    for (PeerId i = 0; i < config.n; ++i) {
      if (alive[i] && nodes[i]->declared_self()) {
        declared.insert(nodes[i]->id());
      }
    }
  };
  auto fold_node = [&](PeerId i, bool survived) {
    // Fold a dying incarnation's digest, stats, and shard before they
    // vanish. A killed node's shard is flagged incomplete — the sim
    // analogue of the partial flush a SIGKILLed process leaves behind.
    std::uint64_t d = nodes[i]->EventDigest();
    for (int b = 0; b < 8; ++b) {
      fp.Update(static_cast<std::uint8_t>(d >> (8 * b)));
    }
    result.transports.push_back(net.at(i).Stats());
    if (config.trace) result.shards.push_back(nodes[i]->MakeShard(survived));
  };

  for (PeerId i = 0; i < config.n; ++i) nodes[i]->Pump();

  for (;;) {
    note_declared();
    Agreement a = CheckAgreement(nodes, alive, declared);
    if (a.agreed) {
      result.agreed = true;
      result.leader = a.leader;
      break;
    }
    std::optional<Micros> next = net.NextEvent();
    for (PeerId i = 0; i < config.n; ++i) {
      if (!alive[i]) continue;
      auto w = nodes[i]->NextWake();
      if (w && (!next || *w < *next)) next = w;
    }
    if (chaos_idx < chaos.size() &&
        (!next || chaos[chaos_idx].at < *next)) {
      next = chaos[chaos_idx].at;
    }
    if (!next || *next > config.deadline_us) break;
    net.virtual_clock().AdvanceTo(*next);
    while (chaos_idx < chaos.size() &&
           chaos[chaos_idx].at <= net.virtual_clock().Now()) {
      const ChaosEvent& ev = chaos[chaos_idx++];
      if (ev.what == ChaosEvent::What::kKill) {
        if (!alive[ev.node]) continue;
        fold_node(ev.node, /*survived=*/false);
        net.Kill(ev.node);
        nodes[ev.node].reset();
        alive[ev.node] = false;
      } else {
        if (alive[ev.node]) continue;
        net.Restart(ev.node);
        nodes[ev.node] = make_node(ev.node, /*rejoin=*/true);
        alive[ev.node] = true;
      }
    }
    net.DeliverDue();
    for (PeerId i = 0; i < config.n; ++i) {
      if (alive[i]) nodes[i]->Pump();
    }
  }

  result.elapsed_us = net.virtual_clock().Now();
  std::vector<Micros> rtt;
  for (PeerId i = 0; i < config.n; ++i) {
    if (!alive[i]) continue;
    fold_node(i, /*survived=*/true);
    const SessionStats& st = result.transports.back().sessions;
    rtt.insert(rtt.end(), st.rtt_samples.begin(), st.rtt_samples.end());
  }
  Finish(result, rtt);
  result.fingerprint = fp.Digest64();
  return result;
}

std::optional<ClusterResult> RunUdpElection(
    const ClusterConfig& config, const sim::ProcessFactory& factory) {
  auto ids = MakeIds(config.n, config.seed);
  std::vector<std::unique_ptr<UdpTransport>> transports(config.n);
  for (PeerId i = 0; i < config.n; ++i) {
    UdpTransportConfig tc;
    tc.self = i;
    tc.n = config.n;
    tc.base_port = config.base_port;
    tc.session = config.session;
    tc.send_loss = config.send_loss;
    tc.seed = SplitMix64(config.seed ^ (i + 1)).Next();
    tc.epoch = config.seed * config.n + i + 1;
    transports[i] = std::make_unique<UdpTransport>(tc);
    if (!transports[i]->Open()) return std::nullopt;
  }
  std::vector<std::unique_ptr<PeerNode>> nodes(config.n);
  std::vector<bool> alive(config.n, true);
  for (PeerId i = 0; i < config.n; ++i) {
    PeerNodeConfig pc;
    pc.id = ids[i];
    pc.unit_us = config.unit_us;
    pc.announce_interval_us = config.announce_interval_us;
    pc.trace = config.trace;
    pc.trace_cap = config.trace_cap;
    nodes[i] = std::make_unique<PeerNode>(pc, *transports[i], factory);
  }

  ClusterResult result;
  std::set<sim::Id> declared;
  Micros t0 = transports[0]->Now();
  for (;;) {
    for (PeerId i = 0; i < config.n; ++i) nodes[i]->Pump();
    for (PeerId i = 0; i < config.n; ++i) {
      if (nodes[i]->declared_self()) declared.insert(nodes[i]->id());
    }
    Agreement a = CheckAgreement(nodes, alive, declared);
    if (a.agreed) {
      result.agreed = true;
      result.leader = a.leader;
      break;
    }
    Micros now = transports[0]->Now();
    if (now - t0 > config.deadline_us) break;
    ::usleep(200);
  }

  result.elapsed_us = transports[0]->Now() - t0;
  std::vector<Micros> rtt;
  for (PeerId i = 0; i < config.n; ++i) {
    result.transports.push_back(transports[i]->Stats());
    if (config.trace) result.shards.push_back(nodes[i]->MakeShard(true));
    const SessionStats& st = result.transports.back().sessions;
    rtt.insert(rtt.end(), st.rtt_samples.begin(), st.rtt_samples.end());
  }
  Finish(result, rtt);
  return result;
}

}  // namespace celect::net
