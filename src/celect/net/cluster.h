// Election drivers over a transport mesh.
//
// RunSimElection drives n PeerNodes over a SimNet to completion on the
// virtual clock — fully deterministic, with scripted kill/restart chaos
// — and is what the reliability test suite and the sim rows of
// bench_transport run. RunUdpElection drives n UdpTransports inside one
// process on the real clock (the socket rows of the bench, and a
// smoke-testable miniature of the multi-process demo).
//
// "Agreed" means: every currently-live node holds the same leader
// belief, at least one node actually declared itself, and the believed
// leader is that declarer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "celect/net/peer_node.h"
#include "celect/net/sim_net.h"
#include "celect/net/udp_transport.h"
#include "celect/obs/shard.h"
#include "celect/sim/process.h"

namespace celect::net {

struct ChaosEvent {
  Micros at = 0;
  PeerId node = 0;
  enum class What { kKill, kRestart } what = What::kKill;
};

struct ClusterConfig {
  std::uint32_t n = 4;
  std::uint64_t seed = 1;
  FakeLinkParams link;        // sim path only
  SessionParams session;
  Micros unit_us = 20'000;
  Micros announce_interval_us = 100'000;
  Micros deadline_us = 120'000'000;  // virtual (sim) or real (udp)
  std::vector<ChaosEvent> chaos;     // sim path only; sorted by `at`
  // udp path only:
  std::uint16_t base_port = 47000;
  double send_loss = 0.0;
  // Collect causal trace records per node and emit one TraceShard per
  // incarnation in ClusterResult::shards (killed incarnations flush a
  // complete=false shard at the moment of death).
  bool trace = false;
  std::size_t trace_cap = 200'000;
};

struct ClusterResult {
  bool agreed = false;
  sim::Id leader = 0;
  Micros elapsed_us = 0;
  // Datagrams sent and packets delivered, summed over `transports`.
  std::uint64_t datagrams = 0;
  std::uint64_t delivered = 0;
  // Per-node event digests folded in node order — two runs of the same
  // sim config agree on this iff they dispatched identical event
  // streams. Meaningless (wall-clock-dependent) on the udp path.
  std::uint64_t fingerprint = 0;
  // RTT percentiles over never-retransmitted frames (0 when no samples).
  Micros rtt_p50_us = 0;
  Micros rtt_p99_us = 0;
  // Every incarnation's transport stats, in capture order (deaths
  // first, then survivors in node order).
  std::vector<TransportStats> transports;
  // One shard per node incarnation when ClusterConfig::trace is set,
  // in the same order.
  std::vector<obs::TraceShard> shards;

  // The transports' net.* counters and session-layer histograms
  // (RecordTransportStats). Built on demand: the registry costs more
  // than the election's own bookkeeping, and most callers read only
  // the fields above.
  obs::MetricsRegistry metrics() const;
};

ClusterResult RunSimElection(const ClusterConfig& config,
                             const sim::ProcessFactory& factory);

// Returns nullopt if binding base_port..base_port+n-1 failed.
std::optional<ClusterResult> RunUdpElection(
    const ClusterConfig& config, const sim::ProcessFactory& factory);

}  // namespace celect::net
