// E19 — transport reliability cost: election wall time and datagram
// effort as the link degrades, on both transports.
//
//  * FT-sim rows: n PeerNodes over SimNet/FakeLink on the virtual
//    clock, sweeping seeded loss (duplication/reordering ride along at
//    fixed rates). Fully deterministic: messages/time columns are a
//    pure function of the grid.
//  * FT-udp rows: the same engine over real localhost UDP sockets with
//    send-side loss injection — wall-clock latency of a real datagram
//    path, skipped (with a note) where sockets cannot bind.
//
// Extra columns per row: loss rate, retransmits, suspicions, and RTT
// p50/p99 as seen by the reliability layer (Karn-filtered samples).
// Document-level histograms (rtt_us, backoff_us, window_occupancy,
// suspicion_us) aggregate the session-layer distributions over every
// run in the sweep.
//
//   ./bench_transport [--quick] [--json=PATH] [--base-port=48400]
#include <iostream>

#include "celect/harness/bench_json.h"
#include "celect/net/cluster.h"
#include "celect/proto/nosod/fault_tolerant.h"
#include "celect/util/flags.h"

namespace {

using namespace celect;

struct Accum {
  Summary messages;
  Summary time_units;
  std::uint64_t retransmits = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t datagrams = 0;
  Summary rtt_p50;
  Summary rtt_p99;
  std::uint32_t runs = 0;
  std::uint32_t failures = 0;
  // Every run's transport figures; the histograms go to the document.
  obs::MetricsRegistry metrics;

  void Fold(const net::ClusterResult& r, net::Micros unit_us) {
    ++runs;
    const obs::MetricsRegistry m = r.metrics();
    metrics.MergeFrom(m);
    if (!r.agreed) {
      ++failures;
      return;
    }
    messages.Add(static_cast<double>(r.delivered));
    time_units.Add(static_cast<double>(r.elapsed_us) /
                   static_cast<double>(unit_us));
    retransmits += static_cast<std::uint64_t>(m.Counter("net.retransmits"));
    suspicions += static_cast<std::uint64_t>(m.Counter("net.suspicions"));
    datagrams += r.datagrams;
    rtt_p50.Add(static_cast<double>(r.rtt_p50_us));
    rtt_p99.Add(static_cast<double>(r.rtt_p99_us));
  }

  void Publish(harness::BenchReporter& reporter) const {
    for (const auto& [name, h] : metrics.histograms()) {
      reporter.MergeNamedHistogram(name, h);
    }
  }

  harness::BenchRow Row(const std::string& protocol, std::uint32_t n,
                        double loss, std::uint64_t wall_ns) const {
    harness::BenchRow row;
    row.protocol = protocol;
    row.n = n;
    row.seed_count = runs;
    row.messages = messages;
    row.time = time_units;
    row.wall_ns = wall_ns;
    row.events_per_sec =
        wall_ns > 0 ? static_cast<double>(datagrams) * 1e9 /
                          static_cast<double>(wall_ns)
                    : 0.0;
    row.extra.emplace_back("loss", loss);
    row.extra.emplace_back("retransmits", static_cast<double>(retransmits));
    row.extra.emplace_back("suspicions", static_cast<double>(suspicions));
    row.extra.emplace_back("rtt_p50_us", rtt_p50.mean());
    row.extra.emplace_back("rtt_p99_us", rtt_p99.mean());
    row.extra.emplace_back("failures", static_cast<double>(failures));
    return row;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Flags peek(argc, argv);
  auto base_port = static_cast<std::uint16_t>(
      peek.GetInt("base-port", 48400, "first UDP port for the socket rows"));
  harness::BenchEnv env(argc, argv, "E19");

  const bool quick = env.quick();
  const std::vector<double> losses =
      quick ? std::vector<double>{0.0, 0.10}
            : std::vector<double>{0.0, 0.05, 0.10, 0.20};
  const std::uint32_t sim_n = quick ? 8 : 16;
  const std::uint32_t sim_seeds = quick ? 2 : 5;
  const std::uint32_t udp_n = quick ? 4 : 8;
  const std::uint32_t udp_seeds = quick ? 1 : 2;

  net::MonotonicClock wall;
  bool any_failure = false;

  std::cout << "E19: transport reliability cost (FT engine)\n\n"
            << "  sim rows: n=" << sim_n << ", " << sim_seeds
            << " seeds per loss rate\n";
  for (double loss : losses) {
    Accum acc;
    net::Micros t0 = wall.Now();
    for (std::uint32_t s = 0; s < sim_seeds; ++s) {
      net::ClusterConfig config;
      config.n = sim_n;
      config.seed = s + 1;
      config.link.loss = loss;
      config.link.duplicate = 0.02;
      config.link.reorder = 0.05;
      acc.Fold(RunSimElection(config, proto::nosod::MakeFaultTolerant(1)),
               config.unit_us);
    }
    std::uint64_t wall_ns = (wall.Now() - t0) * 1000;
    std::cout << "    loss=" << loss << " elapsed(units) mean="
              << acc.time_units.mean() << " retx=" << acc.retransmits
              << " rtt_p99_us=" << acc.rtt_p99.mean() << "\n";
    any_failure |= acc.failures > 0;
    env.reporter().Add(acc.Row("FT-sim", sim_n, loss, wall_ns));
    acc.Publish(env.reporter());
  }

  std::cout << "\n  udp rows: n=" << udp_n << ", " << udp_seeds
            << " seed(s) per loss rate, 127.0.0.1:" << base_port << "+\n";
  bool udp_ok = true;
  for (double loss : losses) {
    if (!udp_ok) break;
    Accum acc;
    net::Micros t0 = wall.Now();
    for (std::uint32_t s = 0; s < udp_seeds && udp_ok; ++s) {
      net::ClusterConfig config;
      config.n = udp_n;
      config.seed = s + 1;
      config.base_port = base_port;
      config.send_loss = loss;
      config.deadline_us = 30'000'000;
      auto r = RunUdpElection(config, proto::nosod::MakeFaultTolerant(1));
      if (!r.has_value()) {
        std::cout << "    (skipping udp rows: cannot bind sockets)\n";
        udp_ok = false;
        break;
      }
      acc.Fold(*r, config.unit_us);
    }
    if (!udp_ok || acc.runs == 0) break;
    std::uint64_t wall_ns = (wall.Now() - t0) * 1000;
    std::cout << "    loss=" << loss << " elapsed mean="
              << acc.time_units.mean() * 20.0 << " ms, rtt_p50_us="
              << acc.rtt_p50.mean() << "\n";
    any_failure |= acc.failures > 0;
    env.reporter().Add(acc.Row("FT-udp", udp_n, loss, wall_ns));
    acc.Publish(env.reporter());
  }

  if (any_failure) {
    std::cerr << "\nFAIL: an election did not reach agreement\n";
    return 1;
  }
  return env.Finish();
}
