// The repository benchmark program.
//
//   perfbench --workload <sim_flood|sim_capture|churn_storm|udp_lossy>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs whole operations of one workload for about --seconds seconds on
// inputs drawn from --seed, checks every operation, and prints one JSON
// object as its last line of output:
//
//   {"correct": true, "attempted": 21, "failed": 0,
//    "metrics": {"setup_s": {"value": 0.0021, "unit": "s"}, ...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs every round
// twice (untraced, then through the timing wrappers in timed.h) and
// reports the per-layer metrics. It exits 1 when any check failed.
#include <malloc.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "celect/util/rng.h"
#include "workloads.h"

namespace perfbench {

// VmHWM, not getrusage's ru_maxrss: the latter survives exec, so a
// process started from a larger parent would report the parent's peak.
std::uint64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;  // kB
    }
  }
  return 0;
}

std::uint64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

std::uint64_t RoundSeed(std::uint64_t seed, std::uint64_t round) {
  return celect::SplitMix64(seed * 0x9E3779B97F4A7C15ULL + round).Next();
}

void AddEndToEnd(const EndToEnd& e, Report& r) {
  r.Add("setup_s", e.setup_s, "s");
  r.Add("events_per_s", e.events_per_s, "events/s");
  r.Add("election_ms_p50", e.election_ms_p50, "ms");
  r.Add("election_ms_p95", e.election_ms_p95, "ms");
  r.Add("elections_per_s", e.elections_per_s, "elections/s");
  r.Add("datagrams_per_election", e.datagrams_per_election, "datagrams");
  r.Add("peak_rss_mb", e.peak_rss_mb, "MB");
}

void AddLayers(const Layers& l, Report& r) {
  r.Add("sim.send_ns_per_message", l.sim_send_ns_per_message, "ns");
  r.Add("sim.loop_ns_per_event", l.sim_loop_ns_per_event, "ns");
  r.Add("sim.events_per_election", l.sim_events_per_election, "events");
  r.Add("sim.timer_ns_per_call", l.sim_timer_ns_per_call, "ns");
  r.Add("sim.timer_calls_per_election", l.sim_timer_calls_per_election,
        "calls");
  r.Add("sim.rss_bytes_per_node", l.sim_rss_bytes_per_node, "B");
  r.Add("proto.handler_ns_per_event", l.proto_handler_ns_per_event, "ns");
  r.Add("proto.messages_per_election", l.proto_messages_per_election,
        "messages");
  r.Add("analysis.observer_ns_per_event", l.analysis_observer_ns_per_event,
        "ns");
  r.Add("harness.setup_ns_per_node", l.harness_setup_ns_per_node, "ns");
  r.Add("net.send_ns_per_packet", l.net_send_ns_per_packet, "ns");
  r.Add("net.poll_ns_per_call", l.net_poll_ns_per_call, "ns");
  r.Add("net.polls_per_election", l.net_polls_per_election, "calls");
  r.Add("net.host_ns_per_event", l.net_host_ns_per_event, "ns");
  r.Add("net.wait_ms_per_election", l.net_wait_ms_per_election, "ms");
  r.Add("net.wait_pct_of_election", l.net_wait_pct_of_election, "%");
  r.Add("net.retransmits_per_election", l.net_retransmits_per_election,
        "frames");
  r.Add("net.acks_per_election", l.net_acks_per_election, "frames");
  r.Add("net.bytes_per_election", l.net_bytes_per_election, "B");
  r.Add("net.rtt_us_p50", l.net_rtt_us_p50, "us");
  r.Add("wire.codec_ns_per_packet", l.wire_codec_ns_per_packet, "ns");
  r.Add("trace.overhead_pct", l.trace_overhead_pct, "%");
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0)) return false;
    } else if (key == "--trace") {
      opt.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !opt.workload.empty();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Keep freed memory in the heap: no allocation is served by its own
  // mmap and the heap top is never given back. Later rounds then reuse
  // pages faulted in once, instead of faulting ~200 MB back in every
  // sim_flood round, which on a shared VM host made round times vary by
  // a third between runs.
  if (mallopt(M_MMAP_MAX, 0) != 1 ||
      mallopt(M_TRIM_THRESHOLD, 1 << 30) != 1) {
    std::cerr << "mallopt failed\n";
    return 2;
  }
  Options opt;
  if (!ParseArgs(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload <sim_flood|sim_capture|"
                 "churn_storm|udp_lossy> --seed <n> --seconds <s> "
                 "--trace <0|1>\n";
    return 2;
  }
  Report report;
  if (opt.workload == "sim_flood") {
    RunSimFlood(opt, report);
  } else if (opt.workload == "sim_capture") {
    RunSimCapture(opt, report);
  } else if (opt.workload == "churn_storm") {
    RunChurnStorm(opt, report);
  } else if (opt.workload == "udp_lossy") {
    RunUdpLossy(opt, report);
  } else {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  for (const std::string& e : report.errors) {
    std::cerr << "check failed: " << e << "\n";
  }
  if (report.metrics.empty()) return 1;  // could not run at all

  const bool correct = report.failed == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
  return correct ? 0 : 1;
}
