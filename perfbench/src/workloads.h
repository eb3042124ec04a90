// The four workloads. Each runs whole operations (elections; service
// cases for churn_storm) until opt.seconds have passed, checks every
// operation's outputs, and fills the report with the end-to-end
// metrics (opt.trace false) or the per-layer metrics (opt.trace true).
#pragma once

#include "common.h"

namespace perfbench {

// End-to-end figures of one untraced run (README.md defines each per
// workload).
struct EndToEnd {
  double setup_s = 0;
  double events_per_s = 0;
  double election_ms_p50 = 0;
  double election_ms_p95 = 0;
  double elections_per_s = 0;
  double datagrams_per_election = 0;
  double peak_rss_mb = 0;
};

// Per-layer figures of one traced run. A layer the workload never
// calls reads 0.
struct Layers {
  double sim_send_ns_per_message = 0;
  double sim_loop_ns_per_event = 0;
  double sim_events_per_election = 0;
  double sim_timer_ns_per_call = 0;
  double sim_timer_calls_per_election = 0;
  double sim_rss_bytes_per_node = 0;
  double proto_handler_ns_per_event = 0;
  double proto_messages_per_election = 0;
  double analysis_observer_ns_per_event = 0;
  double harness_setup_ns_per_node = 0;
  double net_send_ns_per_packet = 0;
  double net_poll_ns_per_call = 0;
  double net_polls_per_election = 0;
  double net_host_ns_per_event = 0;
  double net_wait_ms_per_election = 0;
  double net_wait_pct_of_election = 0;
  double net_retransmits_per_election = 0;
  double net_acks_per_election = 0;
  double net_bytes_per_election = 0;
  double net_rtt_us_p50 = 0;
  double wire_codec_ns_per_packet = 0;
  // Traced wall time over untraced wall time of the same inputs, - 1.
  double trace_overhead_pct = 0;
};

void AddEndToEnd(const EndToEnd& e, Report& report);
void AddLayers(const Layers& l, Report& report);

void RunSimFlood(const Options& opt, Report& report);
void RunSimCapture(const Options& opt, Report& report);
void RunChurnStorm(const Options& opt, Report& report);
void RunUdpLossy(const Options& opt, Report& report);

}  // namespace perfbench
