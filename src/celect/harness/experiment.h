// One-call experiment runner: builds a NetworkConfig from declarative
// options and runs a protocol to quiescence. Shared by tests, benches
// and examples so every measurement is taken the same way.
#pragma once

#include <cstdint>
#include <string>

#include "celect/sim/process.h"
#include "celect/sim/runtime.h"

namespace celect::harness {

enum class MapperKind {
  kSenseOfDirection,
  kRandom,       // fixed pseudo-random port permutation per node
  kUpAdversary,  // §5 adaptive adversary (needs adversary_k)
};

enum class DelayKind {
  kUnit,    // worst-case pipe: transit 1, spacing 1
  kRandom,  // uniform transit (0,1], spacing [0,1]
  kEager,   // one tick, no spacing
};

enum class WakeupKind {
  kAllAtZero,
  kSingle,        // one base node (address 0)
  kRandomSubset,  // wakeup_count nodes over wakeup_window units
  kStaggeredChain // node p wakes at p * stagger_spacing (the §3 pathology)
};

enum class IdentityKind { kAscending, kRandomPermutation, kSparse };

struct RunOptions {
  std::uint32_t n = 16;
  std::uint64_t seed = 1;
  MapperKind mapper = MapperKind::kRandom;
  DelayKind delay = DelayKind::kUnit;
  WakeupKind wakeup = WakeupKind::kAllAtZero;
  IdentityKind identity = IdentityKind::kAscending;
  std::uint32_t wakeup_count = 0;    // kRandomSubset; 0 means N/2
  double wakeup_window = 0.0;        // units
  double stagger_spacing = 0.9;      // units, < 1 reproduces the pathology
  std::uint32_t failures = 0;        // random initially-crashed nodes
  std::uint32_t adversary_k = 4;     // kUpAdversary radius
  bool serialize_packets = false;
  bool enable_trace = false;
  // Trace record cap (RuntimeOptions::trace_cap); truncation surfaces as
  // counters["sim.trace_truncated"].
  std::size_t trace_cap = 10'000'000;
  // Streaming histograms (RunResult::telemetry).
  bool enable_telemetry = false;
  std::uint64_t max_events = 500'000'000;
  // Run on the reference binary-heap event queue instead of the ladder
  // queue. The two are fingerprint-equivalent (tests/test_queue_
  // equivalence.cpp); the switch exists for those tests and for
  // bisecting any future divergence.
  bool reference_queue = false;
  // Mid-run fault schedule (crashes + lossy links); empty = fault-free.
  sim::FaultPlan fault_plan;
};

// Builds the network described by `options` (the protocol factory comes
// from the caller) and runs it to quiescence.
sim::RunResult RunElection(const sim::ProcessFactory& factory,
                           const RunOptions& options);

// Like RunElection, but forces tracing on and hands back the trace
// records alongside the result (RunResult does not carry them — the
// buffer lives in the Runtime). Feed the records to
// obs::ExportChromeTrace / obs::SerializeRecords.
struct TracedRun {
  sim::RunResult result;
  std::vector<sim::TraceRecord> records;
};
TracedRun RunElectionTraced(const sim::ProcessFactory& factory,
                            const RunOptions& options);

// Builds just the NetworkConfig (for callers that need the Runtime).
sim::NetworkConfig BuildNetwork(const RunOptions& options);

// kRandomSubset accounting: the requested base-node count (wakeup_count,
// defaulting to N/2, floored at 1) and the count that actually wakes
// after clamping to the live-node population. BuildNetwork CHECK-fails
// when wakeup_count > n and logs a note whenever the clamp bites.
std::uint32_t RequestedWakeupCount(const RunOptions& options);
std::uint32_t EffectiveWakeupCount(const RunOptions& options);

// Human-readable one-liner for logs and bench rows.
std::string Describe(const RunOptions& options);
std::string Summarize(const sim::RunResult& result);

}  // namespace celect::harness
