// Cross-process observability shards: the unit a multi-process election
// emits per node incarnation and the reducer that folds shards back
// into one coherent artifact.
//
// A TraceShard bundles everything one PeerNode incarnation knows about
// itself — its causal trace records, its flight-recorder ring (session
// state transitions, retransmits, suspicion episodes), and a metrics
// registry of counters plus associative histograms. Shards serialize to
// a line-oriented text format that embeds the compact trace-record
// format (trace_inspect.h) verbatim, so a shard file is greppable and a
// crashed process's partial flush still parses.
//
// The ShardReducer is order-independent: shards are keyed and sorted by
// (node, epoch) and duplicate flushes of the same incarnation collapse
// to the most complete one, so merging the same shard set in any
// arrival order yields byte-identical output. Histogram merging is
// associative and commutative for the same reason.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "celect/obs/metrics.h"
#include "celect/sim/trace.h"

namespace celect::obs {

// --- flight recorder ------------------------------------------------

// Session-layer moments worth keeping when a process dies mid-election.
enum class FlightKind : std::uint8_t {
  kSessionStart = 1,   // a: local epoch
  kEstablished = 2,    // a: remote epoch
  kEpochAdopt = 3,     // a: adopted remote epoch (peer restarted)
  kRetransmit = 4,     // a: frame seq, b: scheduled backoff (us)
  kHelloRetry = 5,     // a: retry count so far
  kSuspectBegin = 6,   // a: exhaustion streak that crossed the budget
  kSuspectEnd = 7,     // a: episode duration (us)
  kWindowStall = 8,    // a: packets parked behind a full window
  kResetSent = 9,      // a: local epoch
  kResetReceived = 10, // a: local epoch at receipt
  kVersionMismatch = 11,  // a: peer's wire version
};

// Stable lowercase name ("retransmit"); used in the shard text format.
const char* ToString(FlightKind k);
std::optional<FlightKind> FlightKindFromName(const std::string& name);

struct FlightEvent {
  // Recorder's clock domain (transport Micros); PeerNode::MakeShard
  // rebases to trace ticks so shard timelines share one time axis.
  std::uint64_t at = 0;
  std::uint32_t peer = 0;
  FlightKind kind = FlightKind::kSessionStart;
  std::uint64_t a = 0;  // kind-specific detail (see enum comments)
  std::uint64_t b = 0;
  friend bool operator==(const FlightEvent&, const FlightEvent&) = default;
};

// Bounded ring of FlightEvents. The buffer is allocated once at
// construction and never grows — Note() on the hot path is a store and
// two increments. When full, the oldest events are overwritten; seen()
// minus cap bounds what was lost.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t cap = 1024);

  void Note(std::uint64_t at, std::uint32_t peer, FlightKind kind,
            std::uint64_t a = 0, std::uint64_t b = 0);

  // Retained events, oldest first.
  std::vector<FlightEvent> Snapshot() const;

  std::uint64_t seen() const { return seen_; }
  std::uint64_t dropped() const {
    return seen_ > ring_.size() ? seen_ - ring_.size() : 0;
  }
  std::size_t cap() const { return ring_.size(); }

 private:
  std::uint64_t seen_ = 0;
  std::vector<FlightEvent> ring_;
};

// --- trace shards ---------------------------------------------------

// One node incarnation's observability dump. `complete` is false for
// periodic mid-run flushes (the only shard a SIGKILLed victim leaves
// behind) and true for orderly end-of-run dumps.
struct TraceShard {
  sim::NodeId node = 0;
  std::uint64_t epoch = 0;  // transport epoch: distinguishes incarnations
  bool complete = false;
  std::uint64_t dropped = 0;  // trace records discarded at the cap
  std::string label;
  std::vector<FlightEvent> flight;
  MetricsRegistry metrics;
  std::vector<sim::TraceRecord> records;
};

std::string SerializeShard(const TraceShard& shard);

// Parses one or more concatenated shards (a merged file is just the
// canonical concatenation). Accepts only the blocks SerializeShard
// writes, line order and the one #metrics line included, so parsing
// and re-serializing gives back the same bytes. nullopt on malformed
// input, with a line-numbered message in *error.
std::optional<std::vector<TraceShard>> ParseShards(const std::string& text,
                                                   std::string* error);

// Order-independent shard merge. Add() in any order; Merged() is sorted
// by (node, epoch) with duplicate incarnation flushes collapsed to the
// one with the most records (a later flush strictly extends an earlier
// one). SerializeMerged() is therefore byte-identical for any arrival
// order of the same shard set.
class ShardReducer {
 public:
  void Add(TraceShard shard);

  const std::vector<TraceShard>& Merged() const;
  std::string SerializeMerged() const;
  // Cluster-wide fold of every merged shard's registry.
  MetricsRegistry MergedMetrics() const;

  std::size_t added() const { return added_; }

 private:
  std::size_t added_ = 0;
  mutable bool sorted_ = true;
  mutable std::vector<TraceShard> shards_;
};

// --- validation -----------------------------------------------------
//
// One checker serves both worlds: a multi-process run's merged shards,
// and an in-process trace split into one complete shard per node.

// Splits an in-process record stream into one complete shard per node
// (epoch 0, sorted by node), each holding that node's records in stream
// order. The same pass checks the one rule only a single recorder's
// stream can state — every outcome follows the send that minted its
// mid — and appends violations to *problems in CheckShards' format.
std::vector<TraceShard> ShardsFromRecords(
    const std::vector<sim::TraceRecord>& records,
    std::vector<std::string>* problems);

// Semantic validation of a shard set:
//   - per-shard Lamport monotonicity (an incarnation restarts at 0, so
//     clocks are checked per shard, never across shards of one node),
//   - global mid uniqueness (each mid minted by exactly one send
//     across all shards),
//   - outcome pairing (every deliver/drop/loss/duplicate carries a
//     nonzero mid that some shard's send minted, and that send went
//     from the outcome's peer to the outcome's node),
//   - the join rule (a delivery's clock exceeds the clock carried by
//     the matching send in the sender's shard),
//   - per-session FIFO when `expect_fifo`: for every (sender
//     incarnation, receiver incarnation) pair, matched sends are
//     delivered in send order. The reliable session guarantees this even
//     over lossy, reordering UDP; pass false for in-process runs with
//     injected reordering, duplication or controlled schedules,
//   - orphan outcomes (no shard contains the send) are tolerated only
//     when some shard of the sending node is incomplete — a SIGKILLed
//     sender's unflushed tail is the one legitimate gap. Under SimNet
//     and in-process every shard is complete, so tolerance is zero.
// Returns human-readable problems; empty means the trace is coherent.
std::vector<std::string> CheckShards(const std::vector<TraceShard>& shards,
                                     bool expect_fifo = true);

}  // namespace celect::obs
