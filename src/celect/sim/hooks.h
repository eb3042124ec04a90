// Runtime extension points for analysis tooling.
//
// Two hooks, both optional and both inert on the simulator's default
// path:
//
//   ScheduleController — controlled scheduling. When set, the runtime
//     abandons time order and asks the controller which of the currently
//     *enabled* pending events to dispatch next (asynchronous semantics:
//     any in-flight message may arrive next, subject only to per-link
//     FIFO). The analysis explorer uses this to enumerate message
//     interleavings.
//
//   RunObserver — invariant checking. Called after every dispatched
//     event and once at quiescence with a read-mostly window into the
//     run; the analysis InvariantRegistry implements it.
//
// Both live here (sim layer) so Runtime needs no knowledge of the
// analysis layer that implements them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "celect/obs/metrics.h"
#include "celect/sim/event.h"
#include "celect/sim/process.h"
#include "celect/sim/time.h"
#include "celect/sim/types.h"

namespace celect::sim {

// The node an event acts on: the dispatching handler's node, or the
// target of a drop/crash. Event order is exchangeable exactly when the
// targets differ — the commutativity rule the explorer prunes with.
NodeId EventTarget(const EventBody& body);

class ScheduleController {
 public:
  virtual ~ScheduleController() = default;

  // Picks the next event to dispatch. `enabled` is sorted by sequence
  // number and non-empty; the choice string of a run is the sequence of
  // returned indices. Returning nullopt aborts the run (the explorer
  // uses this to cut off pruned branches).
  virtual std::optional<std::size_t> ChooseNext(
      const std::vector<const Event*>& enabled) = 0;
};

// The run's fixed tallies: what RunResult's fixed fields and the
// message-conservation check read. Plain data, bumped inline on the
// hot path; every other named count of a run lives in its
// obs::MetricsRegistry.
struct RunLedger {
  std::uint64_t sent = 0;
  std::uint64_t bytes = 0;
  std::uint64_t delivered = 0;
  // Every cause; the per-cause split is in the registry
  // (sim.dropped_to_crashed, sim.dropped_to_loss).
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t crashes = 0;
  std::uint64_t timers_set = 0;
  std::uint64_t timers_fired = 0;
  // Sends per packet type, indexed by type (types are small dense
  // enums), grown on demand.
  std::vector<std::uint64_t> sent_by_type;
  std::uint32_t leader_declarations = 0;
  // The first declaration.
  std::optional<NodeId> leader_node;
  std::optional<Id> leader_id;
  Time leader_time;
};

// Counter-name prefix of per-kind invariant violations; RunResult's
// invariant_violations is the sum of the counters under it.
inline constexpr std::string_view kInvariantCounterPrefix = "invariant.";

// Read-mostly window into a run handed to observers. The registry is
// mutable so observers can record violation tallies next to the run's
// other named counters; everything else is immutable.
struct RunInspect {
  std::uint32_t n = 0;
  const std::vector<Id>* ids = nullptr;
  const std::vector<bool>* failed = nullptr;
  // n entries; processes()[addr] is the protocol instance at addr.
  const std::unique_ptr<Process>* processes = nullptr;
  const RunLedger* ledger = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  Time now;
  // DeliveryEvents currently pending in the queue (sent but neither
  // delivered nor dropped) — closes the message-conservation ledger.
  std::uint64_t deliveries_inflight = 0;

  const Process& process(NodeId addr) const { return *processes[addr]; }
  // Tallies one violation of invariant `kind` as "invariant.<kind>".
  void CountViolation(std::string_view kind) const {
    metrics->Add(std::string(kInvariantCounterPrefix).append(kind), 1);
  }
};

class RunObserver {
 public:
  virtual ~RunObserver() = default;

  // After every dispatched event; `target` is the event's node (see
  // EventTarget). Also called for swallowed events (drops, stale
  // timers) — their accounting is part of what observers check.
  virtual void AfterEvent(NodeId target, const RunInspect& in) = 0;

  // Once, when the queue drains. Not called if the run is aborted by a
  // ScheduleController or the event budget.
  virtual void AtQuiescence(const RunInspect& in) = 0;
};

}  // namespace celect::sim
