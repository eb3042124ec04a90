// The discrete-event runtime for asynchronous complete networks.
//
// Drives the event queue to quiescence: wakeups fire OnWakeup on base
// nodes; every Context::Send admits the packet through the LinkTable
// (FIFO + delay-model arrival) and schedules a DeliveryEvent; deliveries
// fire OnMessage; timers armed via Context::SetTimer fire OnTimer. The
// run ends when the queue drains (protocols here are finite) or the
// event budget is exceeded (treated as a protocol bug).
//
// Fault injection: NetworkConfig::faults schedules mid-run crashes
// (CrashEvents plus send/receive-triggered crashes checked inline) and
// per-message link loss/duplication/reordering. A crashed node stops
// dispatching — queued deliveries, wakeups, and timers addressed to it
// are swallowed and accounted as drops.
//
// Churn: a FaultPlan's rejoins schedule RejoinEvents that revive crashed
// nodes. Revival rebuilds the node from the process factory (fresh
// volatile state — there is no stable storage in the model) and calls
// Process::OnRejoin on the new instance; the node then participates
// normally. Timers and phase spans from the node's previous life die
// with the crash and never leak into the new incarnation.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "celect/obs/phase.h"
#include "celect/obs/telemetry.h"
#include "celect/sim/event_queue.h"
#include "celect/sim/fault.h"
#include "celect/sim/heap_event_queue.h"
#include "celect/sim/hooks.h"
#include "celect/sim/link.h"
#include "celect/sim/network.h"
#include "celect/sim/process.h"
#include "celect/sim/trace.h"

namespace celect::sim {

struct RuntimeOptions {
  // Hard event budget; exceeding it aborts the run (Run() CHECK-fails).
  std::uint64_t max_events = 500'000'000;
  bool enable_trace = false;
  // Trace record cap; past it records are dropped, Trace::truncated()
  // trips, and the run surfaces counters["sim.trace_truncated"].
  std::size_t trace_cap = 10'000'000;
  // Streaming histograms (obs/telemetry.h): delivery latency, per-node
  // queue depth, capture-span width. Off by default — zero work on the
  // hot path.
  bool enable_telemetry = false;
  // When true, every packet is encoded and re-decoded through the wire
  // codec (full serialisation validation). Off by default: byte sizes
  // are still accounted via EncodedSize.
  bool serialize_packets = false;
  // Stop as soon as a leader declares (termination time is then the
  // declaration time; message totals exclude in-flight cleanup).
  bool stop_on_leader = false;
  // Invariant observer, called after every dispatched event and at
  // quiescence. Not owned; may be null.
  RunObserver* observer = nullptr;
  // Controlled scheduling: when set, the runtime ignores time order and
  // dispatches whichever enabled event the controller picks (per-link
  // FIFO still holds; inert events — stale timers, traffic to dead
  // nodes — are drained eagerly and are not choice points). Not owned.
  ScheduleController* controller = nullptr;
  // Drive the run from the original binary-heap queue instead of the
  // ladder. Pop order is identical, so results must match bit for bit —
  // the equivalence tests diff the two, and a mismatch bisects queue
  // bugs. Slower; off outside tests.
  bool use_reference_queue = false;
};

struct RunResult {
  std::optional<Id> leader_id;
  std::optional<NodeId> leader_node;
  std::uint32_t leader_declarations = 0;
  Time leader_time;   // first declaration
  Time quiesce_time;  // when the queue drained
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t max_link_load = 0;
  std::uint64_t max_link_inflight = 0;
  // Fault-injection accounting (all zero on fault-free runs).
  std::uint64_t faults_injected = 0;      // mid-run crashes that fired
  std::uint64_t messages_lost = 0;        // injected link loss
  std::uint64_t messages_duplicated = 0;  // injected duplicates
  std::uint64_t messages_reordered = 0;   // FIFO-overtaking deliveries
  std::uint64_t timers_set = 0;
  std::uint64_t timers_fired = 0;
  // Invariant-registry tally (zero unless an observer recorded any).
  std::uint64_t invariant_violations = 0;
  // Host wall-clock spent inside Run() and the resulting event
  // throughput. Non-deterministic (machine/load dependent): excluded
  // from FingerprintResult and from byte-identity comparisons; reported
  // so bench sweeps can track simulator performance.
  std::uint64_t wall_ns = 0;
  double events_per_sec = 0.0;
  // True when a ScheduleController cut the run short (the queue did not
  // drain; quiescence checks were skipped).
  bool aborted_by_controller = false;
  std::map<std::uint16_t, std::uint64_t> messages_by_type;
  // Every touched counter of the run's registry, by name: protocol
  // counters, sim.* fault tallies, lease.* lifecycle events and
  // invariant.<kind> violations. A counter is absent until something
  // records to it, so fault-free runs carry none of the sim.* names.
  std::map<std::string, std::int64_t> counters;
  // Per-phase message/time table keyed by obs::PhaseKey ("capture1",
  // "doubling.3", ...). Populated from Context::BeginPhase/EndPhase
  // spans; empty for protocols that mark no phases. Spans still open at
  // quiescence are closed there (their duration runs to quiesce_time).
  std::map<std::string, obs::PhaseAgg> phases;
  // Telemetry bundle; Empty() unless RuntimeOptions::enable_telemetry.
  obs::Telemetry telemetry;
};

class Runtime {
 public:
  Runtime(NetworkConfig config, const ProcessFactory& factory,
          RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Runs to quiescence and returns the aggregated result. Call once.
  RunResult Run();

  // Introspection (valid after Run).
  const Trace& trace() const { return trace_; }
  const NetworkConfig& config() const { return config_; }
  // failed[address] after the run: initial failures plus every mid-run
  // crash that fired, minus nodes revived by a later rejoin.
  const std::vector<bool>& failed() const { return failed_; }

  // The process at `address` — tests use this to assert protocol state.
  Process& process(NodeId address);

 private:
  class ContextImpl;
  friend class ContextImpl;

  void Dispatch(const Event& e);
  // The controlled-scheduling loop (options_.controller set).
  void RunControlled(std::uint64_t& events);
  // Enabled = pending, minus inert events, minus FIFO-blocked deliveries.
  // Inert events (stale timers, events targeting dead nodes) are
  // dispatched eagerly by DrainInert so they never become choice points.
  bool EventIsInert(const Event& e) const;
  void DrainInert(std::uint64_t& events);
  RunInspect MakeInspect();
  void NotifyObserver(const Event& e);
  void SendFrom(NodeId from, Port port, wire::Packet packet);
  TimerId ScheduleTimer(NodeId node, Time delay);
  void CancelTimer(NodeId node, TimerId timer);
  // Bumps a runtime-owned registry counter. Its name resolves on first
  // use, so the constructor does no name lookup and later events none.
  void Count(CounterRef& counter);
  // A message that never reached its process: the ledger's total plus
  // the per-cause counter.
  void Drop(CounterRef& cause);
  void MarkCrashed(NodeId node);
  void MarkRejoined(NodeId node);
  void BeginPhase(NodeId node, obs::PhaseId phase, std::int64_t level);
  void EndPhase(NodeId node, obs::PhaseId phase);
  // Closes one open span (aggregating its duration up to now_).
  void CloseTopPhase(NodeId node);
  // Records a trace event stamped with `node`'s Lamport clock and
  // current (top-of-stack) phase. No-op when tracing is off.
  void TraceEvent(TraceRecord::Kind kind, NodeId node, NodeId peer,
                  Port port, std::uint16_t type, std::uint64_t mid);

  NetworkConfig config_;
  RuntimeOptions options_;
  // Kept for the run so RejoinEvents can rebuild revived nodes.
  ProcessFactory factory_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Id> ids_;
  DualQueue queue_;
  LinkTable links_;
  RunLedger ledger_;
  obs::MetricsRegistry metrics_;
  // The runtime's own registry counters, resolved on first use.
  CounterRef dropped_to_crashed_{"sim.dropped_to_crashed"};
  CounterRef dropped_to_loss_{"sim.dropped_to_loss"};
  CounterRef rejoins_{"sim.rejoins"};
  CounterRef timers_cancelled_{"sim.timers_cancelled"};
  // A DeliveryEvent's 32-bit latency field clipped at its ceiling, so
  // the telemetry histogram under-reports that delivery.
  CounterRef latency_saturated_{"sim.latency_saturated"};
  // Indexed by LeaseEvent.
  CounterRef lease_events_[kLeaseEventCount] = {
      {"lease.granted"}, {"lease.renewed"}, {"lease.expired"},
      {"lease.revoked"}};
  Trace trace_;
  Time now_ = Time::Zero();
  bool ran_ = false;
  bool stop_requested_ = false;
  bool aborted_by_controller_ = false;
  // DeliveryEvents currently in the queue — the in-flight leg of the
  // message-conservation ledger (sent + duplicated = delivered + dropped
  // + in flight).
  std::uint64_t deliveries_inflight_ = 0;

  // Failure state: seeded from config_.failed, extended by mid-run
  // crashes, cleared again by rejoins.
  std::vector<bool> failed_;
  std::unique_ptr<FaultInjector> injector_;
  // RejoinEvents still in the queue, per node. While one is pending,
  // traffic to the (dead) node is a real schedule choice — "dropped
  // before revival" vs "delivered after" — so it must not be drained as
  // inert under controlled scheduling.
  std::vector<std::uint32_t> pending_rejoins_;

  // Live timers (id → owner + queue ticket); a fired or cancelled timer
  // leaves the map, so stale TimerEvents are discarded at dispatch. The
  // ticket lets CancelTimer tombstone the queued event the moment it is
  // cancelled, so Size()/PeekTime() and queue-depth telemetry never
  // count it. A crash erases (and cancels) all of the owner's timers,
  // which keeps a pre-crash timer from ever firing into the fresh
  // process a rejoin installs.
  struct TimerRec {
    NodeId node;
    EventTicket ticket;
  };
  std::unordered_map<TimerId, TimerRec> active_timers_;
  TimerId next_timer_ = kInvalidTimer;

  // --- Observability (obs/) ------------------------------------------
  // Per-node Lamport clocks: ticked on send/wakeup/timer-fire; a
  // delivery joins the sender's send-time clock with max(...) + 1.
  // Always on — two array ops per event, and determinism means traces
  // can be correlated with untraced runs of the same seed.
  std::vector<std::uint64_t> lamport_;
  // Message uids, 1-based; stamped on every send (duplicates share the
  // original's uid) so trace flows pair exactly even under loss.
  std::uint64_t next_mid_ = 0;
  // Open phase spans per node (innermost last). `agg` points into
  // phase_agg_ (std::map nodes are stable).
  struct PhaseFrame {
    obs::PhaseId id;
    std::int64_t level;
    Time since;
    std::uint64_t messages;
    obs::PhaseAgg* agg;
  };
  std::vector<std::vector<PhaseFrame>> phase_stack_;
  std::map<std::pair<std::uint16_t, std::int64_t>, obs::PhaseAgg>
      phase_agg_;
  // Null unless options_.enable_telemetry.
  std::unique_ptr<obs::Telemetry> telemetry_;
  // Pending (queued, undelivered) deliveries per destination — the
  // queue-depth histogram's source. Maintained only with telemetry on.
  std::vector<std::uint32_t> pending_deliveries_;
};

}  // namespace celect::sim
