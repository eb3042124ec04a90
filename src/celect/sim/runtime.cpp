#include "celect/sim/runtime.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <unordered_map>

#include "celect/util/check.h"
#include "celect/wire/packet_codec.h"

namespace celect::sim {

namespace {

// Monotonic host-clock read backing the wall_ns / events_per_sec
// throughput accounting. Wall time is excluded from FingerprintResult
// and never reaches traces, so this is the one sanctioned clock read
// in the deterministic core.
std::uint64_t WallClockNowNs() {
  // celect-lint: allow(no-wall-clock) throughput probe, not fingerprinted
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

}  // namespace

NodeId EventTarget(const EventBody& body) {
  return std::visit(
      [](const auto& b) -> NodeId {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, DeliveryEvent>) {
          return b.to;
        } else {
          return b.node;
        }
      },
      body);
}

// Context handed to a process for the duration of one event dispatch.
class Runtime::ContextImpl : public Context {
 public:
  ContextImpl(Runtime& rt, NodeId node) : rt_(rt), node_(node) {}

  NodeId address() const override { return node_; }
  Id id() const override { return rt_.ids_[node_]; }
  std::uint32_t n() const override { return rt_.config_.n; }
  Time now() const override { return rt_.now_; }
  bool has_sense_of_direction() const override {
    return rt_.config_.mapper->HasSenseOfDirection();
  }

  void Send(Port port, wire::Packet p) override {
    rt_.SendFrom(node_, port, std::move(p));
  }

  std::optional<Port> SendFresh(wire::Packet p) override {
    auto port = rt_.config_.mapper->FreshPort(node_);
    if (!port) return std::nullopt;
    rt_.SendFrom(node_, *port, std::move(p));
    return port;
  }

  void SendAll(wire::Packet p) override {
    for (Port port = 1; port <= n() - 1; ++port) {
      rt_.SendFrom(node_, port, p);
    }
  }

  TimerId SetTimer(Time delay) override {
    return rt_.ScheduleTimer(node_, delay);
  }

  void CancelTimer(TimerId timer) override {
    rt_.CancelTimer(node_, timer);
  }

  void DeclareLeader() override {
    RunLedger& l = rt_.ledger_;
    if (l.leader_declarations++ == 0) {
      l.leader_node = node_;
      l.leader_id = id();
      l.leader_time = rt_.now_;
    }
    rt_.TraceEvent(TraceRecord::Kind::kLeader, node_, node_, kInvalidPort,
                   0, 0);
    if (rt_.options_.stop_on_leader) rt_.stop_requested_ = true;
  }

  void RecordLease(LeaseEvent event) override {
    rt_.Count(rt_.lease_events_[static_cast<int>(event)]);
  }

  void BeginPhase(obs::PhaseId phase, std::int64_t level) override {
    rt_.BeginPhase(node_, phase, level);
  }

  void EndPhase(obs::PhaseId phase) override { rt_.EndPhase(node_, phase); }

  void AddCounter(std::string_view name, std::int64_t delta) override {
    rt_.metrics_.Add(name, delta);
  }

  void MaxCounter(std::string_view name, std::int64_t value) override {
    rt_.metrics_.Max(name, value);
  }

  CounterRef ResolveCounter(std::string_view name) override {
    return CounterRef{name, rt_.metrics_.Intern(name)};
  }

  void AddCounter(const CounterRef& c, std::int64_t delta) override {
    rt_.metrics_.Add(Slot(c), delta);
  }

  void MaxCounter(const CounterRef& c, std::int64_t value) override {
    rt_.metrics_.Max(Slot(c), value);
  }

 private:
  // A ref from a context that does not intern falls back to the name.
  obs::MetricsRegistry::Handle Slot(const CounterRef& c) {
    return c.slot == CounterRef::kUnresolved ? rt_.metrics_.Intern(c.name)
                                             : c.slot;
  }

  Runtime& rt_;
  NodeId node_;
};

Runtime::Runtime(NetworkConfig config, const ProcessFactory& factory,
                 RuntimeOptions options)
    : config_(std::move(config)),
      options_(options),
      factory_(factory),
      queue_(options.use_reference_queue),
      links_(config_.n),
      trace_(options.enable_trace, options.trace_cap) {
  CELECT_CHECK(config_.n >= 2);
  CELECT_CHECK(config_.mapper && config_.delays);
  ids_ = config_.identities.empty() ? IdentitiesAscending(config_.n)
                                    : config_.identities;
  CELECT_CHECK(ids_.size() == config_.n);
  processes_.reserve(config_.n);
  for (NodeId i = 0; i < config_.n; ++i) {
    processes_.push_back(factory(ProcessInit{i, ids_[i], config_.n}));
    CELECT_CHECK(processes_.back() != nullptr);
  }
  failed_ = config_.failed.empty() ? std::vector<bool>(config_.n, false)
                                   : config_.failed;
  CELECT_CHECK(failed_.size() == config_.n);
  lamport_.assign(config_.n, 0);
  phase_stack_.resize(config_.n);
  if (options_.enable_telemetry) {
    telemetry_ = std::make_unique<obs::Telemetry>();
    pending_deliveries_.assign(config_.n, 0);
  }
  pending_rejoins_.assign(config_.n, 0);
  if (!config_.faults.Empty()) {
    ValidateFaultPlan(config_.faults, config_.n);
    injector_ = std::make_unique<FaultInjector>(config_.faults, config_.n);
    for (const auto& [node, at] : injector_->TimedCrashes()) {
      queue_.Push(at, CrashEvent{node});
    }
    for (const auto& [node, at] : injector_->TimedRejoins()) {
      queue_.Push(at, RejoinEvent{node});
      ++pending_rejoins_[node];
    }
    if (config_.faults.link.Any()) {
      // Stream-split off the plan seed so link faults never perturb the
      // delay/identity RNG streams.
      links_.EnableFaults(config_.faults.link, config_.faults.seed);
    }
  }
  for (const auto& [node, at] : config_.wakeup.wakeups) {
    queue_.Push(at, WakeupEvent{node});
  }
}

Runtime::~Runtime() = default;

Process& Runtime::process(NodeId address) {
  CELECT_CHECK(address < processes_.size());
  return *processes_[address];
}

TimerId Runtime::ScheduleTimer(NodeId node, Time delay) {
  CELECT_CHECK(delay >= Time::Zero()) << "timer delay must be non-negative";
  TimerId id = ++next_timer_;
  const EventTicket ticket =
      queue_.PushTicketed(now_ + delay, TimerEvent{node, id});
  active_timers_.emplace(id, TimerRec{node, ticket});
  ++ledger_.timers_set;
  TraceEvent(TraceRecord::Kind::kTimerSet, node, node, kInvalidPort, 0, id);
  return id;
}

void Runtime::CancelTimer(NodeId node, TimerId timer) {
  auto it = active_timers_.find(timer);
  if (it == active_timers_.end()) return;  // fired or cancelled
  // Tombstone the queued event right away: it still pops (and is
  // discarded below in Dispatch), but no longer counts as pending.
  queue_.Cancel(it->second.ticket);
  active_timers_.erase(it);
  Count(timers_cancelled_);
  TraceEvent(TraceRecord::Kind::kTimerCancel, node, node, kInvalidPort, 0,
             timer);
}

void Runtime::MarkCrashed(NodeId node) {
  if (failed_[node]) return;  // already dead; triggers fire at most once
  failed_[node] = true;
  ++ledger_.crashes;
  TraceEvent(TraceRecord::Kind::kCrash, node, node, kInvalidPort, 0, 0);
  // The node's timers die with it. Externally identical to the old
  // "discard at dispatch" rule (no metrics either way), but necessary
  // for churn: were a pre-crash timer left live, it would fire into the
  // fresh process a rejoin installs.
  // celect-lint: allow(no-unordered-iteration) erase-only; order-free
  for (auto it = active_timers_.begin(); it != active_timers_.end();) {
    if (it->second.node == node) {
      queue_.Cancel(it->second.ticket);
      it = active_timers_.erase(it);
    } else {
      ++it;
    }
  }
  // A dead node's spans end at its death, not at quiescence.
  while (!phase_stack_[node].empty()) CloseTopPhase(node);
}

void Runtime::MarkRejoined(NodeId node) {
  if (!failed_[node]) return;  // crash trigger never fired: rejoin no-ops
  failed_[node] = false;
  // Crash recovery without stable storage: the node restarts as a fresh
  // process instance; nothing of its previous life survives.
  processes_[node] = factory_(ProcessInit{node, ids_[node], config_.n});
  CELECT_CHECK(processes_[node] != nullptr);
  Count(rejoins_);
  ++lamport_[node];
  TraceEvent(TraceRecord::Kind::kRejoin, node, node, kInvalidPort, 0, 0);
  ContextImpl ctx(*this, node);
  processes_[node]->OnRejoin(ctx);
}

void Runtime::Count(CounterRef& counter) {
  if (counter.slot == CounterRef::kUnresolved) {
    counter.slot = metrics_.Intern(counter.name);
  }
  metrics_.Add(counter.slot, 1);
}

void Runtime::Drop(CounterRef& cause) {
  ++ledger_.dropped;
  Count(cause);
}

void Runtime::TraceEvent(TraceRecord::Kind kind, NodeId node, NodeId peer,
                         Port port, std::uint16_t type, std::uint64_t mid) {
  if (!trace_.enabled()) return;
  TraceRecord r{kind, now_, node, peer, port, type, 0};
  r.clock = lamport_[node];
  r.mid = mid;
  if (!phase_stack_[node].empty()) {
    const PhaseFrame& top = phase_stack_[node].back();
    r.phase = top.id;
    r.phase_level = top.level;
  }
  trace_.Record(r);
}

void Runtime::BeginPhase(NodeId node, obs::PhaseId phase,
                         std::int64_t level) {
  if (phase == obs::PhaseId::kNone) return;
  obs::PhaseAgg& agg =
      phase_agg_[{static_cast<std::uint16_t>(phase), level}];
  phase_stack_[node].push_back(
      PhaseFrame{phase, level, now_, 0, &agg});
  // After the push the new span is top-of-stack, so TraceEvent stamps
  // the record with the span being opened.
  TraceEvent(TraceRecord::Kind::kPhaseBegin, node, node, kInvalidPort, 0,
             0);
}

void Runtime::EndPhase(NodeId node, obs::PhaseId phase) {
  auto& stack = phase_stack_[node];
  std::size_t keep = stack.size();
  while (keep > 0 && stack[keep - 1].id != phase) --keep;
  if (keep == 0) return;  // no open span of this phase: defensive no-op
  // Close the matching span and anything still nested inside it.
  while (stack.size() >= keep) CloseTopPhase(node);
}

void Runtime::CloseTopPhase(NodeId node) {
  auto& stack = phase_stack_[node];
  if (stack.empty()) return;
  // Record while the frame is still top-of-stack so the kPhaseEnd record
  // carries the span's own phase.
  TraceEvent(TraceRecord::Kind::kPhaseEnd, node, node, kInvalidPort, 0, 0);
  const PhaseFrame f = stack.back();
  stack.pop_back();
  f.agg->spans += 1;
  f.agg->ticks += (now_ - f.since).ticks();
  if (telemetry_ && (f.id == obs::PhaseId::kCapture1 ||
                     f.id == obs::PhaseId::kCapture2)) {
    telemetry_->capture_width.Add(f.messages);
  }
}

void Runtime::SendFrom(NodeId from, Port port, wire::Packet packet) {
  // A node that crashed earlier in this very handler sends nothing more.
  if (failed_[from]) return;
  CELECT_CHECK(port >= 1 && port <= config_.n - 1)
      << "node " << from << " sent on invalid port " << port;
  PortMapper& mapper = *config_.mapper;
  NodeId to = mapper.Resolve(from, port);
  CELECT_DCHECK(to != from);
  mapper.MarkTraversed(from, port);

  std::size_t bytes;
  if (options_.serialize_packets) {
    // Round-trip through the codec: catches any packet the wire format
    // cannot represent, and measures true on-the-wire size.
    auto encoded = wire::Encode(packet);
    bytes = encoded.size();
    auto decoded = wire::Decode(encoded);
    CELECT_CHECK(decoded.has_value() && *decoded == packet)
        << "codec round-trip failed for " << wire::ToString(packet);
  } else {
    bytes = wire::EncodedSize(packet);
  }
  ++ledger_.sent;
  ledger_.bytes += bytes;
  if (packet.type >= ledger_.sent_by_type.size()) {
    ledger_.sent_by_type.resize(packet.type + 1, 0);
  }
  ++ledger_.sent_by_type[packet.type];
  // Every send is a local Lamport event and mints a fresh message uid;
  // the kDeliver/kDrop/kLoss/kDuplicate outcomes all carry the same uid,
  // which is what makes trace flows pair exactly.
  ++lamport_[from];
  const std::uint64_t mid = ++next_mid_;
  TraceEvent(TraceRecord::Kind::kSend, from, to, port, packet.type, mid);
  if (!phase_stack_[from].empty()) {
    PhaseFrame& top = phase_stack_[from].back();
    ++top.messages;
    ++top.agg->messages;
  }

  // A send-count crash trigger fires *after* this send completes: the
  // message still goes out, later sends in the same handler do not.
  const bool crash_sender = injector_ && injector_->NoteSend(from);

  if (failed_[to]) {
    Drop(dropped_to_crashed_);
    TraceEvent(TraceRecord::Kind::kDrop, to, from, kInvalidPort,
               packet.type, mid);
  } else {
    // One table probe serves both the delay model's sent-count input and
    // the admission — the second lookup was ~10% of hot-path time.
    const LinkTable::LinkRef link = links_.Touch(from, to);
    const MessageInfo info{from, to, now_, links_.SentCount(link), &packet};
    DelayDecision d = config_.delays->Decide(info);
    Admission adm = links_.AdmitWithFaults(link, from, to, now_, d);
    if (adm.lost) {
      Drop(dropped_to_loss_);
      TraceEvent(TraceRecord::Kind::kLoss, to, from, kInvalidPort,
                 packet.type, mid);
    } else {
      if (adm.reordered) ++ledger_.reordered;
      Port arrival_port = mapper.PortToward(to, from);
      const auto mid32 = static_cast<std::uint32_t>(mid);
      const auto send_clock = static_cast<std::uint32_t>(lamport_[from]);
      auto latency = [&](Time arrival) {
        constexpr std::int64_t kCeiling =
            std::numeric_limits<std::uint32_t>::max();
        const std::int64_t ticks = (arrival - now_).ticks();
        // The 32-bit field clips at ~4096 units of FIFO backlog. Rare,
        // but silence would quietly corrupt the latency histogram — make
        // it loud via counters["sim.latency_saturated"].
        if (ticks > kCeiling) Count(latency_saturated_);
        return static_cast<std::uint32_t>(std::min(ticks, kCeiling));
      };
      if (adm.duplicate_arrival) {
        ++ledger_.duplicated;
        TraceEvent(TraceRecord::Kind::kDuplicate, to, from, kInvalidPort,
                   packet.type, mid);
        queue_.Push(*adm.duplicate_arrival,
                    DeliveryEvent{from, to, arrival_port, mid32, send_clock,
                                  latency(*adm.duplicate_arrival), packet});
        ++deliveries_inflight_;
        if (telemetry_) ++pending_deliveries_[to];
      }
      queue_.Push(adm.arrival,
                  DeliveryEvent{from, to, arrival_port, mid32, send_clock,
                                latency(adm.arrival), std::move(packet)});
      ++deliveries_inflight_;
      if (telemetry_) ++pending_deliveries_[to];
    }
  }
  if (crash_sender) MarkCrashed(from);
}

void Runtime::Dispatch(const Event& e) {
  // A cancelled (or crashed-node) timer still pops from the queue; it
  // must not advance the clock, or quiesce_time would stretch to the
  // deadline of a timer that never fired.
  if (const auto* t = std::get_if<TimerEvent>(&e.body)) {
    if (active_timers_.erase(t->timer) == 0) return;  // cancelled
    if (failed_[t->node]) return;  // timers die with their node
    now_ = std::max(now_, e.at);
    ++ledger_.timers_fired;
    ++lamport_[t->node];
    TraceEvent(TraceRecord::Kind::kTimerFire, t->node, t->node,
               kInvalidPort, 0, t->timer);
    ContextImpl ctx(*this, t->node);
    processes_[t->node]->OnTimer(ctx, t->timer);
    return;
  }
  // Monotone clock: under controlled scheduling events dispatch out of
  // time order, so the clock ratchets. In time-ordered runs e.at is
  // never in the past and this is the plain assignment it always was.
  now_ = std::max(now_, e.at);
  if (const auto* w = std::get_if<WakeupEvent>(&e.body)) {
    if (failed_[w->node]) return;  // crashed before its wakeup fired
    ++lamport_[w->node];
    TraceEvent(TraceRecord::Kind::kWakeup, w->node, w->node, kInvalidPort,
               0, 0);
    ContextImpl ctx(*this, w->node);
    processes_[w->node]->OnWakeup(ctx);
  } else if (const auto* d = std::get_if<DeliveryEvent>(&e.body)) {
    // The link hands the message over either way — in-flight accounting
    // must stay exact even when the destination is gone.
    CELECT_DCHECK(deliveries_inflight_ > 0);
    --deliveries_inflight_;
    if (telemetry_) {
      CELECT_DCHECK(pending_deliveries_[d->to] > 0);
      --pending_deliveries_[d->to];
    }
    links_.NotifyDelivered(d->from, d->to);
    if (failed_[d->to]) {
      Drop(dropped_to_crashed_);
      TraceEvent(TraceRecord::Kind::kDrop, d->to, d->from,
                 d->arrival_port, d->packet.type, d->mid);
      return;
    }
    auto fate = injector_ ? injector_->NoteDelivery(d->to, d->packet.type)
                          : FaultInjector::DeliveryFate::kProcess;
    if (fate == FaultInjector::DeliveryFate::kCrashBeforeProcessing) {
      // Mid-handshake death: the node dies with the message unread.
      MarkCrashed(d->to);
      Drop(dropped_to_crashed_);
      TraceEvent(TraceRecord::Kind::kDrop, d->to, d->from,
                 d->arrival_port, d->packet.type, d->mid);
      return;
    }
    config_.mapper->MarkTraversed(d->to, d->arrival_port);
    ++ledger_.delivered;
    // A processed delivery joins the sender's send-time clock: the
    // Lamport rule max(local, sender) + 1. Unprocessed drops above do
    // not advance the clock — only protocol-visible events do.
    lamport_[d->to] =
        std::max<std::uint64_t>(lamport_[d->to], d->send_clock) + 1;
    TraceEvent(TraceRecord::Kind::kDeliver, d->to, d->from,
               d->arrival_port, d->packet.type, d->mid);
    if (telemetry_) {
      telemetry_->latency.Add(d->latency_ticks);
      telemetry_->queue_depth.Add(pending_deliveries_[d->to]);
    }
    ContextImpl ctx(*this, d->to);
    processes_[d->to]->OnMessage(ctx, d->arrival_port, d->packet);
    if (fate == FaultInjector::DeliveryFate::kCrashAfterProcessing) {
      MarkCrashed(d->to);
    }
  } else if (const auto* c = std::get_if<CrashEvent>(&e.body)) {
    MarkCrashed(c->node);
  } else if (const auto* rj = std::get_if<RejoinEvent>(&e.body)) {
    CELECT_DCHECK(pending_rejoins_[rj->node] > 0);
    --pending_rejoins_[rj->node];
    MarkRejoined(rj->node);
  }
}

RunInspect Runtime::MakeInspect() {
  RunInspect in;
  in.n = config_.n;
  in.ids = &ids_;
  in.failed = &failed_;
  in.processes = processes_.data();
  in.ledger = &ledger_;
  in.metrics = &metrics_;
  in.now = now_;
  in.deliveries_inflight = deliveries_inflight_;
  return in;
}

void Runtime::NotifyObserver(const Event& e) {
  if (!options_.observer) return;
  RunInspect in = MakeInspect();
  options_.observer->AfterEvent(EventTarget(e.body), in);
}

bool Runtime::EventIsInert(const Event& e) const {
  if (const auto* t = std::get_if<TimerEvent>(&e.body)) {
    return active_timers_.count(t->timer) == 0 || failed_[t->node];
  }
  if (const auto* rj = std::get_if<RejoinEvent>(&e.body)) {
    return !failed_[rj->node];  // reviving a live node is a no-op
  }
  // Traffic to a dead node is inert only while the node stays dead: with
  // a rejoin pending, "dropped before revival" vs "delivered after" is a
  // real schedule choice the controller must see.
  const NodeId target = EventTarget(e.body);
  return failed_[target] && pending_rejoins_[target] == 0;
}

void Runtime::DrainInert(std::uint64_t& events) {
  // Inert events are deterministic no-ops for protocol state (drop
  // accounting only), so they commute with everything and are dispatched
  // eagerly, lowest seq first, rather than offered as schedule choices.
  for (;;) {
    std::optional<std::uint64_t> seq;
    for (const Event& e : queue_.events()) {
      if (EventIsInert(e) && (!seq || e.seq < *seq)) seq = e.seq;
    }
    if (!seq) return;
    Event e = queue_.Take(*seq);
    CELECT_CHECK(++events <= options_.max_events)
        << "event budget exceeded in controlled run";
    Dispatch(e);
    NotifyObserver(e);
  }
}

void Runtime::RunControlled(std::uint64_t& events) {
  std::vector<const Event*> enabled;
  // Lowest pending seq per directed link — the per-link FIFO gate. Push
  // order equals send order on a link, so the lowest-seq pending
  // delivery is the FIFO head.
  std::unordered_map<std::uint64_t, std::uint64_t> link_head;
  const auto link_key = [this](const DeliveryEvent& d) {
    return static_cast<std::uint64_t>(d.from) * config_.n + d.to;
  };
  while (!stop_requested_) {
    DrainInert(events);
    const std::vector<Event>& pending = queue_.events();
    if (pending.empty()) return;
    link_head.clear();
    for (const Event& e : pending) {
      if (const auto* d = std::get_if<DeliveryEvent>(&e.body)) {
        auto [it, inserted] = link_head.try_emplace(link_key(*d), e.seq);
        if (!inserted && e.seq < it->second) it->second = e.seq;
      }
    }
    enabled.clear();
    for (const Event& e : pending) {
      if (const auto* d = std::get_if<DeliveryEvent>(&e.body)) {
        if (link_head[link_key(*d)] != e.seq) continue;  // FIFO-blocked
      }
      enabled.push_back(&e);
    }
    CELECT_CHECK(!enabled.empty());
    std::sort(enabled.begin(), enabled.end(),
              [](const Event* a, const Event* b) { return a->seq < b->seq; });
    std::optional<std::size_t> pick =
        options_.controller->ChooseNext(enabled);
    if (!pick) {
      aborted_by_controller_ = true;
      return;
    }
    CELECT_CHECK(*pick < enabled.size());
    Event e = queue_.Take(enabled[*pick]->seq);
    CELECT_CHECK(++events <= options_.max_events)
        << "event budget exceeded in controlled run";
    Dispatch(e);
    NotifyObserver(e);
  }
}

RunResult Runtime::Run() {
  CELECT_CHECK(!ran_) << "Runtime::Run may be called only once";
  ran_ = true;

  const std::uint64_t wall_start = WallClockNowNs();
  std::uint64_t events = 0;
  if (options_.controller) {
    RunControlled(events);
  } else {
    while (!stop_requested_) {
      auto e = queue_.Pop();
      if (!e) break;
      CELECT_CHECK(++events <= options_.max_events)
          << "event budget exceeded — protocol is not quiescing "
          << "(messages so far: " << ledger_.sent << ")";
      Dispatch(*e);
      NotifyObserver(*e);
    }
  }
  if (options_.observer && queue_.Empty()) {
    RunInspect in = MakeInspect();
    options_.observer->AtQuiescence(in);
  }
  // Spans still open at quiescence (protocols that never close their
  // final phase) are closed here so every Begin has a matching End in
  // the aggregates and the export.
  for (NodeId node = 0; node < config_.n; ++node) {
    while (!phase_stack_[node].empty()) CloseTopPhase(node);
  }
  const std::uint64_t wall_ns = WallClockNowNs() - wall_start;
  if (trace_.truncated()) {
    // A capped trace must be loud: the counter rides into harness tables
    // and fingerprints, and the warning tells an interactive user that
    // the exported trace is a prefix.
    metrics_.Add("sim.trace_truncated",
                 static_cast<std::int64_t>(trace_.dropped()));
    std::cerr << "[celect] warning: trace truncated — " << trace_.dropped()
              << " records past the cap of " << options_.trace_cap
              << " were dropped; raise RuntimeOptions::trace_cap\n";
  }

  RunResult r;
  r.leader_id = ledger_.leader_id;
  r.leader_node = ledger_.leader_node;
  r.leader_declarations = ledger_.leader_declarations;
  r.leader_time = ledger_.leader_time;
  r.quiesce_time = now_;
  r.total_messages = ledger_.sent;
  r.total_bytes = ledger_.bytes;
  r.events_processed = events;
  r.max_link_load = links_.MaxLinkLoad();
  r.max_link_inflight = links_.MaxLinkInflight();
  r.faults_injected = ledger_.crashes;
  r.messages_lost =
      static_cast<std::uint64_t>(metrics_.Counter(dropped_to_loss_.name));
  r.messages_duplicated = ledger_.duplicated;
  r.messages_reordered = ledger_.reordered;
  r.timers_set = ledger_.timers_set;
  r.timers_fired = ledger_.timers_fired;
  r.wall_ns = wall_ns;
  r.events_per_sec = wall_ns > 0 ? static_cast<double>(events) * 1e9 /
                                       static_cast<double>(wall_ns)
                                 : 0.0;
  r.aborted_by_controller = aborted_by_controller_;
  for (std::size_t t = 0; t < ledger_.sent_by_type.size(); ++t) {
    if (ledger_.sent_by_type[t] > 0) {
      r.messages_by_type.emplace(static_cast<std::uint16_t>(t),
                                 ledger_.sent_by_type[t]);
    }
  }
  r.counters = metrics_.counters();
  for (const auto& [name, count] : r.counters) {
    if (name.starts_with(kInvariantCounterPrefix)) {
      r.invariant_violations += static_cast<std::uint64_t>(count);
    }
  }
  for (const auto& [key, agg] : phase_agg_) {
    r.phases.emplace(
        obs::PhaseKey(static_cast<obs::PhaseId>(key.first), key.second),
        agg);
  }
  if (telemetry_) r.telemetry = *telemetry_;
  return r;
}

}  // namespace celect::sim
