#include "celect/net/peer_node.h"

#include <algorithm>
#include <string>

#include "celect/util/check.h"
#include "celect/util/rng.h"

namespace celect::net {

// sim::Context implemented against Transport primitives.
class PeerNode::Ctx final : public sim::Context {
 public:
  explicit Ctx(PeerNode* node) : node_(node) {}

  sim::NodeId address() const override { return node_->transport_.self(); }
  sim::Id id() const override { return node_->config_.id; }
  std::uint32_t n() const override { return node_->transport_.n(); }
  sim::Time now() const override { return node_->SimNow(); }
  bool has_sense_of_direction() const override {
    return node_->config_.sense_of_direction;
  }

  void Send(sim::Port port, wire::Packet p) override {
    CELECT_DCHECK(port >= 1 && port < n());
    node_->traversed_.insert(port);
    node_->SendTraced(node_->PeerOf(port), p);
  }

  std::optional<sim::Port> SendFresh(wire::Packet p) override {
    // Deterministic mapper policy: lowest untraversed port first.
    for (sim::Port port = 1; port < n(); ++port) {
      if (node_->traversed_.count(port)) continue;
      Send(port, std::move(p));
      return port;
    }
    return std::nullopt;
  }

  void SendAll(wire::Packet p) override {
    for (sim::Port port = 1; port < n(); ++port) Send(port, p);
  }

  sim::TimerId SetTimer(sim::Time delay) override {
    sim::TimerId id = node_->next_timer_++;
    Micros deadline =
        node_->transport_.Now() + node_->DelayToMicros(delay);
    node_->timers_.insert({deadline, id});
    node_->TraceEvent(sim::TraceRecord::Kind::kTimerSet, 0, 0, 0,
                      node_->lamport_, static_cast<std::uint64_t>(id));
    return id;
  }

  void CancelTimer(sim::TimerId timer) override {
    if (timer == sim::kInvalidTimer) return;
    node_->cancelled_.insert(timer);
    node_->TraceEvent(sim::TraceRecord::Kind::kTimerCancel, 0, 0, 0,
                      node_->lamport_, static_cast<std::uint64_t>(timer));
  }

  void DeclareLeader() override {
    node_->declared_self_ = true;
    node_->Believe(node_->config_.id);
  }

  // Protocol counters land in the node's registry as "proto.<name>".
  void AddCounter(std::string_view name, std::int64_t delta) override {
    AddCounter(ResolveCounter(name), delta);
  }

  void MaxCounter(std::string_view name, std::int64_t value) override {
    MaxCounter(ResolveCounter(name), value);
  }

  sim::CounterRef ResolveCounter(std::string_view name) override {
    return {name, node_->metrics_.Intern("proto." + std::string(name))};
  }

  void AddCounter(const sim::CounterRef& c, std::int64_t delta) override {
    node_->metrics_.Add(Slot(c), delta);
  }

  void MaxCounter(const sim::CounterRef& c, std::int64_t value) override {
    node_->metrics_.Max(Slot(c), value);
  }

 private:
  // A ref from a context that does not intern falls back to the name.
  obs::MetricsRegistry::Handle Slot(const sim::CounterRef& c) {
    if (c.slot != sim::CounterRef::kUnresolved) return c.slot;
    return ResolveCounter(c.name).slot;
  }

  PeerNode* node_;
};

PeerNode::PeerNode(const PeerNodeConfig& config, Transport& transport,
                   const sim::ProcessFactory& factory)
    : config_(config), transport_(transport) {
  CELECT_CHECK(config_.unit_us > 0);
  ctx_ = std::make_unique<Ctx>(this);
  process_ = factory(sim::ProcessInit{transport_.self(), config_.id,
                                      transport_.n()});
  // High 44 bits identify this incarnation (epoch is unique per node
  // incarnation); the low 20 bits count sends. A node that sends more
  // than 2^20 messages rolls into + carry — mids stay unique, they just
  // stop being prefix-groupable, which nothing relies on.
  mid_base_ = SplitMix64(transport_.epoch() ^
                         (std::uint64_t{transport_.self()} << 32) ^
                         0x5a1de5a1deULL)
                  .Next()
              << 20;
}

PeerNode::~PeerNode() = default;

PeerId PeerNode::PeerOf(sim::Port port) const {
  return (transport_.self() + port) % transport_.n();
}

sim::Port PeerNode::PortOf(PeerId peer) const {
  std::uint32_t n = transport_.n();
  return static_cast<sim::Port>((peer + n - transport_.self()) % n);
}

std::int64_t PeerNode::TicksOf(Micros at) const {
  // Split to keep at * 2^20 well inside int64 even for long runs.
  std::int64_t units = static_cast<std::int64_t>(at / config_.unit_us);
  std::int64_t rem = static_cast<std::int64_t>(at % config_.unit_us);
  return units * sim::Time::kTicksPerUnit +
         rem * sim::Time::kTicksPerUnit /
             static_cast<std::int64_t>(config_.unit_us);
}

sim::Time PeerNode::SimNow() const {
  return sim::Time::FromTicks(TicksOf(transport_.Now()));
}

Micros PeerNode::DelayToMicros(sim::Time delay) const {
  std::int64_t t = delay.ticks();
  if (t <= 0) return 0;
  std::int64_t unit = static_cast<std::int64_t>(config_.unit_us);
  return static_cast<Micros>(t / sim::Time::kTicksPerUnit * unit +
                             t % sim::Time::kTicksPerUnit * unit /
                                 sim::Time::kTicksPerUnit);
}

void PeerNode::Believe(sim::Id leader) {
  if (leader_ && *leader_ >= leader) return;
  leader_ = leader;
  TraceEvent(sim::TraceRecord::Kind::kLeader, 0, 0, 0, lamport_,
             static_cast<std::uint64_t>(leader));
  // Announce promptly so a fresh belief propagates within one pump.
  next_announce_ = transport_.Now();
}

void PeerNode::Start() {
  if (started_) return;
  started_ = true;
  if (config_.rejoin) {
    TraceEvent(sim::TraceRecord::Kind::kRejoin, 0, 0, 0, lamport_, 0);
    process_->OnRejoin(*ctx_);
  } else {
    ++lamport_;
    TraceEvent(sim::TraceRecord::Kind::kWakeup, 0, 0, 0, lamport_, 0);
    process_->OnWakeup(*ctx_);
  }
}

void PeerNode::TraceEvent(sim::TraceRecord::Kind kind, PeerId peer,
                          sim::Port port, std::uint16_t type,
                          std::uint64_t clock, std::uint64_t mid) {
  if (!config_.trace) return;
  if (trace_.size() >= config_.trace_cap) {
    ++trace_dropped_;
    return;
  }
  sim::TraceRecord r{};
  r.kind = kind;
  r.at = SimNow();
  r.node = transport_.self();
  r.peer = peer;
  r.port = port;
  r.type = type;
  r.seq = trace_seq_++;
  r.clock = clock;
  r.mid = mid;
  trace_.push_back(r);
}

void PeerNode::SendTraced(PeerId peer, const wire::Packet& p) {
  ++lamport_;
  std::uint64_t mid = mid_base_ + ++mid_counter_;
  TraceEvent(sim::TraceRecord::Kind::kSend, peer, PortOf(peer), p.type,
             lamport_, mid);
  transport_.Send(peer, p, TraceContext{lamport_, mid});
}

void PeerNode::Dispatch(const TransportEvent& ev) {
  ++events_dispatched_;
  digest_.Update(static_cast<std::uint8_t>(ev.kind));
  digest_.Update(static_cast<std::uint8_t>(ev.peer));
  sim::Port port = PortOf(ev.peer);
  switch (ev.kind) {
    case TransportEvent::Kind::kPacket: {
      digest_.Update(static_cast<std::uint8_t>(ev.packet.type));
      digest_.Update(static_cast<std::uint8_t>(ev.packet.type >> 8));
      for (std::int64_t f : ev.packet.fields) {
        for (int i = 0; i < 8; ++i) {
          digest_.Update(static_cast<std::uint8_t>(
              static_cast<std::uint64_t>(f) >> (8 * i)));
        }
      }
      // Join the sender's clock before anything runs in response —
      // announce interception included, so gossip stays on the causal
      // timeline too.
      lamport_ = std::max(lamport_, ev.tc_clock) + 1;
      TraceEvent(sim::TraceRecord::Kind::kDeliver, ev.peer, port,
                 ev.packet.type, lamport_, ev.tc_mid);
      if (ev.packet.type == kAnnouncePacketType) {
        if (!ev.packet.fields.empty()) Believe(ev.packet.field(0));
        return;
      }
      traversed_.insert(port);
      process_->OnMessage(*ctx_, port, ev.packet);
      return;
    }
    case TransportEvent::Kind::kSuspect:
      ++suspicions_seen_;
      process_->OnPeerSuspected(*ctx_, port);
      return;
    case TransportEvent::Kind::kPeerRestart:
      // The reliability layer already resynced; nothing protocol-level
      // to do — the revived peer re-enters via its own OnRejoin.
      return;
  }
}

void PeerNode::FireDueTimers() {
  while (!timers_.empty()) {
    auto [deadline, id] = *timers_.begin();
    if (deadline > transport_.Now()) break;
    timers_.erase(timers_.begin());
    if (cancelled_.erase(id) > 0) continue;
    digest_.Update(0x7D);  // timer-fired marker
    digest_.Update(static_cast<std::uint8_t>(id));
    ++lamport_;
    TraceEvent(sim::TraceRecord::Kind::kTimerFire, 0, 0, 0, lamport_,
               static_cast<std::uint64_t>(id));
    process_->OnTimer(*ctx_, id);
  }
}

void PeerNode::Announce() {
  wire::Packet p;
  p.type = kAnnouncePacketType;
  p.fields.push_back(*leader_);
  for (PeerId peer = 0; peer < transport_.n(); ++peer) {
    if (peer == transport_.self()) continue;
    SendTraced(peer, p);
  }
  next_announce_ = transport_.Now() + config_.announce_interval_us;
}

void PeerNode::Pump() {
  Start();
  events_.clear();
  transport_.Poll(events_);
  for (const TransportEvent& ev : events_) Dispatch(ev);
  FireDueTimers();
  if (leader_ && transport_.Now() >= next_announce_) Announce();
}

void RecordTransportStats(const TransportStats& st,
                          obs::MetricsRegistry& m) {
  const auto count = [&m](const char* name, std::uint64_t v) {
    m.Add(name, static_cast<std::int64_t>(v));
  };
  count("net.datagrams_sent", st.datagrams_sent);
  count("net.datagrams_received", st.datagrams_received);
  count("net.retransmits", st.sessions.data_retransmits);
  count("net.delivered", st.sessions.delivered);
  count("net.suspicions", st.sessions.suspicions);
  count("net.peer_restarts", st.sessions.peer_restarts);
  count("net.version_mismatch", st.sessions.version_mismatch);
  count("net.rtt_samples_dropped", st.sessions.rtt_samples_dropped);
  m.MergeHistogram("rtt_us", st.sessions.rtt_us);
  m.MergeHistogram("backoff_us", st.sessions.backoff_us);
  m.MergeHistogram("window_occupancy", st.sessions.window);
  m.MergeHistogram("suspicion_us", st.sessions.suspicion_us);
}

obs::MetricsRegistry PeerNode::SnapshotMetrics() const {
  obs::MetricsRegistry m = metrics_;
  m.Add("node.events_dispatched",
        static_cast<std::int64_t>(events_dispatched_));
  m.Add("node.suspicions_seen", static_cast<std::int64_t>(suspicions_seen_));
  m.Add("node.trace_dropped", static_cast<std::int64_t>(trace_dropped_));
  RecordTransportStats(transport_.Stats(), m);
  return m;
}

obs::TraceShard PeerNode::MakeShard(bool complete) const {
  obs::TraceShard s;
  s.node = transport_.self();
  s.epoch = transport_.epoch();
  s.complete = complete;
  s.dropped = trace_dropped_;
  s.label = "id=" + std::to_string(config_.id);
  s.records = trace_;
  if (const obs::FlightRecorder* rec = transport_.recorder()) {
    s.flight = rec->Snapshot();
    for (auto& f : s.flight) {
      f.at = static_cast<std::uint64_t>(
          TicksOf(static_cast<Micros>(f.at)));
    }
  }
  s.metrics = SnapshotMetrics();
  return s;
}

std::optional<Micros> PeerNode::NextWake() const {
  std::optional<Micros> wake = transport_.NextWake();
  auto consider = [&wake](Micros t) {
    if (!wake || t < *wake) wake = t;
  };
  if (!timers_.empty()) consider(timers_.begin()->first);
  if (leader_) consider(next_announce_);
  return wake;
}

}  // namespace celect::net
