#include "timed.h"

#include <optional>
#include <string_view>
#include <utility>

#include "common.h"

namespace perfbench {

namespace {

using celect::sim::Context;
using celect::sim::Port;
using celect::sim::Process;
using celect::sim::TimerId;
using celect::wire::Packet;

// Forwards every Context call to the host's context; times the calls
// that send messages or touch timers, and records declarations.
class TimedContext final : public Context {
 public:
  TimedContext(Context& inner, ProcessTimes& times)
      : inner_(inner), times_(times) {}

  celect::sim::NodeId address() const override { return inner_.address(); }
  celect::sim::Id id() const override { return inner_.id(); }
  std::uint32_t n() const override { return inner_.n(); }
  celect::sim::Time now() const override { return inner_.now(); }
  bool has_sense_of_direction() const override {
    return inner_.has_sense_of_direction();
  }

  void Send(Port port, Packet p) override {
    const std::uint64_t t0 = NowNs();
    inner_.Send(port, std::move(p));
    times_.send.Add(NowNs() - t0);
    ++times_.messages;
  }
  std::optional<Port> SendFresh(Packet p) override {
    const std::uint64_t t0 = NowNs();
    std::optional<Port> port = inner_.SendFresh(std::move(p));
    times_.send.Add(NowNs() - t0);
    if (port) ++times_.messages;
    return port;
  }
  void SendAll(Packet p) override {
    const std::uint64_t t0 = NowNs();
    inner_.SendAll(std::move(p));
    times_.send.Add(NowNs() - t0);
    times_.messages += inner_.port_count();
  }
  TimerId SetTimer(celect::sim::Time delay) override {
    const std::uint64_t t0 = NowNs();
    const TimerId t = inner_.SetTimer(delay);
    times_.timer.Add(NowNs() - t0);
    return t;
  }
  void CancelTimer(TimerId timer) override {
    const std::uint64_t t0 = NowNs();
    inner_.CancelTimer(timer);
    times_.timer.Add(NowNs() - t0);
  }
  void DeclareLeader() override {
    times_.declarations.push_back(inner_.id());
    inner_.DeclareLeader();
  }
  void RecordLease(celect::sim::LeaseEvent event) override {
    inner_.RecordLease(event);
  }
  void AddCounter(std::string_view name, std::int64_t delta) override {
    inner_.AddCounter(name, delta);
  }
  void MaxCounter(std::string_view name, std::int64_t value) override {
    inner_.MaxCounter(name, value);
  }
  celect::sim::CounterRef ResolveCounter(std::string_view name) override {
    return inner_.ResolveCounter(name);
  }
  void AddCounter(const celect::sim::CounterRef& c,
                  std::int64_t delta) override {
    inner_.AddCounter(c, delta);
  }
  void MaxCounter(const celect::sim::CounterRef& c,
                  std::int64_t value) override {
    inner_.MaxCounter(c, value);
  }
  using Context::BeginPhase;
  void BeginPhase(celect::obs::PhaseId phase, std::int64_t level) override {
    inner_.BeginPhase(phase, level);
  }
  void EndPhase(celect::obs::PhaseId phase) override {
    inner_.EndPhase(phase);
  }

 private:
  Context& inner_;
  ProcessTimes& times_;
};

class TimedProcess final : public Process {
 public:
  TimedProcess(std::unique_ptr<Process> inner, ProcessTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  void OnWakeup(Context& ctx) override {
    Timed(ctx, [&](Context& c) { inner_->OnWakeup(c); });
  }
  void OnMessage(Context& ctx, Port from_port, const Packet& p) override {
    Timed(ctx, [&](Context& c) { inner_->OnMessage(c, from_port, p); });
  }
  void OnTimer(Context& ctx, TimerId timer) override {
    Timed(ctx, [&](Context& c) { inner_->OnTimer(c, timer); });
  }
  void OnPeerSuspected(Context& ctx, Port port) override {
    Timed(ctx, [&](Context& c) { inner_->OnPeerSuspected(c, port); });
  }
  void OnRejoin(Context& ctx) override {
    Timed(ctx, [&](Context& c) { inner_->OnRejoin(c); });
  }
  std::string DescribeState() const override {
    return inner_->DescribeState();
  }
  celect::sim::ProtocolObservables Observe() const override {
    return inner_->Observe();
  }

 private:
  template <typename F>
  void Timed(Context& ctx, F&& handler) {
    TimedContext timed(ctx, times_);
    const std::uint64_t t0 = NowNs();
    handler(timed);
    times_.handler.Add(NowNs() - t0);
  }

  std::unique_ptr<Process> inner_;
  ProcessTimes& times_;
};

}  // namespace

celect::sim::ProcessFactory TimedFactory(celect::sim::ProcessFactory inner,
                                         ProcessTimes& times) {
  return [inner = std::move(inner),
          &times](const celect::sim::ProcessInit& init)
             -> std::unique_ptr<Process> {
    return std::make_unique<TimedProcess>(inner(init), times);
  };
}

void TimedObserver::AfterEvent(celect::sim::NodeId target,
                               const celect::sim::RunInspect& in) {
  const std::uint64_t t0 = NowNs();
  inner_.AfterEvent(target, in);
  after_event_.Add(NowNs() - t0);
}

void TimedTransport::Send(celect::net::PeerId peer, const Packet& p,
                          celect::net::TraceContext tc) {
  times_.sent.push_back(p);
  const std::uint64_t t0 = NowNs();
  inner_.Send(peer, p, tc);
  times_.send.Add(NowNs() - t0);
}

void TimedTransport::Poll(std::vector<celect::net::TransportEvent>& out) {
  const std::uint64_t t0 = NowNs();
  inner_.Poll(out);
  times_.poll.Add(NowNs() - t0);
}

double ClockReadNs() {
  constexpr int kReads = 1 << 20;
  const std::uint64_t t0 = NowNs();
  for (int i = 0; i < kReads; ++i) NowNs();
  return static_cast<double>(NowNs() - t0) / kReads;
}

}  // namespace perfbench
