// Timing wrappers for the library's public seams, used only by the
// traced runs (--trace 1). Each wrapper forwards every call unchanged
// to the object it wraps and adds the call's wall time to a Span, so a
// traced run executes the same program as an untraced one — the
// workloads check that by comparing fingerprints — and nothing in the
// library is modified to be measured.
//
//   TimedFactory    sim::ProcessFactory: wraps each Process so its
//                   handlers and the sim::Context calls made inside
//                   them are timed (handler self time = handler time
//                   minus the context calls).
//   TimedObserver   sim::RunObserver::AfterEvent.
//   TimedTransport  net::Transport::Send and Poll; keeps a copy of
//                   every packet sent for the codec replay.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "celect/net/transport.h"
#include "celect/sim/hooks.h"
#include "celect/sim/process.h"
#include "celect/wire/packet.h"

namespace perfbench {

struct Span {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  void Add(std::uint64_t d) {
    ns += d;
    ++calls;
  }
};

struct ProcessTimes {
  // Process handlers (OnWakeup/OnMessage/OnTimer/OnPeerSuspected/
  // OnRejoin), including the context calls they make.
  Span handler;
  // Context::Send/SendAll/SendFresh, and the messages they sent.
  Span send;
  std::uint64_t messages = 0;
  // Context::SetTimer and Context::CancelTimer.
  Span timer;
  // Context::DeclareLeader, with the declaring node's identity.
  std::vector<celect::sim::Id> declarations;
};

celect::sim::ProcessFactory TimedFactory(celect::sim::ProcessFactory inner,
                                         ProcessTimes& times);

class TimedObserver final : public celect::sim::RunObserver {
 public:
  TimedObserver(celect::sim::RunObserver& inner, Span& after_event)
      : inner_(inner), after_event_(after_event) {}
  void AfterEvent(celect::sim::NodeId target,
                  const celect::sim::RunInspect& in) override;
  void AtQuiescence(const celect::sim::RunInspect& in) override {
    inner_.AtQuiescence(in);
  }

 private:
  celect::sim::RunObserver& inner_;
  Span& after_event_;
};

struct TransportTimes {
  Span send;
  Span poll;
  // Every packet passed to Send, for the codec replay.
  std::vector<celect::wire::Packet> sent;
};

class TimedTransport final : public celect::net::Transport {
 public:
  TimedTransport(celect::net::Transport& inner, TransportTimes& times)
      : inner_(inner), times_(times) {}

  celect::net::PeerId self() const override { return inner_.self(); }
  celect::net::PeerId n() const override { return inner_.n(); }
  celect::net::Micros Now() override { return inner_.Now(); }
  using celect::net::Transport::Send;
  void Send(celect::net::PeerId peer, const celect::wire::Packet& p,
            celect::net::TraceContext tc) override;
  void Poll(std::vector<celect::net::TransportEvent>& out) override;
  std::optional<celect::net::Micros> NextWake() const override {
    return inner_.NextWake();
  }
  celect::net::TransportStats Stats() const override {
    return inner_.Stats();
  }
  std::uint64_t epoch() const override { return inner_.epoch(); }
  const celect::obs::FlightRecorder* recorder() const override {
    return inner_.recorder();
  }

 private:
  celect::net::Transport& inner_;
  TransportTimes& times_;
};

// Mean cost of one steady_clock reading, in ns. Every span's duration
// includes about one reading; the per-layer figures subtract it.
double ClockReadNs();

}  // namespace perfbench
