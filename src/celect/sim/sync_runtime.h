// Round-synchronous runtime.
//
// The paper contrasts its asynchronous bounds with the synchronous AG85
// protocol (O(log N) rounds, message optimal) and notes the Ω(N/log N)
// asynchronous lower bound proves an N/(log N)² gap. This runtime models
// the classic synchronous network: in round r every node atomically
// receives all messages sent to it in round r-1, computes, and sends.
// Time complexity is the number of rounds.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "celect/sim/port_mapper.h"
#include "celect/sim/types.h"
#include "celect/wire/packet.h"

namespace celect::sim {

class SyncContext {
 public:
  virtual ~SyncContext() = default;
  virtual NodeId address() const = 0;
  virtual Id id() const = 0;
  virtual std::uint32_t n() const = 0;
  virtual std::uint32_t round() const = 0;
  virtual void Send(Port port, wire::Packet p) = 0;
  virtual void DeclareLeader() = 0;
};

class SyncProcess {
 public:
  virtual ~SyncProcess() = default;
  // Called once per round on every node; inbox holds (arrival port,
  // packet) pairs from the previous round. Round 0 has empty inboxes —
  // base nodes treat it as their simultaneous wakeup.
  virtual void OnRound(SyncContext& ctx,
                       const std::vector<std::pair<Port, wire::Packet>>&
                           inbox) = 0;
};

struct SyncProcessInit {
  NodeId address;
  Id id;
  std::uint32_t n;
};

using SyncProcessFactory =
    std::function<std::unique_ptr<SyncProcess>(const SyncProcessInit&)>;

struct SyncRunResult {
  std::optional<Id> leader_id;
  std::uint32_t leader_declarations = 0;
  std::uint32_t rounds = 0;  // rounds until quiescence
  std::uint64_t total_messages = 0;
};

class SyncRuntime {
 public:
  SyncRuntime(std::uint32_t n, std::vector<Id> identities,
              std::unique_ptr<PortMapper> mapper,
              const SyncProcessFactory& factory,
              std::uint32_t max_rounds = 1'000'000);

  // Runs rounds until a full round passes with no messages in flight.
  SyncRunResult Run();

 private:
  class ContextImpl;
  friend class ContextImpl;

  std::uint32_t n_;
  std::vector<Id> ids_;
  std::unique_ptr<PortMapper> mapper_;
  std::vector<std::unique_ptr<SyncProcess>> processes_;
  std::uint32_t max_rounds_;

  std::uint32_t round_ = 0;
  std::uint64_t messages_ = 0;
  std::uint32_t leader_declarations_ = 0;
  std::optional<Id> leader_id_;
  // outbox[node] accumulates within the round, then becomes the next
  // round's inbox at the receivers.
  std::vector<std::vector<std::pair<Port, wire::Packet>>> inboxes_;
  std::vector<std::vector<std::pair<Port, wire::Packet>>> next_inboxes_;
};

}  // namespace celect::sim
