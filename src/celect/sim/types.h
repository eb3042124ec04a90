// Shared identifier types for the simulator.
#pragma once

#include <cstdint>

namespace celect::sim {

// Internal node address, 0..N-1. Protocol code never compares addresses;
// it compares identities (Id). Addresses double as ring positions for
// sense-of-direction networks.
using NodeId = std::uint32_t;

// Processor identity — the unique value protocols contest with.
using Id = std::int64_t;

// Local port number at a node, 1..N-1 (0 is invalid). Under sense of
// direction the port number *is* the Hamiltonian distance to the
// neighbour; without it, port numbers are arbitrary labels.
using Port = std::uint32_t;

inline constexpr Port kInvalidPort = 0;

// Handle for a timer armed via Context::SetTimer. Ids are unique per run
// and never reused; 0 is never a live timer.
using TimerId = std::uint64_t;

inline constexpr TimerId kInvalidTimer = 0;

// Why a lease-event counter ticked (Context::RecordLease). Like the
// per-cause drop counters, a per-cause breakdown of the lease
// lifecycle, so chaos tables can tell a healthy renewal cadence from an
// expiry storm.
enum class LeaseEvent {
  kGranted,  // a new lease was acquired (quorum acked a grant)
  kRenewed,  // the holder extended its lease before expiry
  kExpired,  // a lease deadline passed without renewal
  kRevoked,  // the holder gave the lease up voluntarily (step-down)
};

inline constexpr int kLeaseEventCount = 4;

}  // namespace celect::sim
