// The invariant registry — the safety/liveness claims of the paper's
// correctness lemmas, checked after every dispatched event.
//
// Implements sim::RunObserver, so it plugs into any Runtime (seeded
// simulation, chaos case, or explorer-controlled run) via
// RuntimeOptions::observer:
//
//   unique_leader      at most one DeclareLeader, ever (Lemmas 1-3 / the
//                      accept-reject discipline of protocol E);
//   leader_is_max_id   the declared leader carries the largest identity
//                      among initially-live nodes — opt-in, valid only
//                      for configurations where the protocol guarantees
//                      it (fault-free, every node a base node);
//   monotone           every gauge a protocol exposes via
//                      Process::Observe() (levels, phase indices, accept
//                      counts) never decreases at a node; a rejoin resets
//                      the node's baselines (the fresh process legally
//                      restarts its gauges from zero);
//   lease_overlap      at most one *valid* lease claim across live nodes
//                      at every instant — the instant-safety invariant of
//                      the continuous election service. A claim whose
//                      deadline has passed is not a holder, so expired
//                      claims lingering until their owner notices are
//                      fine; two unexpired claims are a safety hole;
//   conservation       every send is delivered, dropped with a recorded
//                      cause, or still in flight — nothing vanishes;
//   termination        opt-in, checked at quiescence: a leader was
//                      declared and no node still claims to be mid-
//                      pursuit (quiescence implies termination).
//
// Violations are recorded as human-readable strings (capped) and as
// per-cause tallies "invariant.<kind>" in the run's metrics registry,
// surfacing in RunResult::counters next to the per-cause drop counters.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "celect/sim/hooks.h"

namespace celect::analysis {

// Stable violation kinds (counter suffixes).
inline constexpr char kInvMultipleLeaders[] = "multiple_leaders";
inline constexpr char kInvLeaderNotMaxId[] = "leader_not_max_id";
inline constexpr char kInvMonotoneRegression[] = "monotone_regression";
inline constexpr char kInvConservation[] = "conservation";
inline constexpr char kInvNoTermination[] = "no_termination";
inline constexpr char kInvLeaseOverlap[] = "lease_overlap";

struct InvariantOptions {
  bool unique_leader = true;
  // Requires a configuration where the max-id node participates and
  // cannot crash; enable for fault-free all-base runs only.
  bool leader_is_max_id = false;
  bool monotone_observables = true;
  bool message_conservation = true;
  // At most one unexpired ProtocolObservables::lease claim across live
  // nodes after every event. Free for protocols that publish no claims.
  bool at_most_one_lease_holder = true;
  // Quiescence-implies-termination: at quiescence a leader exists and
  // every live node reporting a termination claim reports true. Enable
  // for fault-free runs (a protocol pushed past its fault tolerance may
  // legally stall leaderless).
  bool quiescence_termination = false;
};

class InvariantRegistry : public sim::RunObserver {
 public:
  explicit InvariantRegistry(InvariantOptions opt = {}) : opt_(opt) {}

  void AfterEvent(sim::NodeId target, const sim::RunInspect& in) override;
  void AtQuiescence(const sim::RunInspect& in) override;

  bool ok() const { return violations_.empty(); }
  // First-N human-readable violations (every one is also tallied in the
  // run's metrics registry, even past the cap).
  const std::vector<std::string>& violations() const { return violations_; }
  // "; "-joined violations; empty string when the run was clean.
  std::string Summary() const;

 private:
  void Violate(const sim::RunInspect& in, const char* kind,
               std::string what);
  void CheckLeader(const sim::RunInspect& in);
  void CheckMonotone(sim::NodeId target, const sim::RunInspect& in,
                     const sim::ProtocolObservables& obs);
  void CheckLease(sim::NodeId target, const sim::RunInspect& in,
                  const sim::ProtocolObservables* obs);
  void CheckConservation(const sim::RunInspect& in);

  InvariantOptions opt_;
  std::vector<std::string> violations_;
  // Per-(node, gauge) high-water marks for the monotonicity check.
  std::map<std::pair<sim::NodeId, std::string>, std::int64_t> last_;
  // Cached lease claims, maintained incrementally: only the event's
  // target re-publishes per AfterEvent, so the overlap scan is over the
  // (tiny) set of claimants, not all n nodes.
  std::map<sim::NodeId, sim::ProtocolObservables::LeaseClaim> lease_claims_;
  // Overlapping pairs already reported — a persisting overlap is one
  // violation, not one per event.
  std::set<std::pair<sim::NodeId, sim::NodeId>> lease_pairs_reported_;
  // Last-seen liveness per node, to spot failed→alive (rejoin) edges.
  std::vector<char> was_failed_;
  sim::Id expected_leader_ = 0;
  bool expected_leader_known_ = false;
  bool multiple_reported_ = false;
  bool max_id_reported_ = false;
};

}  // namespace celect::analysis
