#include "celect/analysis/invariants.h"

#include <algorithm>
#include <sstream>

namespace celect::analysis {

namespace {
// Readable-violation cap; the registry's tallies keep counting past it.
constexpr std::size_t kMaxRecorded = 64;
}  // namespace

void InvariantRegistry::Violate(const sim::RunInspect& in, const char* kind,
                                std::string what) {
  in.CountViolation(kind);
  if (violations_.size() < kMaxRecorded) {
    violations_.push_back(std::string(kind) + ": " + std::move(what));
  }
}

void InvariantRegistry::CheckLeader(const sim::RunInspect& in) {
  const sim::RunLedger& l = *in.ledger;
  if (opt_.unique_leader && l.leader_declarations > 1 &&
      !multiple_reported_) {
    multiple_reported_ = true;
    std::ostringstream os;
    os << l.leader_declarations << " leader declarations (last leader id "
       << *l.leader_id << ")";
    Violate(in, kInvMultipleLeaders, os.str());
  }
  if (opt_.leader_is_max_id && l.leader_declarations > 0 &&
      !max_id_reported_ && *l.leader_id != expected_leader_) {
    max_id_reported_ = true;
    std::ostringstream os;
    os << "leader id " << *l.leader_id << ", expected max id "
       << expected_leader_;
    Violate(in, kInvLeaderNotMaxId, os.str());
  }
}

void InvariantRegistry::CheckMonotone(sim::NodeId target,
                                      const sim::RunInspect& in,
                                      const sim::ProtocolObservables& obs) {
  for (const auto& [name, value] : obs.monotone) {
    auto [it, inserted] = last_.try_emplace({target, name}, value);
    if (inserted) continue;
    if (value < it->second) {
      std::ostringstream os;
      os << "node " << target << " gauge '" << name << "' fell from "
         << it->second << " to " << value;
      Violate(in, kInvMonotoneRegression, os.str());
    }
    it->second = std::max(it->second, value);
  }
}

void InvariantRegistry::CheckLease(sim::NodeId target,
                                   const sim::RunInspect& in,
                                   const sim::ProtocolObservables* obs) {
  // Re-publish only the target's claim (dead nodes claim nothing), then
  // scan the claimant set for two unexpired deadlines.
  if (obs != nullptr && obs->lease.has_value()) {
    lease_claims_[target] = *obs->lease;
  } else {
    lease_claims_.erase(target);
  }
  sim::NodeId holder = 0;
  bool found = false;
  for (const auto& [node, claim] : lease_claims_) {
    if (claim.deadline < in.now) continue;  // expired: not a holder
    if (!found) {
      holder = node;
      found = true;
      continue;
    }
    if (lease_pairs_reported_.insert({holder, node}).second) {
      std::ostringstream os;
      os << "nodes " << holder << " and " << node
         << " both hold unexpired leases at t=" << in.now.ticks()
         << " (terms " << lease_claims_[holder].term << " and " << claim.term
         << ")";
      Violate(in, kInvLeaseOverlap, os.str());
    }
  }
}

void InvariantRegistry::CheckConservation(const sim::RunInspect& in) {
  const sim::RunLedger& l = *in.ledger;
  const std::uint64_t sent = l.sent + l.duplicated;
  const std::uint64_t accounted =
      l.delivered + l.dropped + in.deliveries_inflight;
  if (sent != accounted) {
    std::ostringstream os;
    os << "sent+duplicated=" << sent << " but delivered+dropped+inflight="
       << accounted;
    Violate(in, kInvConservation, os.str());
  }
}

void InvariantRegistry::AfterEvent(sim::NodeId target,
                                   const sim::RunInspect& in) {
  if (!expected_leader_known_) {
    // Snapshot before any mid-run crash can remove the max-id node; the
    // max-id check is only meaningful for configs where it stays live.
    expected_leader_known_ = true;
    sim::Id best = (*in.ids)[0];
    for (sim::NodeId i = 0; i < in.n; ++i) {
      if (!(*in.failed)[i]) best = std::max(best, (*in.ids)[i]);
    }
    expected_leader_ = best;
  }
  if (was_failed_.empty()) was_failed_.assign(in.n, 0);
  const bool alive = !(*in.failed)[target];
  if (alive && was_failed_[target]) {
    // Failed→alive edge: a rejoin rebuilt the node from the factory, so
    // its gauges legally restart from zero and any cached claim belongs
    // to the previous incarnation.
    for (auto it = last_.lower_bound({target, std::string()});
         it != last_.end() && it->first.first == target;) {
      it = last_.erase(it);
    }
    lease_claims_.erase(target);
  }
  was_failed_[target] = alive ? 0 : 1;
  CheckLeader(in);
  if (alive && (opt_.monotone_observables || opt_.at_most_one_lease_holder)) {
    const sim::ProtocolObservables obs = in.process(target).Observe();
    if (opt_.monotone_observables) CheckMonotone(target, in, obs);
    if (opt_.at_most_one_lease_holder) CheckLease(target, in, &obs);
  } else if (!alive && opt_.at_most_one_lease_holder) {
    CheckLease(target, in, nullptr);
  }
  if (opt_.message_conservation) CheckConservation(in);
}

void InvariantRegistry::AtQuiescence(const sim::RunInspect& in) {
  if (opt_.message_conservation) {
    CheckConservation(in);
    if (in.deliveries_inflight != 0) {
      std::ostringstream os;
      os << in.deliveries_inflight << " deliveries in flight at quiescence";
      Violate(in, kInvConservation, os.str());
    }
  }
  if (!opt_.quiescence_termination) return;
  if (in.ledger->leader_declarations == 0) {
    Violate(in, kInvNoTermination, "quiescent with no leader declared");
  }
  for (sim::NodeId i = 0; i < in.n; ++i) {
    if ((*in.failed)[i]) continue;
    const auto obs = in.process(i).Observe();
    if (obs.terminated.has_value() && !*obs.terminated) {
      std::ostringstream os;
      os << "node " << i << " still mid-pursuit at quiescence ("
         << in.process(i).DescribeState() << ")";
      Violate(in, kInvNoTermination, os.str());
    }
  }
}

std::string InvariantRegistry::Summary() const {
  std::string out;
  for (const auto& v : violations_) {
    if (!out.empty()) out += "; ";
    out += v;
  }
  return out;
}

}  // namespace celect::analysis
