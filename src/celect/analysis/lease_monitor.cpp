#include "celect/analysis/lease_monitor.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

namespace celect::analysis {

namespace {
// Readable-violation cap, matching the InvariantRegistry's.
constexpr std::size_t kMaxRecorded = 64;
}  // namespace

void LeaseMonitor::Violate(const sim::RunInspect& in, std::string what) {
  in.CountViolation(kInvReelectionOverdue);
  if (violations_.size() < kMaxRecorded) {
    violations_.push_back(std::string(kInvReelectionOverdue) + ": " +
                          std::move(what));
  }
}

std::int64_t LeaseMonitor::CoverMax() const {
  std::int64_t m = -1;
  for (const auto& [node, until] : cover_) m = std::max(m, until);
  return m;
}

void LeaseMonitor::Integrate(const sim::RunInspect& in, sim::Time now) {
  const std::int64_t t = now.ticks();
  if (t <= last_now_) return;  // controlled runs may replay time order
  const std::int64_t cover = CoverMax();
  // Instants s <= cover are covered, so [last_now_, t) contributes its
  // overlap with (cover, t), clamped to the service window.
  const std::int64_t from = std::max(last_now_, cover + 1);
  const std::int64_t to = std::min(t, opt_.horizon.ticks());
  if (to > from) unavailable_ticks_ += to - from;
  if (!gap_open_ && cover < t) {
    // Coverage lapsed somewhere inside the interval: the gap began the
    // instant after the last lease ran out (or was dropped).
    gap_open_ = true;
    gap_start_ = std::max(cover + 1, last_now_);
    overdue_reported_ = false;
  }
  if (gap_open_ && !overdue_reported_ &&
      opt_.reelection_window.ticks() > 0) {
    const std::int64_t w = opt_.reelection_window.ticks();
    if (gap_start_ + w <= opt_.horizon.ticks() && t - gap_start_ > w) {
      overdue_reported_ = true;
      std::ostringstream os;
      os << "coverage gap open since t=" << gap_start_
         << " still unclosed at t=" << t << " (window " << w << " ticks)";
      Violate(in, os.str());
    }
  }
  last_now_ = t;
}

void LeaseMonitor::CloseSegment(sim::NodeId node, sim::Time at) {
  auto it = open_segment_.find(node);
  if (it == open_segment_.end()) return;
  timeline_[it->second].dropped_at = at;
  open_segment_.erase(it);
}

void LeaseMonitor::ObserveTarget(sim::NodeId target,
                                 const sim::RunInspect& in) {
  const std::int64_t t = in.now.ticks();
  std::optional<sim::ProtocolObservables::LeaseClaim> claim;
  if (!(*in.failed)[target]) claim = in.process(target).Observe().lease;
  if (claim.has_value() && claim->deadline.ticks() >= t) {
    cover_[target] = claim->deadline.ticks();
    const auto ct = claimed_term_.find(target);
    if (ct == claimed_term_.end() || ct->second != claim->term) {
      CloseSegment(target, in.now);  // the previous term's reign ended
      claimed_term_[target] = claim->term;
      if (timeline_.size() < opt_.max_timeline) {
        open_segment_[target] = timeline_.size();
        timeline_.push_back({target, claim->term, in.now, claim->deadline,
                             sim::Time::Max()});
      }
    } else {
      const auto os = open_segment_.find(target);
      if (os != open_segment_.end()) {
        Segment& seg = timeline_[os->second];
        seg.last_deadline = std::max(seg.last_deadline, claim->deadline);
      }
    }
  } else {
    // No live, unexpired claim: the holder stepped down, crashed, or
    // noticed expiry. Its coverage ends now (natural expiry keeps the
    // earlier deadline — min() never extends).
    const auto cv = cover_.find(target);
    if (cv != cover_.end()) cv->second = std::min(cv->second, t);
    if (claimed_term_.erase(target) > 0) CloseSegment(target, in.now);
  }
}

void LeaseMonitor::AfterEvent(sim::NodeId target, const sim::RunInspect& in) {
  Integrate(in, in.now);
  ObserveTarget(target, in);
  if (gap_open_ && CoverMax() >= last_now_) {
    // A fresh unexpired claim restored service at this instant.
    gap_open_ = false;
    const std::int64_t len = std::max<std::int64_t>(last_now_ - gap_start_, 0);
    election_latency_.Add(static_cast<std::uint64_t>(len));
    if (!overdue_reported_ && opt_.reelection_window.ticks() > 0 &&
        len > opt_.reelection_window.ticks() &&
        gap_start_ + opt_.reelection_window.ticks() <=
            opt_.horizon.ticks()) {
      overdue_reported_ = true;
      std::ostringstream os;
      os << "coverage gap from t=" << gap_start_ << " closed only at t="
         << last_now_ << " (" << len << " ticks > window "
         << opt_.reelection_window.ticks() << ")";
      Violate(in, os.str());
    }
  }
  if (opt_.chained != nullptr) opt_.chained->AfterEvent(target, in);
}

void LeaseMonitor::AtQuiescence(const sim::RunInspect& in) {
  Integrate(in, in.now);
  if (gap_open_ && !overdue_reported_ &&
      opt_.reelection_window.ticks() > 0 &&
      gap_start_ + opt_.reelection_window.ticks() <= opt_.horizon.ticks()) {
    // Nothing can close the gap after the queue drained; an open
    // non-exempt gap is a failed re-election regardless of its length.
    overdue_reported_ = true;
    std::ostringstream os;
    os << "coverage gap open since t=" << gap_start_
       << " never closed (quiesced at t=" << in.now.ticks() << ")";
    Violate(in, os.str());
  }
  if (opt_.chained != nullptr) opt_.chained->AtQuiescence(in);
}

std::string LeaseMonitor::Summary() const {
  std::string out;
  for (const auto& v : violations_) {
    if (!out.empty()) out += "; ";
    out += v;
  }
  return out;
}

}  // namespace celect::analysis
