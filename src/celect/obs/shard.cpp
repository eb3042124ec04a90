#include "celect/obs/shard.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "celect/obs/fields.h"
#include "celect/obs/trace_inspect.h"

namespace celect::obs {

namespace {

constexpr FlightKind kAllFlightKinds[] = {
    FlightKind::kSessionStart, FlightKind::kEstablished,
    FlightKind::kEpochAdopt,   FlightKind::kRetransmit,
    FlightKind::kHelloRetry,   FlightKind::kSuspectBegin,
    FlightKind::kSuspectEnd,   FlightKind::kWindowStall,
    FlightKind::kResetSent,    FlightKind::kResetReceived,
    FlightKind::kVersionMismatch,
};

using sim::TraceRecord;

// Problem lines name the shard and the record; the list stops at 50,
// which is enough to act on.
void AddProblem(std::vector<std::string>* problems, std::size_t si,
                const TraceShard& shard, std::size_t record,
                const char* why) {
  if (problems->size() >= 50) return;
  std::ostringstream os;
  os << "shard " << si << " (node " << shard.node << " epoch "
     << shard.epoch << ") record " << record << ": " << why;
  problems->push_back(os.str());
}

}  // namespace

const char* ToString(FlightKind k) {
  switch (k) {
    case FlightKind::kSessionStart: return "session_start";
    case FlightKind::kEstablished: return "established";
    case FlightKind::kEpochAdopt: return "epoch_adopt";
    case FlightKind::kRetransmit: return "retransmit";
    case FlightKind::kHelloRetry: return "hello_retry";
    case FlightKind::kSuspectBegin: return "suspect_begin";
    case FlightKind::kSuspectEnd: return "suspect_end";
    case FlightKind::kWindowStall: return "window_stall";
    case FlightKind::kResetSent: return "reset_sent";
    case FlightKind::kResetReceived: return "reset_received";
    case FlightKind::kVersionMismatch: return "version_mismatch";
  }
  return "unknown";
}

std::optional<FlightKind> FlightKindFromName(const std::string& name) {
  for (FlightKind k : kAllFlightKinds) {
    if (name == ToString(k)) return k;
  }
  return std::nullopt;
}

// --- FlightRecorder -------------------------------------------------

FlightRecorder::FlightRecorder(std::size_t cap)
    : ring_(cap < 1 ? 1 : cap) {}

void FlightRecorder::Note(std::uint64_t at, std::uint32_t peer,
                          FlightKind kind, std::uint64_t a,
                          std::uint64_t b) {
  ring_[seen_ % ring_.size()] = FlightEvent{at, peer, kind, a, b};
  ++seen_;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> out;
  const std::size_t n = seen_ < ring_.size()
                            ? static_cast<std::size_t>(seen_)
                            : ring_.size();
  out.reserve(n);
  const std::uint64_t first = seen_ - n;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(first + i) % ring_.size()]);
  }
  return out;
}

// --- MetricsRegistry ------------------------------------------------

void MetricsRegistry::AddCounter(const std::string& name,
                                 std::uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::MergeHistogram(const std::string& name,
                                     const Histogram& h) {
  if (h.count() == 0) return;
  histograms_[name].Merge(h);
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& o) {
  for (const auto& [name, v] : o.counters_) counters_[name] += v;
  for (const auto& [name, h] : o.histograms_) MergeHistogram(name, h);
}

std::string MetricsRegistry::SerializeCompact() const {
  if (Empty()) return "-";
  std::ostringstream os;
  bool wrote = false;
  if (!counters_.empty()) {
    os << "c:";
    bool first = true;
    for (const auto& [name, v] : counters_) {
      if (!first) os << ",";
      os << name << "=" << v;
      first = false;
    }
    wrote = true;
  }
  if (!histograms_.empty()) {
    if (wrote) os << " ";
    os << "h:";
    bool first = true;
    for (const auto& [name, h] : histograms_) {
      if (!first) os << ",";
      os << name << "=" << h.count() << ";" << h.sum() << ";" << h.min()
         << ";" << h.max() << ";";
      const std::size_t used = h.BucketsUsed();
      for (std::size_t b = 0; b < used; ++b) {
        if (b > 0) os << ":";
        os << h.buckets()[b];
      }
      first = false;
    }
  }
  return os.str();
}

std::optional<MetricsRegistry> MetricsRegistry::ParseCompact(
    const std::string& line) {
  MetricsRegistry reg;
  if (line == "-") return reg;
  std::istringstream in(line);
  std::string section;
  while (in >> section) {
    if (section.rfind("c:", 0) == 0) {
      for (const std::string& item : SplitOn(section.substr(2), ',')) {
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0) return std::nullopt;
        const auto v = ParseField<std::uint64_t>(item.substr(eq + 1));
        if (!v) return std::nullopt;
        reg.counters_[item.substr(0, eq)] += *v;
      }
    } else if (section.rfind("h:", 0) == 0) {
      for (const std::string& item : SplitOn(section.substr(2), ',')) {
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0) return std::nullopt;
        const std::string name = item.substr(0, eq);
        const auto parts = SplitOn(item.substr(eq + 1), ';');
        if (parts.size() != 5) return std::nullopt;
        const auto count = ParseField<std::uint64_t>(parts[0]);
        const auto sum = ParseField<std::uint64_t>(parts[1]);
        const auto min = ParseField<std::uint64_t>(parts[2]);
        const auto max = ParseField<std::uint64_t>(parts[3]);
        if (!count || !sum || !min || !max) return std::nullopt;
        std::vector<std::uint64_t> buckets;
        if (!parts[4].empty()) {
          for (const std::string& b : SplitOn(parts[4], ':')) {
            const auto bv = ParseField<std::uint64_t>(b);
            if (!bv) return std::nullopt;
            buckets.push_back(*bv);
          }
        }
        auto h = Histogram::FromParts(buckets, *count, *sum, *min, *max);
        if (!h) return std::nullopt;
        reg.MergeHistogram(name, *h);
      }
    } else {
      return std::nullopt;
    }
  }
  // Only the canonical spelling is accepted (sorted unique names, no
  // empty histogram, no trailing zero bucket), so a snapshot
  // round-trips byte for byte.
  if (reg.SerializeCompact() != line) return std::nullopt;
  return reg;
}

// --- shard serialization --------------------------------------------

std::string SerializeShard(const TraceShard& shard) {
  std::ostringstream os;
  os << "#shard v1 node=" << shard.node << " epoch=" << shard.epoch
     << " complete=" << (shard.complete ? 1 : 0)
     << " dropped=" << shard.dropped << " label=" << shard.label << "\n";
  os << "#metrics " << shard.metrics.SerializeCompact() << "\n";
  for (const FlightEvent& f : shard.flight) {
    os << "#flight at=" << f.at << " peer=" << f.peer
       << " kind=" << ToString(f.kind) << " a=" << f.a << " b=" << f.b
       << "\n";
  }
  for (const auto& r : shard.records) os << SerializeRecord(r) << "\n";
  os << "#end shard\n";
  return os.str();
}

std::optional<std::vector<TraceShard>> ParseShards(const std::string& text,
                                                   std::string* error) {
  std::vector<TraceShard> out;
  std::optional<TraceShard> cur;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  const auto fail = [&](const std::string& why) {
    if (error) {
      std::ostringstream os;
      os << "line " << lineno << ": " << why;
      *error = os.str();
    }
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line.rfind("#shard ", 0) == 0) {
      if (cur) return fail("shard not terminated before next '#shard'");
      const std::size_t label_pos = line.find(" label=");
      if (label_pos == std::string::npos) {
        return fail("shard header missing label");
      }
      const auto tok = SplitOn(line.substr(0, label_pos), ' ');
      if (tok.size() != 6) return fail("malformed shard header");
      if (tok[1] != "v1") return fail("unknown shard version");
      const auto node = TakeField(tok[2], "node");
      const auto epoch = TakeField(tok[3], "epoch");
      const auto complete = TakeField(tok[4], "complete");
      const auto dropped = TakeField(tok[5], "dropped");
      if (!node || !epoch || !complete || !dropped) {
        return fail("malformed shard header field");
      }
      const auto node_v = ParseField<sim::NodeId>(*node);
      const auto epoch_v = ParseField<std::uint64_t>(*epoch);
      const auto complete_v = ParseField<std::uint64_t>(*complete);
      const auto dropped_v = ParseField<std::uint64_t>(*dropped);
      if (!node_v || !epoch_v || !complete_v || *complete_v > 1 ||
          !dropped_v) {
        return fail("bad shard header field value");
      }
      TraceShard s;
      s.node = *node_v;
      s.epoch = *epoch_v;
      s.complete = *complete_v == 1;
      s.dropped = *dropped_v;
      s.label = line.substr(label_pos + 7);
      cur = std::move(s);
      continue;
    }
    if (!cur) return fail("content outside a '#shard' block");
    if (line.rfind("#metrics ", 0) == 0) {
      auto reg = MetricsRegistry::ParseCompact(line.substr(9));
      if (!reg) return fail("malformed metrics line");
      cur->metrics = std::move(*reg);
      continue;
    }
    if (line.rfind("#flight ", 0) == 0) {
      const auto tok = SplitOn(line, ' ');
      if (tok.size() != 6) return fail("malformed flight line");
      const auto at = TakeField(tok[1], "at");
      const auto peer = TakeField(tok[2], "peer");
      const auto kind = TakeField(tok[3], "kind");
      const auto a = TakeField(tok[4], "a");
      const auto b = TakeField(tok[5], "b");
      if (!at || !peer || !kind || !a || !b) {
        return fail("malformed flight field");
      }
      const auto at_v = ParseField<std::uint64_t>(*at);
      const auto peer_v = ParseField<std::uint32_t>(*peer);
      const auto kind_v = FlightKindFromName(*kind);
      const auto a_v = ParseField<std::uint64_t>(*a);
      const auto b_v = ParseField<std::uint64_t>(*b);
      if (!at_v || !peer_v || !kind_v || !a_v || !b_v) {
        return fail("bad flight field value");
      }
      cur->flight.push_back(FlightEvent{*at_v, *peer_v, *kind_v, *a_v, *b_v});
      continue;
    }
    if (line == "#end shard") {
      out.push_back(std::move(*cur));
      cur.reset();
      continue;
    }
    std::string why;
    auto r = ParseRecordLine(line, &why);
    if (!r) return fail(why);
    cur->records.push_back(*r);
  }
  if (cur) return fail("unterminated shard at end of input");
  return out;
}

// --- ShardReducer ---------------------------------------------------

namespace {

// Total order so the merged output is independent of arrival order:
// (node, epoch) first, then "most complete wins" keys, then the full
// serialized form as the ultimate tie-break.
bool ShardLess(const TraceShard& a, const TraceShard& b) {
  if (a.node != b.node) return a.node < b.node;
  if (a.epoch != b.epoch) return a.epoch < b.epoch;
  if (a.complete != b.complete) return !a.complete;
  if (a.records.size() != b.records.size()) {
    return a.records.size() < b.records.size();
  }
  if (a.flight.size() != b.flight.size()) {
    return a.flight.size() < b.flight.size();
  }
  return SerializeShard(a) < SerializeShard(b);
}

}  // namespace

void ShardReducer::Add(TraceShard shard) {
  shards_.push_back(std::move(shard));
  ++added_;
  sorted_ = false;
}

const std::vector<TraceShard>& ShardReducer::Merged() const {
  if (!sorted_) {
    std::sort(shards_.begin(), shards_.end(), ShardLess);
    // Duplicate flushes of one incarnation: keep the most complete
    // (greatest in ShardLess order), which a later flush strictly is.
    std::vector<TraceShard> out;
    for (auto& s : shards_) {
      if (!out.empty() && out.back().node == s.node &&
          out.back().epoch == s.epoch) {
        out.back() = std::move(s);
      } else {
        out.push_back(std::move(s));
      }
    }
    shards_ = std::move(out);
    sorted_ = true;
  }
  return shards_;
}

std::string ShardReducer::SerializeMerged() const {
  std::ostringstream os;
  for (const TraceShard& s : Merged()) os << SerializeShard(s);
  return os.str();
}

MetricsRegistry ShardReducer::MergedMetrics() const {
  MetricsRegistry reg;
  for (const TraceShard& s : Merged()) reg.MergeFrom(s.metrics);
  return reg;
}

// --- validation -----------------------------------------------------

std::vector<TraceShard> ShardsFromRecords(
    const std::vector<sim::TraceRecord>& records,
    std::vector<std::string>* problems) {
  std::map<sim::NodeId, TraceShard> by_node;
  std::unordered_set<std::uint64_t> minted;
  // (node, index in its shard) of each outcome seen before its send.
  std::vector<std::pair<sim::NodeId, std::size_t>> early;
  for (const TraceRecord& r : records) {
    TraceShard& shard = by_node[r.node];
    if (r.kind == TraceRecord::Kind::kSend) {
      minted.insert(r.mid);
    } else if (IsMessageOutcome(r.kind) && r.mid != 0 &&
               minted.count(r.mid) == 0) {
      early.emplace_back(r.node, shard.records.size());
    }
    shard.records.push_back(r);
  }
  std::vector<TraceShard> shards;
  shards.reserve(by_node.size());
  for (auto& [node, shard] : by_node) {
    shard.node = node;
    shard.complete = true;
    shards.push_back(std::move(shard));
  }
  for (const auto& [node, idx] : early) {
    const auto it = std::lower_bound(
        shards.begin(), shards.end(), node,
        [](const TraceShard& s, sim::NodeId n) { return s.node < n; });
    AddProblem(problems, static_cast<std::size_t>(it - shards.begin()), *it,
               idx, "outcome precedes its send");
  }
  return shards;
}

std::vector<std::string> CheckShards(const std::vector<TraceShard>& shards,
                                     bool expect_fifo) {
  std::vector<std::string> problems;
  const auto problem = [&problems, &shards](std::size_t si, std::size_t i,
                                            const char* why) {
    AddProblem(&problems, si, shards[si], i, why);
  };

  // Nodes with an incomplete shard: their unflushed tail is the one
  // legitimate source of outcomes whose send no shard contains.
  std::set<sim::NodeId> incomplete_nodes;
  for (const TraceShard& s : shards) {
    if (!s.complete) incomplete_nodes.insert(s.node);
  }

  struct SendRef {
    std::size_t shard;
    std::size_t idx;  // position within the sender's shard
    std::uint64_t clock;
  };
  std::unordered_map<std::uint64_t, SendRef> send_of;

  // Pass 1: per-shard clock discipline + the global send index. Clocks
  // are per incarnation — a restarted node's shard starts over at 0.
  for (std::size_t si = 0; si < shards.size(); ++si) {
    const TraceShard& shard = shards[si];
    std::uint64_t last_clock = 0;
    std::uint64_t last_ticked = 0;
    bool have_clock = false;
    bool have_ticked = false;
    for (std::size_t i = 0; i < shard.records.size(); ++i) {
      const auto& r = shard.records[i];
      if (r.node != shard.node) problem(si, i, "record from a foreign node");
      if (r.kind == TraceRecord::Kind::kSend) {
        if (r.mid == 0) {
          problem(si, i, "send without a mid");
        } else if (!send_of.emplace(r.mid, SendRef{si, i, r.clock})
                        .second) {
          problem(si, i, "mid minted twice across shards");
        }
      }
      if (have_clock && r.clock < last_clock) {
        problem(si, i, "node clock went backwards");
      }
      last_clock = r.clock;
      have_clock = true;
      if (IsClocked(r.kind)) {
        if (r.clock == 0) problem(si, i, "clocked event with clock 0");
        if (have_ticked && r.clock <= last_ticked) {
          problem(si, i, "clocked event did not advance the node clock");
        }
        last_ticked = r.clock;
        have_ticked = true;
      }
    }
  }

  // Pass 2: every outcome pairs with a send; deliveries also obey the
  // cross-shard join and per-session FIFO. A session is a (sender
  // incarnation, receiver incarnation) pair; the reliable layer
  // promises send-order delivery within it.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> fifo_last;
  for (std::size_t si = 0; si < shards.size(); ++si) {
    const TraceShard& shard = shards[si];
    for (std::size_t i = 0; i < shard.records.size(); ++i) {
      const auto& r = shard.records[i];
      if (!IsMessageOutcome(r.kind)) continue;
      if (r.mid == 0) {
        problem(si, i, "message outcome without a mid");
        continue;
      }
      const auto it = send_of.find(r.mid);
      if (it == send_of.end()) {
        if (incomplete_nodes.count(r.peer) == 0) {
          problem(si, i, "outcome with no matching send in any shard");
        }
        continue;
      }
      if (r.kind != TraceRecord::Kind::kDeliver) continue;
      const SendRef& s = it->second;
      if (r.clock <= s.clock) {
        problem(si, i, "delivery clock does not exceed the send clock");
      }
      if (expect_fifo) {
        const auto key = std::make_pair(s.shard, si);
        auto [fit, fresh] = fifo_last.try_emplace(key, s.idx);
        if (!fresh) {
          if (s.idx <= fit->second) {
            problem(si, i,
                    "per-session FIFO violated (delivery overtook an "
                    "earlier send)");
          }
          fit->second = s.idx;
        }
      }
    }
  }
  return problems;
}

}  // namespace celect::obs
