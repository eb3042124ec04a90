// Cross-process observability tests: the flight recorder ring, metrics
// registry wire form, shard serialize/parse round trips, the
// order-independent reducer, CheckShards semantics (including the
// SIGKILL flush-gap tolerance), and the end-to-end sim pipeline —
// traced elections whose merged shard file and merged Perfetto timeline
// are bit-identical per seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "celect/harness/experiment.h"
#include "celect/net/cluster.h"
#include "celect/obs/fields.h"
#include "celect/obs/shard.h"
#include "celect/obs/trace_export.h"
#include "celect/obs/trace_inspect.h"
#include "celect/proto/nosod/fault_tolerant.h"
#include "celect/proto/sod/protocol_c.h"
#include "celect/util/rng.h"

namespace celect::obs {
namespace {

using net::ChaosEvent;
using net::ClusterConfig;
using net::ClusterResult;
using proto::nosod::MakeFaultTolerant;

TEST(FlightRecorderTest, KeepsNewestEventsWhenFull) {
  FlightRecorder rec(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.Note(i, static_cast<std::uint32_t>(i), FlightKind::kRetransmit, i);
  }
  EXPECT_EQ(rec.seen(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  auto snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest retained first: events 6..9.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].at, 6 + i);
    EXPECT_EQ(snap[i].a, 6 + i);
  }
}

TEST(FlightRecorderTest, PartialFillSnapshotsInOrder) {
  FlightRecorder rec(8);
  rec.Note(1, 2, FlightKind::kSessionStart, 42);
  rec.Note(5, 3, FlightKind::kSuspectBegin, 2);
  EXPECT_EQ(rec.dropped(), 0u);
  auto snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].kind, FlightKind::kSessionStart);
  EXPECT_EQ(snap[1].kind, FlightKind::kSuspectBegin);
}

TEST(MetricsRegistryTest, CompactRoundTrip) {
  // Recorded out of name order, through handles and names alike; a
  // zero still counts as recorded. The expected line is the wire form
  // distributed_demo's children have always piped up.
  MetricsRegistry m;
  const MetricsRegistry::Handle broadcasters =
      m.Intern("proto.f.broadcasters");
  m.Add("net.delivered", 100);
  m.Add(broadcasters, 1);
  m.Add("node.trace_dropped", 0);
  m.Add("net.delivered", 23);
  m.Intern("never.recorded");
  Histogram h;
  h.Add(3);
  h.Add(900);
  m.MergeHistogram("rtt_us", h);
  Histogram backoff;
  backoff.Add(87127);
  m.MergeHistogram("backoff_us", backoff);
  const std::string wire = m.SerializeCompact();
  EXPECT_EQ(wire,
            "c:net.delivered=123,node.trace_dropped=0,proto.f.broadcasters=1"
            " h:backoff_us=1;87127;87127;87127;"
            "0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:0:1,"
            "rtt_us=2;903;3;900;0:0:1:0:0:0:0:0:0:0:1");
  auto back = MetricsRegistry::ParseCompact(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
  EXPECT_EQ(back->SerializeCompact(), wire);
}

TEST(MetricsRegistryTest, SignedValuesAndRunningMax) {
  MetricsRegistry m;
  m.Max("gauge", -5);  // the first record sets the cell outright
  m.Max("gauge", -9);
  EXPECT_EQ(m.Counter("gauge"), -5);
  m.Max("gauge", 4);
  m.Add("debt", -3);
  EXPECT_EQ(m.SerializeCompact(), "c:debt=-3,gauge=4");
  auto back = MetricsRegistry::ParseCompact("c:debt=-3,gauge=4");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
  EXPECT_EQ(m.Counter("absent"), 0);
}

TEST(MetricsRegistryTest, EmptyRegistrySerializesToDash) {
  MetricsRegistry m;
  EXPECT_EQ(m.SerializeCompact(), "-");
  auto back = MetricsRegistry::ParseCompact("-");
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->Empty());
}

TEST(MetricsRegistryTest, MergeIsCommutative) {
  MetricsRegistry a, b;
  a.Add("x", 1);
  Histogram ha;
  ha.Add(10);
  a.MergeHistogram("h", ha);
  b.Add("x", 2);
  b.Add("y", 5);
  Histogram hb;
  hb.Add(1000);
  b.MergeHistogram("h", hb);
  MetricsRegistry ab = a;
  ab.MergeFrom(b);
  MetricsRegistry ba = b;
  ba.MergeFrom(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.Counter("x"), 3);
}

// --- seeded mutational fuzzing of the registry's parsers ---------------
//
// A fixed budget, so it runs in every ctest pass and under the
// sanitizer build. Mutations: bit flips, byte insertions, splices of
// two corpus lines, numbers swapped for range boundaries, and
// truncation at every offset.

std::vector<std::string> CompactCorpus() {
  MetricsRegistry counters;
  counters.Add("net.delivered", 123);
  counters.Add("proto.f.broadcasters", 1);
  counters.Add("sim.low", std::numeric_limits<std::int64_t>::min());
  counters.Add("sim.high", std::numeric_limits<std::int64_t>::max());
  counters.Add("z", 0);
  MetricsRegistry histograms;
  Histogram h;
  for (std::uint64_t v : {0u, 1u, 3u, 900u, 65536u}) h.Add(v);
  histograms.MergeHistogram("rtt_us", h);
  Histogram wide;
  wide.Add(std::numeric_limits<std::uint64_t>::max());
  histograms.MergeHistogram("wide", wide);
  MetricsRegistry both = counters;
  both.MergeFrom(histograms);
  return {"-", counters.SerializeCompact(), histograms.SerializeCompact(),
          both.SerializeCompact()};
}

std::string Mutate(Rng& rng, const std::vector<std::string>& corpus) {
  std::string s = corpus[rng.NextBelow(corpus.size())];
  const auto at = [&rng](const std::string& t) {
    return static_cast<std::size_t>(rng.NextBelow(t.size() + 1));
  };
  switch (rng.NextBelow(4)) {
    case 0:  // bit flip
      if (!s.empty()) {
        s[rng.NextBelow(s.size())] ^= static_cast<char>(1 << rng.NextBelow(8));
      }
      break;
    case 1: {  // insert a byte of the format's alphabet, or any byte
      static const std::string kAlphabet = "0123456789-+=,;: ch";
      const char c = rng.NextBool()
                         ? kAlphabet[rng.NextBelow(kAlphabet.size())]
                         : static_cast<char>(rng.NextBelow(256));
      s.insert(at(s), 1, c);
      break;
    }
    case 2: {  // splice: a prefix of s, a suffix of another line
      const std::string& o = corpus[rng.NextBelow(corpus.size())];
      s = s.substr(0, at(s)) + o.substr(at(o));
      break;
    }
    default: {  // replace one number with a range boundary
      static const char* const kBounds[] = {
          "0", "1", "-1", "9223372036854775807", "9223372036854775808",
          "-9223372036854775808", "18446744073709551615",
          "18446744073709551616", "65", "66"};
      const std::size_t b = s.find_first_of("0123456789", at(s));
      if (b == std::string::npos) break;
      const std::size_t e = s.find_first_not_of("0123456789", b);
      s.replace(b, e == std::string::npos ? std::string::npos : e - b,
                kBounds[rng.NextBelow(std::size(kBounds))]);
      break;
    }
  }
  return s;
}

TEST(MetricsRegistryFuzzTest, AcceptedCompactLinesRoundTrip) {
  const std::vector<std::string> corpus = CompactCorpus();
  std::size_t accepted = 0;
  const auto check = [&accepted](const std::string& line) {
    if (auto reg = MetricsRegistry::ParseCompact(line)) {
      ++accepted;
      EXPECT_EQ(reg->SerializeCompact(), line);
    }
  };
  for (const std::string& line : corpus) {
    for (std::size_t i = 0; i <= line.size(); ++i) check(line.substr(0, i));
  }
  Rng rng(1717);
  for (int trial = 0; trial < 20000; ++trial) {
    std::string s = Mutate(rng, corpus);
    // Stack a second mutation on a quarter of the inputs.
    if (rng.NextBelow(4) == 0) s = Mutate(rng, {s});
    check(s);
  }
  // Digit flips and in-range boundaries stay canonical: not vacuous.
  EXPECT_GT(accepted, 1000u);
}

TEST(MetricsRegistryFuzzTest, HistogramFromPartsRoundTripsThroughCompact) {
  Rng rng(4242);
  std::size_t accepted = 0;
  const auto value = [&rng]() -> std::uint64_t {
    switch (rng.NextBelow(4)) {
      case 0: return 0;
      case 1: return rng.NextBelow(8);
      case 2:
        return std::numeric_limits<std::uint64_t>::max() - rng.NextBelow(2);
      default: return rng.Next();
    }
  };
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::uint64_t> buckets(
        rng.NextBelow(Histogram::kBuckets + 3));
    std::uint64_t total = 0;
    for (auto& b : buckets) {
      b = rng.NextBelow(3) == 0 ? value() : rng.NextBelow(4);
      total += b;
    }
    const std::uint64_t count = rng.NextBelow(4) == 0 ? value() : total;
    const std::uint64_t a = value(), b = value();
    const std::uint64_t min = rng.NextBool() ? std::min(a, b) : a;
    const std::uint64_t max = rng.NextBool() ? std::max(a, b) : b;
    auto h = Histogram::FromParts(buckets, count, value(), min, max);
    if (!h) continue;
    ++accepted;
    // The buckets hold exactly `count` samples, with no wrap-around.
    unsigned __int128 held = 0;
    for (std::uint64_t v : h->buckets()) held += v;
    EXPECT_EQ(held, count);
    EXPECT_EQ(h->count(), count);
    EXPECT_LE(h->BucketsUsed(), Histogram::kBuckets);
    EXPECT_LE(h->ApproxQuantile(0.5), h->max());
    MetricsRegistry reg;
    reg.MergeHistogram("h", *h);
    const std::string line = reg.SerializeCompact();
    auto back = MetricsRegistry::ParseCompact(line);
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(*back, reg) << line;
  }
  EXPECT_GT(accepted, 1000u);
}

TraceShard SampleShard(std::uint32_t node, std::uint64_t epoch,
                       std::size_t records) {
  TraceShard s;
  s.node = node;
  s.epoch = epoch;
  s.complete = true;
  s.label = "id=" + std::to_string(1001 + node);
  for (std::size_t i = 0; i < records; ++i) {
    sim::TraceRecord r{};
    r.kind = sim::TraceRecord::Kind::kSend;
    r.at = sim::Time::FromTicks(static_cast<std::int64_t>(i) * 100);
    r.node = node;
    r.peer = node + 1;
    r.port = 1;
    r.type = 9;
    r.seq = i;
    r.clock = i + 1;
    r.mid = (std::uint64_t{epoch} << 20) + i + 1;
    s.records.push_back(r);
  }
  s.flight.push_back(FlightEvent{7, node + 1, FlightKind::kSessionStart,
                                 epoch, 0});
  s.metrics.Add("net.delivered", static_cast<std::int64_t>(records));
  return s;
}

TEST(TraceShardTest, SerializeParseRoundTrip) {
  TraceShard s = SampleShard(3, 77, 5);
  s.complete = false;
  s.dropped = 2;
  s.label = "id=1004 run=a b";  // label may contain spaces
  std::string text = SerializeShard(s);
  std::string error;
  auto parsed = ParseShards(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 1u);
  const TraceShard& p = (*parsed)[0];
  EXPECT_EQ(p.node, s.node);
  EXPECT_EQ(p.epoch, s.epoch);
  EXPECT_EQ(p.complete, s.complete);
  EXPECT_EQ(p.dropped, s.dropped);
  EXPECT_EQ(p.label, s.label);
  EXPECT_EQ(p.flight, s.flight);
  EXPECT_EQ(p.metrics, s.metrics);
  ASSERT_EQ(p.records.size(), s.records.size());
  EXPECT_EQ(SerializeShard(p), text);
}

TEST(TraceShardTest, ParseRejectsTruncatedShard) {
  std::string text = SerializeShard(SampleShard(0, 1, 3));
  // Drop the "#end shard" terminator: a half-written file must not
  // silently parse as a complete shard.
  text.resize(text.rfind("#end shard"));
  std::string error;
  EXPECT_FALSE(ParseShards(text, &error).has_value());
  EXPECT_NE(error.find("shard"), std::string::npos) << error;
}

TEST(ShardReducerTest, ArrivalOrderDoesNotChangeBytes) {
  std::vector<TraceShard> shards = {SampleShard(2, 20, 4),
                                    SampleShard(0, 10, 3),
                                    SampleShard(1, 15, 6)};
  ShardReducer forward;
  for (const auto& s : shards) forward.Add(s);
  ShardReducer reverse;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    reverse.Add(*it);
  }
  EXPECT_EQ(forward.SerializeMerged(), reverse.SerializeMerged());
  EXPECT_EQ(ExportMergedChromeTrace(forward.Merged()),
            ExportMergedChromeTrace(reverse.Merged()));
}

TEST(ShardReducerTest, DuplicateFlushesCollapseToTheFullest) {
  // The same incarnation flushed twice: mid-run (3 records, incomplete)
  // then at exit (5 records, complete). Only the fuller one survives.
  TraceShard early = SampleShard(4, 99, 3);
  early.complete = false;
  TraceShard late = SampleShard(4, 99, 5);
  ShardReducer r;
  r.Add(late);
  r.Add(early);
  ASSERT_EQ(r.Merged().size(), 1u);
  EXPECT_EQ(r.Merged()[0].records.size(), 5u);
  EXPECT_TRUE(r.Merged()[0].complete);
  EXPECT_EQ(r.added(), 2u);
}

TEST(CheckShardsTest, FlagsCorruptedMerges) {
  std::vector<TraceShard> shards = {SampleShard(0, 10, 3),
                                    SampleShard(1, 20, 3)};
  EXPECT_TRUE(CheckShards(shards).empty());

  // Two sends minting the same mid across different shards.
  auto dup = shards;
  dup[1].records[0].mid = dup[0].records[0].mid;
  EXPECT_FALSE(CheckShards(dup).empty());

  // A clocked record that fails to advance the shard's Lamport clock.
  auto stale = shards;
  stale[0].records[2].clock = stale[0].records[1].clock;
  EXPECT_FALSE(CheckShards(stale).empty());
}

TEST(CheckShardsTest, OrphanDeliveryNeedsAnIncompleteSender) {
  TraceShard sender = SampleShard(0, 10, 1);
  TraceShard receiver;
  receiver.node = 1;
  receiver.epoch = 20;
  receiver.complete = true;
  sim::TraceRecord d{};
  d.kind = sim::TraceRecord::Kind::kDeliver;
  d.at = sim::Time::FromTicks(500);
  d.node = 1;
  d.peer = 0;
  d.port = 1;
  d.type = 9;
  d.seq = 0;
  d.clock = 9;
  d.mid = 0xDEAD0001;  // no shard holds the matching send
  receiver.records.push_back(d);

  // Every shard complete: the orphan is a real coherence violation.
  std::vector<TraceShard> complete = {sender, receiver};
  EXPECT_FALSE(CheckShards(complete).empty());

  // The sending node left an incomplete shard (SIGKILLed before its
  // final flush): the unmatched tail is the legitimate gap.
  sender.complete = false;
  std::vector<TraceShard> gap = {sender, receiver};
  EXPECT_TRUE(CheckShards(gap).empty());
}

TEST(CheckShardsTest, EveryOutcomeKindPairsWithASend) {
  // Drops, losses and duplicates carry their send's mid just as
  // deliveries do; an unminted or missing mid on any of them is flagged.
  // Only deliveries face the join and FIFO rules.
  const TraceShard sender = SampleShard(0, 10, 1);
  for (auto kind :
       {sim::TraceRecord::Kind::kDrop, sim::TraceRecord::Kind::kLoss,
        sim::TraceRecord::Kind::kDuplicate}) {
    TraceShard receiver;
    receiver.node = 1;
    receiver.epoch = 20;
    receiver.complete = true;
    sim::TraceRecord o{};
    o.kind = kind;
    o.node = 1;
    o.peer = 0;
    o.mid = sender.records[0].mid;
    receiver.records.push_back(o);
    EXPECT_TRUE(CheckShards({sender, receiver}).empty()) << ToString(kind);

    receiver.records[0].mid = 0xDEAD0001;
    auto problems = CheckShards({sender, receiver});
    ASSERT_EQ(problems.size(), 1u) << ToString(kind);
    EXPECT_NE(problems[0].find("no matching send"), std::string::npos)
        << problems[0];

    receiver.records[0].mid = 0;
    problems = CheckShards({sender, receiver});
    ASSERT_EQ(problems.size(), 1u) << ToString(kind);
    EXPECT_NE(problems[0].find("outcome without a mid"), std::string::npos)
        << problems[0];
  }
}

TEST(CheckShardsTest, OutcomeEndpointsMustMatchTheirSend) {
  // The trace of `celect_trace record --protocol=C --n=16 --seed=1`,
  // with node 4's delivery from peer 0 rewired to mid 2 — a message
  // node 1 sent to node 5. Its mid is minted, its clock exceeds the
  // send's, and it opens a fresh FIFO session, so only the endpoint
  // check can see it.
  harness::RunOptions o;
  o.n = 16;
  o.seed = 1;
  o.mapper = harness::MapperKind::kSenseOfDirection;
  const auto run = harness::RunElectionTraced(proto::sod::MakeProtocolC(), o);
  std::vector<std::string> problems;
  std::vector<TraceShard> shards = ShardsFromRecords(run.records, &problems);
  ASSERT_TRUE(problems.empty());
  ASSERT_TRUE(CheckShards(shards).empty());
  const auto find = [&shards](sim::NodeId node, sim::TraceRecord::Kind kind,
                              sim::NodeId peer) -> sim::TraceRecord* {
    for (TraceShard& s : shards) {
      if (s.node != node) continue;
      for (sim::TraceRecord& r : s.records) {
        if (r.kind == kind && r.peer == peer) return &r;
      }
    }
    return nullptr;
  };
  const sim::TraceRecord* send = find(1, sim::TraceRecord::Kind::kSend, 5);
  ASSERT_NE(send, nullptr);
  ASSERT_EQ(send->mid, 2u);
  sim::TraceRecord* recv = find(4, sim::TraceRecord::Kind::kDeliver, 0);
  ASSERT_NE(recv, nullptr);
  recv->mid = 2;
  problems = CheckShards(shards);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("outcome endpoints do not match its send"),
            std::string::npos)
      << problems[0];
}

// --- strict parsing -----------------------------------------------------

const char kRecordLine[] =
    "7 recv at=-5 node=4294967295 peer=0 port=3 type=65535 "
    "clock=18446744073709551615 mid=9 phase=doubling.-2";

TEST(StrictParseTest, RejectsSignsAndOutOfRangeValues) {
  std::string error;
  ASSERT_TRUE(ParseRecordLine(kRecordLine, &error).has_value()) << error;
  const char* const kRejected[] = {
      // Wider than the field's type (NodeId/Port are uint32, type is
      // uint16), or sign-prefixed.
      "0 send at=0 node=4294967297 peer=1 port=1 type=1 clock=1 mid=1 "
      "phase=none",
      "0 send at=0 node=-1 peer=1 port=1 type=1 clock=1 mid=1 phase=none",
      "0 send at=0 node=0 peer=1 port=1 type=70000 clock=1 mid=1 "
      "phase=none",
      "0 send at=+0 node=0 peer=1 port=1 type=1 clock=1 mid=1 phase=none",
      // Spellings the serializer never writes.
      "0 send at=-0 node=0 peer=1 port=1 type=1 clock=1 mid=1 phase=none",
      "0 send at=0 node=07 peer=1 port=1 type=1 clock=1 mid=1 phase=none",
      "0 send at=0 node=0 peer=1 port=1 type=1 clock=1 mid=1 "
      "phase=capture1.0",
      "0 send at=0  node=0 peer=1 port=1 type=1 clock=1 mid=1 phase=none",
      "0 send at=0 node=0 peer=1 port=1 type=1 clock=1 mid=1 phase=none ",
  };
  for (const char* line : kRejected) {
    EXPECT_FALSE(ParseRecordLine(line, &error).has_value()) << line;
  }

  const std::string signed_header =
      "#shard v1 node=+4294967299 epoch=+7 complete=1 dropped=0 label=x\n"
      "#metrics -\n#end shard\n";
  EXPECT_FALSE(ParseShards(signed_header, &error).has_value());
  EXPECT_FALSE(ParseShards("#shard v1 node=4294967296 epoch=7 complete=1 "
                           "dropped=0 label=x\n#metrics -\n#end shard\n",
                           &error)
                   .has_value());

  EXPECT_FALSE(MetricsRegistry::ParseCompact("c:a=+3").has_value());
  const char* const kNonCanonical[] = {"c:b=1,a=2", "c:a=1,a=2", "c:a=01",
                                      "h:x=0;0;0;0;",
                                      "c:a=1  h:x=1;1;1;1;0:1"};
  for (const char* compact : kNonCanonical) {
    EXPECT_FALSE(MetricsRegistry::ParseCompact(compact).has_value())
        << compact;
  }
}

TEST(StrictParseTest, AcceptedLinesRoundTripByteForByte) {
  // Every single-character edit of canonical input (newlines included)
  // and every swap of two adjacent lines either fails to parse or is
  // itself canonical: whatever the parsers accept, the serializers
  // write back unchanged.
  const auto edits = [](const std::string& text) {
    std::vector<std::string> out;
    for (std::size_t i = 0; i <= text.size(); ++i) {
      for (const char* ins : {"0", "1", "+", "-", " ", ".", ",", ":", "\n"}) {
        out.push_back(text.substr(0, i) + ins + text.substr(i));
      }
      if (i < text.size()) {
        out.push_back(text.substr(0, i) + text.substr(i + 1));
      }
    }
    const std::vector<std::string> lines = SplitOn(text, '\n');
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      std::vector<std::string> swapped = lines;
      std::swap(swapped[i], swapped[i + 1]);
      std::string joined = swapped[0];
      for (std::size_t j = 1; j < swapped.size(); ++j) {
        joined += "\n" + swapped[j];
      }
      out.push_back(joined);
    }
    return out;
  };

  std::size_t accepted = 0;
  for (const std::string& line : edits(kRecordLine)) {
    std::string error;
    if (auto r = ParseRecordLine(line, &error)) {
      ++accepted;
      EXPECT_EQ(SerializeRecord(*r), line);
    }
  }
  TraceShard shard = SampleShard(3, 77, 2);
  Histogram h;
  h.Add(5);
  h.Add(900);
  shard.metrics.MergeHistogram("rtt_us", h);
  const std::string blocks =
      SerializeShard(shard) + SerializeShard(SampleShard(4, 78, 1));
  for (const std::string& text : edits(blocks)) {
    std::string error;
    if (auto parsed = ParseShards(text, &error)) {
      ++accepted;
      std::string back;
      for (const TraceShard& s : *parsed) back += SerializeShard(s);
      EXPECT_EQ(back, text);
    }
  }
  // Digit edits, label edits and record swaps keep blocks canonical, so
  // the check above is not vacuous.
  EXPECT_GT(accepted, 100u);

  // A block is the header, one #metrics line, flight lines, then
  // records, in that order.
  std::string error;
  const std::string header =
      "#shard v1 node=1 epoch=1 complete=1 dropped=0 label=x\n";
  const std::string flight =
      "#flight at=0 peer=0 kind=retransmit a=0 b=0\n";
  const std::string record =
      "0 send at=0 node=1 peer=0 port=1 type=1 clock=1 mid=1 phase=none\n";
  EXPECT_TRUE(ParseShards(header + "#metrics -\n" + flight + record +
                              "#end shard\n",
                          &error))
      << error;
  for (const std::string& bad :
       {header + "#end shard\n",
        header + "#metrics -\n#metrics -\n#end shard\n",
        header + "#metrics -\n" + record + flight + "#end shard\n",
        header + "#metrics -\n#end shard",
        header + "#metrics -\n\n#end shard\n"}) {
    EXPECT_FALSE(ParseShards(bad, &error).has_value()) << bad;
  }
}

ClusterConfig TracedConfig() {
  ClusterConfig config;
  config.n = 6;
  config.seed = 11;
  config.link.loss = 0.05;
  config.trace = true;
  return config;
}

TEST(TracedElectionTest, ShardsMergeCleanAndBitIdenticalPerSeed) {
  ClusterConfig config = TracedConfig();
  ClusterResult first = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(first.agreed);
  ASSERT_EQ(first.shards.size(), config.n);

  ShardReducer forward;
  for (const auto& s : first.shards) forward.Add(s);
  auto problems = CheckShards(forward.Merged());
  for (const auto& p : problems) ADD_FAILURE() << p;

  // Rerun: the merged shard file and the merged Perfetto timeline are
  // pure functions of the seed.
  ClusterResult second = RunSimElection(config, MakeFaultTolerant(1));
  ShardReducer rerun;
  // Feed in reverse arrival order for good measure.
  for (auto it = second.shards.rbegin(); it != second.shards.rend(); ++it) {
    rerun.Add(*it);
  }
  EXPECT_EQ(forward.SerializeMerged(), rerun.SerializeMerged());
  EXPECT_EQ(ExportMergedChromeTrace(forward.Merged()),
            ExportMergedChromeTrace(rerun.Merged()));
}

TEST(TracedElectionTest, KillMidElectionRecoversTheVictimsShard) {
  ClusterConfig config = TracedConfig();
  config.n = 8;
  config.seed = 5;
  // Early kill + quick revival, so the revived incarnation is certain
  // to exist before the election can settle.
  config.chaos = {
      {5'000, 2, ChaosEvent::What::kKill},
      {20'000, 2, ChaosEvent::What::kRestart},
  };
  ClusterResult result = RunSimElection(config, MakeFaultTolerant(2));
  ASSERT_TRUE(result.agreed);
  // n surviving incarnations plus the killed one's dying flush.
  ASSERT_EQ(result.shards.size(), config.n + 1);

  // The victim's shard is incomplete and a second incarnation of the
  // same node exists under a different epoch.
  std::size_t node2 = 0, incomplete = 0;
  for (const auto& s : result.shards) {
    if (s.node == 2) ++node2;
    if (!s.complete) ++incomplete;
  }
  EXPECT_EQ(node2, 2u);
  EXPECT_EQ(incomplete, 1u);

  ShardReducer reducer;
  for (const auto& s : result.shards) reducer.Add(s);
  EXPECT_EQ(reducer.Merged().size(), config.n + 1);
  auto problems = CheckShards(reducer.Merged());
  for (const auto& p : problems) ADD_FAILURE() << p;
}

TEST(TracedElectionTest, TraceOffMintsNoShardsButStillAgrees) {
  ClusterConfig config = TracedConfig();
  config.trace = false;
  ClusterResult result = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(result.agreed);
  EXPECT_TRUE(result.shards.empty());
}

TEST(TracedElectionTest, SessionHistogramsReachTheClusterResult) {
  ClusterConfig config = TracedConfig();
  config.link.loss = 0.15;
  ClusterResult result = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(result.agreed);
  const MetricsRegistry m = result.metrics();
  const auto& h = m.histograms();
  EXPECT_EQ(h.count("rtt_us"), 1u);
  EXPECT_EQ(h.count("window_occupancy"), 1u);
  EXPECT_EQ(h.count("backoff_us"), 1u) << "15% loss must retransmit";
}

}  // namespace
}  // namespace celect::obs
