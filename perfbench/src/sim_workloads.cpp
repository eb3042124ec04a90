// The three workloads on the discrete-event simulator: sim_flood
// (protocol D), sim_capture (protocol C) and churn_storm (the lease
// service). Each round builds one network through harness::BuildNetwork,
// constructs a sim::Runtime over it and runs it to quiescence.
#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "celect/analysis/invariants.h"
#include "celect/analysis/lease_monitor.h"
#include "celect/harness/chaos.h"
#include "celect/harness/churn.h"
#include "celect/harness/experiment.h"
#include "celect/proto/nosod/lease_engine.h"
#include "celect/proto/nosod/protocol_d.h"
#include "celect/proto/sod/protocol_c.h"
#include "celect/sim/runtime.h"
#include "timed.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace celect;

// The spans a traced round adds to.
struct Tracing {
  ProcessTimes process;
  Span observer;
};

// One round: a timed election (or service case) and its verdict.
struct Round {
  sim::RunResult result;
  std::uint64_t setup_ns = 0;  // BuildNetwork + Runtime constructor
  std::uint64_t run_ns = 0;    // Runtime::Run
  std::uint64_t total_ns = 0;  // setup + run + teardown
  std::uint64_t elections = 1;
  std::string error;  // empty when every check passed
};

// Builds and runs one network; `check` sees the result and the
// network's identities and returns an error line or "".
template <typename Check>
Round RunOnce(const harness::RunOptions& ro,
              const sim::ProcessFactory& factory,
              sim::RunObserver* observer, Check&& check) {
  sim::RuntimeOptions rt;
  rt.max_events = ro.max_events;
  rt.observer = observer;
  Round r;
  const std::uint64_t t0 = NowNs();
  auto runtime = std::make_unique<sim::Runtime>(harness::BuildNetwork(ro),
                                                factory, rt);
  const std::uint64_t t1 = NowNs();
  r.result = runtime->Run();
  const std::uint64_t t2 = NowNs();
  r.error = check(r.result, runtime->config().identities);
  const std::uint64_t t3 = NowNs();
  runtime.reset();
  const std::uint64_t t4 = NowNs();
  r.setup_ns = t1 - t0;
  r.run_ns = t2 - t1;
  r.total_ns = (t2 - t0) + (t4 - t3);
  return r;
}

sim::ProcessFactory Wrap(sim::ProcessFactory f, Tracing* tracing) {
  return tracing == nullptr ? f
                            : TimedFactory(std::move(f), tracing->process);
}

// Protocol D, N = 1024, all awake at 0, unit delays, random port map
// and identities. D guarantees the largest identity wins when every
// node wakes at 0, and sends exactly 3N(N-1)/2 messages.
constexpr std::uint32_t kFloodN = 1024;

Round FloodRound(std::uint64_t seed, Tracing* tracing) {
  harness::RunOptions ro;
  ro.n = kFloodN;
  ro.seed = seed;
  ro.mapper = harness::MapperKind::kRandom;
  ro.delay = harness::DelayKind::kUnit;
  ro.wakeup = harness::WakeupKind::kAllAtZero;
  ro.identity = harness::IdentityKind::kRandomPermutation;
  return RunOnce(
      ro, Wrap(proto::nosod::MakeProtocolD(), tracing), nullptr,
      [](const sim::RunResult& res, const std::vector<sim::Id>& ids) {
        std::ostringstream e;
        const std::uint64_t n = kFloodN;
        const std::uint64_t want = 3 * n * (n - 1) / 2;
        const sim::Id max_id = *std::max_element(ids.begin(), ids.end());
        if (res.leader_declarations != 1) {
          e << "declarations=" << res.leader_declarations << " want 1; ";
        }
        if (!res.leader_id || *res.leader_id != max_id) {
          e << "leader is not the largest identity " << max_id << "; ";
        }
        if (res.total_messages != want) {
          e << "messages=" << res.total_messages << " want " << want << "; ";
        }
        if (res.events_processed != res.total_messages + n) {
          e << "events=" << res.events_processed << " want messages+N; ";
        }
        return e.str();
      });
}

// Protocol C with sense of direction, N = 2^16, random identities, all
// awake at 0. Every message is delivered once and every node woken
// once, so events = messages + N once the queue drains.
constexpr std::uint32_t kCaptureN = 1u << 16;

Round CaptureRound(std::uint64_t seed, Tracing* tracing) {
  harness::RunOptions ro;
  ro.n = kCaptureN;
  ro.seed = seed;
  ro.mapper = harness::MapperKind::kSenseOfDirection;
  ro.delay = harness::DelayKind::kUnit;
  ro.wakeup = harness::WakeupKind::kAllAtZero;
  ro.identity = harness::IdentityKind::kRandomPermutation;
  return RunOnce(
      ro, Wrap(proto::sod::MakeProtocolC(), tracing), nullptr,
      [](const sim::RunResult& res, const std::vector<sim::Id>& ids) {
        std::ostringstream e;
        if (res.leader_declarations != 1) {
          e << "declarations=" << res.leader_declarations << " want 1; ";
        }
        if (!res.leader_id || !res.leader_node ||
            *res.leader_node >= ids.size() ||
            ids[*res.leader_node] != *res.leader_id) {
          e << "leader is not one of the network's identities; ";
        }
        if (res.aborted_by_controller) e << "queue did not drain; ";
        if (res.events_processed != res.total_messages + kCaptureN) {
          e << "events=" << res.events_processed << " want messages+N; ";
        }
        return e.str();
      });
}

// The E17 re-election storm: the lease service at N = 64 with 8 nodes
// cycling crash/rejoin, 1% loss, one renewal per term, 20,000 units.
// LeaseMonitor (chained to InvariantRegistry) checks at most one
// unexpired lease at every instant, monotone terms, message
// conservation and bounded re-election after every event.
harness::ChurnOptions ChurnShape() {
  harness::ChurnOptions opt;
  opt.n = 64;
  opt.churn_nodes = 8;
  opt.loss = 0.01;
  opt.lease.horizon = sim::Time::FromUnits(20000);
  opt.lease.max_renewals = 1;
  return opt;
}

Round ChurnRound(std::uint64_t seed, Tracing* tracing) {
  const harness::ChurnOptions opt = ChurnShape();
  harness::RunOptions ro;
  ro.n = opt.n;
  ro.seed = seed;
  ro.mapper = opt.mapper;
  ro.delay = opt.delay;
  ro.wakeup = harness::WakeupKind::kAllAtZero;
  ro.max_events = opt.max_events;
  ro.fault_plan = harness::MakeChurnPlan(seed, opt);

  analysis::InvariantOptions io;
  io.unique_leader = false;  // the service declares a leader every term
  analysis::InvariantRegistry registry(io);
  const proto::nosod::LeaseParams lease = harness::EffectiveLeaseParams(opt);
  analysis::LeaseMonitorOptions mo;
  mo.horizon = lease.horizon;
  mo.reelection_window = harness::DefaultReelectionWindow(lease);
  mo.chained = &registry;
  analysis::LeaseMonitor monitor(mo);
  std::optional<TimedObserver> timed;
  sim::RunObserver* observer = &monitor;
  if (tracing != nullptr) {
    observer = &timed.emplace(monitor, tracing->observer);
  }

  Round r = RunOnce(
      ro, Wrap(proto::nosod::MakeLeaseEngine(lease), tracing), observer,
      [&](const sim::RunResult& res, const std::vector<sim::Id>&) {
        std::ostringstream e;
        if (!monitor.ok()) e << "LIVENESS: " << monitor.Summary() << "; ";
        if (!registry.ok()) e << "INVARIANT: " << registry.Summary() << "; ";
        if (res.invariant_violations != 0) {
          e << "invariant_violations=" << res.invariant_violations << "; ";
        }
        if (monitor.election_latency().count() == 0) {
          e << "no election completed; ";
        }
        return e.str();
      });
  r.elections = monitor.election_latency().count();
  return r;
}

using RoundFn = Round (*)(std::uint64_t, Tracing*);

void Untraced(const Options& opt, RoundFn round, Report& report) {
  std::vector<double> setup_s, events_per_s, election_ms;
  std::uint64_t elections = 0, messages = 0;
  const std::uint64_t t0 = NowNs();
  const auto budget = static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::uint64_t i = 0; i == 0 || NowNs() - t0 < budget; ++i) {
    Round r = round(RoundSeed(opt.seed, i), nullptr);
    report.Count(r.error);
    if (!r.error.empty()) continue;
    const double run_s = static_cast<double>(r.run_ns) / 1e9;
    setup_s.push_back(static_cast<double>(r.setup_ns) / 1e9);
    events_per_s.push_back(
        static_cast<double>(r.result.events_processed) / run_s);
    election_ms.push_back(run_s * 1e3 / static_cast<double>(r.elections));
    elections += r.elections;
    messages += r.result.total_messages;
  }
  const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  EndToEnd e;
  e.setup_s = Median(setup_s);
  e.events_per_s = Median(events_per_s);
  e.election_ms_p50 = Median(election_ms);
  e.election_ms_p95 = Quantile(election_ms, 0.95);
  e.elections_per_s = static_cast<double>(elections) / wall_s;
  e.datagrams_per_election = PerUnit(static_cast<double>(messages),
                                     static_cast<double>(elections));
  e.peak_rss_mb = static_cast<double>(PeakRssBytes()) / (1 << 20);
  AddEndToEnd(e, report);
}

// Each round runs the same inputs untraced, then traced; the two must
// give the same fingerprint (and, for churn, the same election count).
void Traced(const Options& opt, std::uint32_t n, RoundFn round,
            Report& report) {
  const double clock_ns = ClockReadNs();
  Tracing tracing;
  std::vector<double> setup_ns;
  std::uint64_t untraced_ns = 0, traced_ns = 0, run_ns = 0;
  std::uint64_t events = 0, messages = 0, elections = 0;
  double rss_per_node = 0;
  const std::uint64_t t0 = NowNs();
  const auto budget = static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::uint64_t i = 0; i == 0 || NowNs() - t0 < budget; ++i) {
    const std::uint64_t seed = RoundSeed(opt.seed, i);
    const std::uint64_t rss_before = CurrentRssBytes();
    Round u = round(seed, nullptr);
    if (i == 0) {
      rss_per_node = static_cast<double>(PeakRssBytes() - rss_before) / n;
    }
    Round t = round(seed, &tracing);
    std::string error = u.error.empty() ? t.error : u.error;
    if (error.empty() && (harness::FingerprintResult(u.result) !=
                              harness::FingerprintResult(t.result) ||
                          u.elections != t.elections)) {
      error = "traced run diverged from the untraced run";
    }
    report.Count(error);
    setup_ns.push_back(static_cast<double>(u.setup_ns));
    untraced_ns += u.total_ns;
    traced_ns += t.total_ns;
    run_ns += t.run_ns;
    events += t.result.events_processed;
    messages += t.result.total_messages;
    elections += t.elections;
  }

  const ProcessTimes& p = tracing.process;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double handler_self =
      d(p.handler.ns) - d(p.send.ns) - d(p.timer.ns) -
      clock_ns * d(p.handler.calls + p.send.calls + p.timer.calls);
  const double loop = d(run_ns) - d(p.handler.ns) - d(tracing.observer.ns) -
                      clock_ns * d(p.handler.calls + tracing.observer.calls);
  Layers l;
  l.sim_send_ns_per_message =
      PerUnit(d(p.send.ns) - clock_ns * d(p.send.calls), d(messages));
  l.sim_loop_ns_per_event = PerUnit(loop, d(events));
  l.sim_events_per_election = PerUnit(d(events), d(elections));
  l.sim_timer_ns_per_call =
      PerUnit(d(p.timer.ns) - clock_ns * d(p.timer.calls), d(p.timer.calls));
  l.sim_timer_calls_per_election = PerUnit(d(p.timer.calls), d(elections));
  l.sim_rss_bytes_per_node = rss_per_node;
  l.proto_handler_ns_per_event = PerUnit(handler_self, d(p.handler.calls));
  l.proto_messages_per_election = PerUnit(d(messages), d(elections));
  l.analysis_observer_ns_per_event =
      PerUnit(d(tracing.observer.ns) - clock_ns * d(tracing.observer.calls),
              d(tracing.observer.calls));
  l.harness_setup_ns_per_node = Median(setup_ns) / n;
  l.trace_overhead_pct = (d(traced_ns) / d(untraced_ns) - 1) * 100;
  AddLayers(l, report);
}

void Drive(const Options& opt, std::uint32_t n, RoundFn round,
           Report& report) {
  if (opt.trace) {
    Traced(opt, n, round, report);
  } else {
    Untraced(opt, round, report);
  }
}

}  // namespace

void RunSimFlood(const Options& opt, Report& report) {
  Drive(opt, kFloodN, FloodRound, report);
}

void RunSimCapture(const Options& opt, Report& report) {
  Drive(opt, kCaptureN, CaptureRound, report);
}

void RunChurnStorm(const Options& opt, Report& report) {
  Drive(opt, ChurnShape().n, ChurnRound, report);
}

}  // namespace perfbench
