// Real-transport backend tests (src/net), all in one process:
//
//   * PerfectLink's perfect-links axioms (validity, no duplication, no
//     creation) over real loopback sockets, clean and behind the seeded
//     drop/duplicate/reorder injector;
//   * URB's uniformity gate: nobody delivers until ackers ∪ suspected
//     covers Π, and a killed sender's broadcast still reaches every
//     survivor exactly once;
//   * the heartbeat failure detector: P's sticky suspicion and ◇P's
//     refutation/adaptive timeout against scripted clocks, plus recorded
//     HeartbeatHistory judged by the src/fd axiom checkers verbatim;
//   * a full in-process cluster: n NetNodes round-robined on a FakeClock
//     reach consensus within the analyzer's Lat(A, f), with and without a
//     scripted crash, and survive a hostile peer's replayed round frames;
//   * NodeReport JSON round trip (the harness's child-to-parent channel).
//
// The fork/SIGKILL half of the harness is exercised by the ssvsp_net CLI
// and the transport-smoke CI leg, not here — gtest and fork() make poor
// roommates.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/abstract_interp.hpp"
#include "consensus/registry.hpp"
#include "fd/axioms.hpp"
#include "net/harness.hpp"
#include "net/node.hpp"
#include "runtime/failure_pattern.hpp"

namespace ssvsp::net {
namespace {

/// A bound loopback transport pair/fleet with a shared peer table.
std::vector<std::unique_ptr<UdpTransport>> boundFleet(int n) {
  std::vector<std::unique_ptr<UdpTransport>> fleet;
  std::vector<Endpoint> peers;
  for (int i = 0; i < n; ++i) {
    std::string error;
    auto t = UdpTransport::bind(0, &error);
    EXPECT_NE(t, nullptr) << error;
    peers.push_back(t->localEndpoint());
    fleet.push_back(std::move(t));
  }
  for (auto& t : fleet) t->setPeers(peers);
  return fleet;
}

TEST(PerfectLinkTest, ValidityAndNoDuplicationOnCleanLoopback) {
  auto fleet = boundFleet(2);
  PerfectLink a(*fleet[0], 0, 2);
  PerfectLink b(*fleet[1], 1, 2);
  FakeClock clock;

  constexpr int kCount = 300;
  for (int i = 0; i < kCount; ++i)
    a.send(1, "msg-" + std::to_string(i));

  std::map<std::string, int> got;
  std::string bytes;
  ProcessId from = kNoProcess;
  for (int iter = 0; iter < 20000 && got.size() < kCount; ++iter) {
    clock.advance(1);
    const NetTime now = clock.nowMs();
    a.pump(now);
    while (fleet[1]->tryRecv(&bytes, &from)) b.onDatagram(from, bytes, now);
    b.pump(now);
    while (fleet[0]->tryRecv(&bytes, &from)) a.onDatagram(from, bytes, now);
    for (const auto& d : b.drainDeliveries()) {
      EXPECT_EQ(d.src, 0);
      ++got[d.payload];
    }
  }

  // Validity: everything sent was delivered.  No duplication: once each.
  ASSERT_EQ(got.size(), kCount);
  for (int i = 0; i < kCount; ++i) {
    const auto it = got.find("msg-" + std::to_string(i));
    ASSERT_NE(it, got.end()) << "msg-" << i << " lost";
    EXPECT_EQ(it->second, 1) << "msg-" << i << " duplicated";
  }
  EXPECT_EQ(b.stats().delivered, kCount);
  EXPECT_EQ(a.stats().retransmits, 0);  // loopback lost nothing
  EXPECT_TRUE(a.quiescent());
}

TEST(PerfectLinkTest, ExactlyOnceUnderDropDuplicateReorder) {
  auto fleet = boundFleet(2);
  FaultSpec faults;
  faults.pDrop = 0.25;
  faults.pDup = 0.2;
  faults.pDelay = 0.3;
  faults.seed = 42;
  FaultInjector lossy(*fleet[0], faults);
  PerfectLink a(lossy, 0, 2);
  PerfectLink b(*fleet[1], 1, 2);
  FakeClock clock;

  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i)
    a.send(1, "msg-" + std::to_string(i));

  std::map<std::string, int> got;
  std::string bytes;
  ProcessId from = kNoProcess;
  for (int iter = 0; iter < 40000 && got.size() < kCount; ++iter) {
    clock.advance(2);  // fake ms drive the retransmission timers
    const NetTime now = clock.nowMs();
    a.pump(now);
    while (fleet[1]->tryRecv(&bytes, &from)) b.onDatagram(from, bytes, now);
    b.pump(now);
    while (lossy.tryRecv(&bytes, &from)) a.onDatagram(from, bytes, now);
    for (const auto& d : b.drainDeliveries()) ++got[d.payload];
  }
  lossy.flushDelayed();

  // No creation: only sent payloads surface.  No duplication: exactly once
  // each, despite injected duplicates and retransmissions.
  ASSERT_EQ(got.size(), kCount);
  for (const auto& [payload, times] : got) {
    EXPECT_EQ(payload.rfind("msg-", 0), 0u) << "created: " << payload;
    EXPECT_EQ(times, 1) << payload << " duplicated";
  }
  EXPECT_GT(lossy.dropped(), 0) << "injector inert: test proves nothing";
  EXPECT_GT(a.stats().retransmits, 0);
  EXPECT_GT(b.stats().duplicatesDropped, 0);
}

TEST(UrbTest, UniformityGateAndKilledSenderAgreement) {
  auto fleet = boundFleet(3);
  PerfectLink link0(*fleet[0], 0, 3);
  PerfectLink link1(*fleet[1], 1, 3);
  PerfectLink link2(*fleet[2], 2, 3);
  UniformReliableBroadcast urb0(link0, 0, 3);
  UniformReliableBroadcast urb1(link1, 1, 3);
  UniformReliableBroadcast urb2(link2, 2, 3);
  FakeClock clock;

  // p0 broadcasts and "crashes": its relay reaches p1 but the copy to p2
  // is lost with it (we discard p2's inbound and never pump link0 again).
  urb0.broadcast("the-payload");
  link0.pump(clock.nowMs());
  std::string bytes;
  ProcessId from = kNoProcess;
  while (fleet[2]->tryRecv(&bytes, &from)) {
  }  // datagram from p0 to p2: lost in the crash

  const auto pumpSurvivors = [&] {
    clock.advance(5);
    const NetTime now = clock.nowMs();
    for (int i = 1; i <= 2; ++i) {
      PerfectLink& link = i == 1 ? link1 : link2;
      UniformReliableBroadcast& urb = i == 1 ? urb1 : urb2;
      while (fleet[i]->tryRecv(&bytes, &from))
        if (link.onDatagram(from, bytes, now))
          for (const auto& d : link.drainDeliveries())
            urb.onPayload(d.src, d.payload);
      link.pump(now);
    }
  };
  for (int iter = 0; iter < 200; ++iter) pumpSurvivors();

  // p1 heard p0's own relay plus p2's: ackers cover Π, it delivers.  p2
  // heard only itself and p1 — without suspecting p0 the uniformity gate
  // must hold the message back.
  const auto d1 = urb1.drainDeliveries();
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_EQ(d1[0].origin, 0);
  EXPECT_EQ(d1[0].body, "the-payload");
  EXPECT_TRUE(urb2.drainDeliveries().empty())
      << "p2 delivered before ackers ∪ suspected covered Π";

  // The failure detector catches up: suspecting p0 completes p2's gate.
  urb2.updateSuspected(ProcessSet::single(0));
  const auto d2 = urb2.drainDeliveries();
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_EQ(d2[0].origin, 0);
  EXPECT_EQ(d2[0].body, "the-payload");
  EXPECT_EQ(urb2.stats().delivered, 1);
}

TEST(HeartbeatTest, PerfectModeSuspicionIsSticky) {
  HeartbeatOptions options;
  options.periodMs = 20;
  options.timeoutMs = 100;
  options.mode = FdMode::kPerfect;
  HeartbeatMonitor monitor(0, 3, options, /*now=*/0);
  HeartbeatMonitor peer1(1, 3, options, 0);
  HeartbeatMonitor peer2(2, 3, options, 0);

  // Both peers beat until t=60; then p2 falls silent.
  for (NetTime t = 20; t <= 60; t += 20) {
    ASSERT_TRUE(monitor.onDatagram(1, peer1.heartbeatFrame(), t));
    ASSERT_TRUE(monitor.onDatagram(2, peer2.heartbeatFrame(), t));
  }
  for (NetTime t = 80; t <= 400; t += 20)
    ASSERT_TRUE(monitor.onDatagram(1, peer1.heartbeatFrame(), t));

  EXPECT_TRUE(monitor.suspected(150).empty());  // 60 + 100 not yet exceeded
  const ProcessSet late = monitor.suspected(200);
  EXPECT_TRUE(late.contains(2));
  EXPECT_FALSE(late.contains(1));

  // Sticky: a late heartbeat from a suspected peer changes nothing under P.
  ASSERT_TRUE(monitor.onDatagram(2, peer2.heartbeatFrame(), 210));
  EXPECT_TRUE(monitor.suspected(211).contains(2));
  EXPECT_EQ(monitor.stats().refutations, 0);
  EXPECT_EQ(monitor.stats().suspicions, 1);

  // Non-heartbeat datagrams are not the monitor's business.
  EXPECT_FALSE(monitor.onDatagram(1, "not a heartbeat", 220));
}

TEST(HeartbeatTest, EventuallyPerfectRefutesAndGrowsTimeout) {
  HeartbeatOptions options;
  options.periodMs = 20;
  options.timeoutMs = 100;
  options.timeoutIncrementMs = 150;
  options.mode = FdMode::kEventuallyPerfect;
  HeartbeatMonitor monitor(0, 2, options, /*now=*/0);
  HeartbeatMonitor peer1(1, 2, options, 0);

  ASSERT_TRUE(monitor.onDatagram(1, peer1.heartbeatFrame(), 20));
  EXPECT_TRUE(monitor.suspected(300).contains(1));  // silent past 120

  // The slow heartbeat arrives: suspicion refuted, timeout adapted.
  ASSERT_TRUE(monitor.onDatagram(1, peer1.heartbeatFrame(), 310));
  EXPECT_FALSE(monitor.suspected(311).contains(1));
  EXPECT_EQ(monitor.stats().refutations, 1);
  EXPECT_EQ(monitor.timeoutFor(1), 250);  // 100 + 150

  // The grown timeout tolerates the same gap the old one called a crash.
  ASSERT_TRUE(monitor.onDatagram(1, peer1.heartbeatFrame(), 510));
  EXPECT_FALSE(monitor.suspected(540).contains(1));
}

TEST(HeartbeatTest, RecordedHistorySatisfiesFdAxioms) {
  // Two correct observers, p2 crashes at t=300.  The recorded histories
  // must pass the SAME strong completeness / strong accuracy checkers that
  // judge the simulated oracles of src/fd.
  HeartbeatOptions options;
  options.periodMs = 20;
  options.timeoutMs = 100;
  options.mode = FdMode::kPerfect;
  HeartbeatMonitor m0(0, 3, options, 0);
  HeartbeatMonitor m1(1, 3, options, 0);
  HeartbeatMonitor m2(2, 3, options, 0);

  constexpr Time kCrash = 300;
  constexpr Time kHorizon = 800;
  HeartbeatHistory history(3);
  for (Time t = 0; t <= kHorizon; t += 10) {
    if (t > 0 && t % 20 == 0) {
      const std::string f0 = m0.heartbeatFrame();
      const std::string f1 = m1.heartbeatFrame();
      ASSERT_TRUE(m0.onDatagram(1, f1, t));
      ASSERT_TRUE(m1.onDatagram(0, f0, t));
      if (t < kCrash) {
        // p2 is alive: it both beats and listens (it is an observer too,
        // and a deaf observer would falsely suspect the others).
        const std::string f2 = m2.heartbeatFrame();
        ASSERT_TRUE(m0.onDatagram(2, f2, t));
        ASSERT_TRUE(m1.onDatagram(2, f2, t));
        ASSERT_TRUE(m2.onDatagram(0, f0, t));
        ASSERT_TRUE(m2.onDatagram(1, f1, t));
      }
    }
    history.sample(0, t, m0.suspected(t));
    history.sample(1, t, m1.suspected(t));
    history.sample(2, t, t < kCrash ? m2.suspected(t) : ProcessSet{});
  }

  FailurePattern pattern(3);
  pattern.setCrash(2, kCrash);
  EXPECT_TRUE(checkStrongCompleteness(history, pattern, kHorizon).ok)
      << checkStrongCompleteness(history, pattern, kHorizon).witness;
  EXPECT_TRUE(checkStrongAccuracy(history, pattern, kHorizon).ok)
      << checkStrongAccuracy(history, pattern, kHorizon).witness;
}

TEST(HeartbeatTest, MistimedSuspicionViolatesAccuracyButDiamondPRecovers) {
  // The same schedule — one heartbeat gap longer than the timeout, then
  // regular beats forever — judged under both modes.  No process crashes.
  const auto record = [](FdMode mode, Time horizon) {
    HeartbeatOptions options;
    options.periodMs = 20;
    options.timeoutMs = 50;  // deliberately mistimed: the gap is 200
    options.timeoutIncrementMs = 300;
    options.mode = mode;
    HeartbeatMonitor m0(0, 2, options, 0);
    HeartbeatMonitor m1(1, 2, options, 0);
    HeartbeatHistory history(2);
    for (Time t = 0; t <= horizon; t += 10) {
      const bool inGap = t > 40 && t < 240;
      if (t > 0 && t % 20 == 0 && !inGap)
        m0.onDatagram(1, m1.heartbeatFrame(), t);
      history.sample(0, t, m0.suspected(t));
      history.sample(1, t, ProcessSet{});
    }
    return history;
  };

  constexpr Time kHorizon = 600;
  const FailurePattern pattern = FailurePattern::noFailures(2);

  HeartbeatHistory sticky = record(FdMode::kPerfect, kHorizon);
  EXPECT_FALSE(checkStrongAccuracy(sticky, pattern, kHorizon).ok)
      << "a 200ms silence against a 50ms timeout must look like a crash";

  HeartbeatHistory adaptive = record(FdMode::kEventuallyPerfect, kHorizon);
  EXPECT_FALSE(checkStrongAccuracy(adaptive, pattern, kHorizon).ok);
  EXPECT_TRUE(checkEventualStrongAccuracy(adaptive, pattern, kHorizon).ok)
      << checkEventualStrongAccuracy(adaptive, pattern, kHorizon).witness;
}

/// An in-process cluster of NetNodes sharing one FakeClock.
struct InProcessCluster {
  InProcessCluster(const std::string& algo, RoundConfig cfg,
                   const std::vector<Value>& values, const CrashPlan& crash0)
      : fleet(boundFleet(cfg.n)) {
    const AlgorithmEntry* entry = findAlgorithm(algo);
    EXPECT_NE(entry, nullptr);
    for (ProcessId p = 0; p < cfg.n; ++p) {
      NodeOptions options;
      options.self = p;
      options.cfg = cfg;
      options.initial = values[static_cast<std::size_t>(p)];
      options.algo = algo;
      if (p == 0) options.crashPlan = crash0;
      options.heartbeat.periodMs = 5;
      options.heartbeat.timeoutMs = 60;
      nodes.push_back(std::make_unique<NetNode>(
          *fleet[p], entry->factory(p), options, clock));
    }
  }

  /// Runs step() round-robin until `done()` holds, every non-halted node
  /// reports kDone, or the iteration budget runs out.
  void stepUntil(const std::function<bool()>& done) {
    for (int iter = 0; iter < 5000 && !done(); ++iter) {
      clock.advance(2);
      bool allSettled = true;
      for (auto& node : nodes) {
        const NetNode::Status status = node->step();
        if (status == NetNode::Status::kRunning) allSettled = false;
      }
      if (allSettled) break;
    }
  }

  /// Steps every node to completion.  Returns one report per node.
  std::vector<NodeReport> run() {
    stepUntil([] { return false; });
    std::vector<NodeReport> reports;
    for (auto& node : nodes) reports.push_back(node->report());
    return reports;
  }

  std::vector<std::unique_ptr<UdpTransport>> fleet;
  FakeClock clock;
  std::vector<std::unique_ptr<NetNode>> nodes;
};

std::vector<NodeReport> runInProcessCluster(const std::string& algo,
                                            RoundConfig cfg,
                                            const std::vector<Value>& values,
                                            const CrashPlan& crash0) {
  return InProcessCluster(algo, cfg, values, crash0).run();
}

TEST(NetNodeTest, InProcessClusterReachesConsensusWithinLat) {
  const RoundConfig cfg{4, 2};
  const std::vector<Value> values{0, 1, 1, 0};
  const auto reports =
      runInProcessCluster("FloodSetWS", cfg, values, CrashPlan{});
  const Round bound = analyzerLatBound(*findAlgorithm("FloodSetWS"), cfg, 0);
  ASSERT_NE(bound, kNoRound);

  ASSERT_EQ(reports.size(), 4u);
  for (const NodeReport& r : reports) {
    EXPECT_FALSE(r.halted);
    ASSERT_TRUE(r.decided) << "p" << r.node << " undecided";
    EXPECT_EQ(r.decision, reports[0].decision) << "agreement violated";
    EXPECT_NE(std::find(values.begin(), values.end(), r.decision),
              values.end())
        << "validity violated";
    EXPECT_LE(r.decisionRound, bound) << "p" << r.node << " beyond Lat(A, 0)";
    EXPECT_EQ(r.suspectedFinal, 0u) << "failure-free run suspected someone";
    EXPECT_EQ(r.roundsCompleted, cfg.t + 2);
  }
}

TEST(NetNodeTest, ScriptedCrashSurvivorsAgreeWithinLatAndSuspectOnlyIt) {
  const RoundConfig cfg{4, 2};
  const std::vector<Value> values{0, 1, 1, 0};
  CrashPlan crash0;
  crash0.round = 1;
  crash0.sendTo = ProcessSet{};  // final broadcast reaches nobody
  const auto reports = runInProcessCluster("FloodSetWS", cfg, values, crash0);
  const Round bound = analyzerLatBound(*findAlgorithm("FloodSetWS"), cfg, 1);
  ASSERT_NE(bound, kNoRound);

  ASSERT_EQ(reports.size(), 4u);
  EXPECT_TRUE(reports[0].halted);
  EXPECT_FALSE(reports[0].decided);
  for (std::size_t p = 1; p < reports.size(); ++p) {
    const NodeReport& r = reports[p];
    ASSERT_TRUE(r.decided) << "survivor p" << r.node << " undecided";
    EXPECT_EQ(r.decision, reports[1].decision) << "agreement violated";
    EXPECT_LE(r.decisionRound, bound) << "p" << r.node << " beyond Lat(A, 1)";
    // Completeness caught the crash; accuracy spared the survivors.
    EXPECT_EQ(r.suspectedFinal, ProcessSet::single(0).mask())
        << "p" << r.node << " suspected " << r.suspectedFinal;
  }
}

TEST(NetNodeTest, AnalyzerLatBoundIsTheInterpretersBudgetRow) {
  // analyzerLatBound interprets only the cells with <= f crashes; the
  // prefix join makes that the full interpretation's byMaxCrashes[f].
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const RoundConfig cfg = canonicalAnalysisConfig(entry);
    const AbstractBounds full = interpretAutomaton(entry, cfg);
    for (int f = 0; f <= cfg.t; ++f) {
      const Round latest =
          full.byMaxCrashes[static_cast<std::size_t>(f)].latest;
      EXPECT_EQ(analyzerLatBound(entry, cfg, f),
                latest == 0 ? kNoRound : latest)
          << entry.name << " f = " << f;
    }
    EXPECT_EQ(analyzerLatBound(entry, cfg, -1), kNoRound) << entry.name;
    EXPECT_EQ(analyzerLatBound(entry, cfg, cfg.t + 1), kNoRound) << entry.name;
  }
}

TEST(NetNodeTest, DuplicateRoundFrameIsDroppedNotFatal) {
  // A hostile peer replays p1's round-1 frame at p0 under fresh link seqs,
  // so PerfectLink's dedup lets every copy through.  The frames are
  // byte-identical to the real one.  Two copies arrive before the real
  // frame and two more after p0 has consumed round 1: p0 must drop all of
  // them (none may surface as p1's late message in round 2), keep running
  // and decide.
  const RoundConfig cfg{4, 2};
  const std::vector<Value> values{0, 1, 1, 0};
  const AlgorithmEntry& entry = *findAlgorithm("FloodSetWS");
  InProcessCluster cluster("FloodSetWS", cfg, values, CrashPlan{});

  const std::unique_ptr<RoundAutomaton> p1 = entry.factory(1);
  p1->begin(1, cfg, values[1]);
  const std::optional<Payload> body = p1->messageFor(0);
  std::string round;
  RecordWriter frame(round);
  frame.putU8(static_cast<std::uint8_t>(ChannelKind::kRound)).putI32(1);
  frame.putU8(body.has_value() ? 1 : 0);
  for (std::int32_t word : body.value_or(Payload{})) frame.putI32(word);
  auto replay = [&](std::uint64_t seq) {
    std::string datagram;
    RecordWriter w(datagram);
    w.putU8(static_cast<std::uint8_t>(WireKind::kData)).putU32(1).putU64(seq);
    w.putBytes(round);
    ASSERT_EQ(cluster.fleet[1]->trySend(0, datagram), SendResult::kOk);
  };
  replay(1000000);
  replay(1000001);

  const RwsFromSpDriver& p0 = cluster.nodes[0]->driver();
  cluster.stepUntil([&] { return p0.roundsCompleted() >= 1; });
  ASSERT_GE(p0.roundsCompleted(), 1);
  ASSERT_LT(p0.roundsCompleted(), cfg.t + 2) << "p0 finished before replay";
  replay(1000002);
  replay(1000003);

  const auto reports = cluster.run();
  // Of the five round-1 frames claiming p1, exactly one is consumed.
  EXPECT_EQ(p0.duplicateRoundFrames(), 4);
  EXPECT_EQ(p0.lateDeliveries(), 0) << "a replay surfaced as a late message";
  for (const NodeReport& r : reports) {
    EXPECT_FALSE(r.timedOut) << "p" << r.node;
    ASSERT_TRUE(r.decided) << "p" << r.node << " undecided";
    EXPECT_EQ(r.decision, reports[0].decision) << "agreement violated";
    EXPECT_EQ(r.roundsCompleted, cfg.t + 2);
    EXPECT_EQ(r.lateDeliveries, 0) << "p" << r.node;
  }
}

TEST(NodeReportTest, JsonRoundTrip) {
  NodeReport report;
  report.node = 2;
  report.algo = "FloodSetWS";
  report.n = 4;
  report.t = 2;
  report.decided = true;
  report.decision = 1;
  report.decisionRound = 3;
  report.roundsCompleted = 4;
  report.lateDeliveries = 7;
  report.halted = false;
  report.timedOut = false;
  report.suspectedFinal = 0x1;
  report.heardMasks = {0xF, 0xE, 0xE, 0xE};
  report.link.sent = 123;
  report.link.retransmits = 4;
  report.urb.broadcasts = 1;
  report.urb.delivered = 3;
  report.fd.heartbeatsSent = 55;
  report.fd.suspicions = 1;
  report.wallMs = 321;

  NodeReport back;
  std::string error;
  ASSERT_TRUE(NodeReport::fromJson(report.toJson(), &back, &error)) << error;
  EXPECT_EQ(back.node, report.node);
  EXPECT_EQ(back.algo, report.algo);
  EXPECT_EQ(back.n, report.n);
  EXPECT_EQ(back.t, report.t);
  EXPECT_EQ(back.decided, report.decided);
  EXPECT_EQ(back.decision, report.decision);
  EXPECT_EQ(back.decisionRound, report.decisionRound);
  EXPECT_EQ(back.roundsCompleted, report.roundsCompleted);
  EXPECT_EQ(back.lateDeliveries, report.lateDeliveries);
  EXPECT_EQ(back.suspectedFinal, report.suspectedFinal);
  EXPECT_EQ(back.heardMasks, report.heardMasks);
  EXPECT_EQ(back.link.sent, report.link.sent);
  EXPECT_EQ(back.link.retransmits, report.link.retransmits);
  EXPECT_EQ(back.urb.broadcasts, report.urb.broadcasts);
  EXPECT_EQ(back.urb.delivered, report.urb.delivered);
  EXPECT_EQ(back.fd.heartbeatsSent, report.fd.heartbeatsSent);
  EXPECT_EQ(back.fd.suspicions, report.fd.suspicions);
  EXPECT_EQ(back.wallMs, report.wallMs);

  NodeReport undecided;
  undecided.node = 0;
  undecided.algo = "A1";
  undecided.n = 3;
  undecided.t = 1;
  undecided.halted = true;
  ASSERT_TRUE(NodeReport::fromJson(undecided.toJson(), &back, &error))
      << error;
  EXPECT_FALSE(back.decided);
  EXPECT_EQ(back.decision, kUndecided);
  EXPECT_EQ(back.decisionRound, kNoRound);
  EXPECT_TRUE(back.halted);

  EXPECT_FALSE(NodeReport::fromJson("{\"schema\": \"bogus\"}", &back, &error));
}

}  // namespace
}  // namespace ssvsp::net
