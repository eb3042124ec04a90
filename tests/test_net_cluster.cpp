// End-to-end elections over the net/ transports: n PeerNodes hosting
// the fault-tolerant engine over SimNet with chaos links and scripted
// kill/restart, asserting termination with one agreed leader and
// bit-identical fingerprints across reruns. A UDP loopback smoke test
// covers the socket path (skipped if binding fails in the sandbox).
#include <gtest/gtest.h>

#include "celect/net/cluster.h"
#include "celect/proto/nosod/fault_tolerant.h"

namespace celect::net {
namespace {

using proto::nosod::MakeFaultTolerant;

TEST(NetCluster, CleanElectionAgreesAndIsDeterministic) {
  ClusterConfig config;
  config.n = 8;
  config.seed = 21;
  ClusterResult first = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(first.agreed);
  EXPECT_NE(first.leader, 0);
  EXPECT_GT(first.delivered, 0u);

  ClusterResult second = RunSimElection(config, MakeFaultTolerant(1));
  EXPECT_EQ(second.agreed, first.agreed);
  EXPECT_EQ(second.leader, first.leader);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_EQ(second.elapsed_us, first.elapsed_us);
  EXPECT_EQ(second.datagrams, first.datagrams);
}

TEST(NetCluster, SeedSteersTheElection) {
  ClusterConfig a;
  a.n = 8;
  a.seed = 1;
  ClusterConfig b = a;
  b.seed = 2;
  ClusterResult ra = RunSimElection(a, MakeFaultTolerant(1));
  ClusterResult rb = RunSimElection(b, MakeFaultTolerant(1));
  ASSERT_TRUE(ra.agreed);
  ASSERT_TRUE(rb.agreed);
  EXPECT_NE(ra.fingerprint, rb.fingerprint);
}

TEST(NetCluster, ElectionSurvivesLossyReorderingLinks) {
  ClusterConfig config;
  config.n = 12;
  config.seed = 7;
  config.link.loss = 0.10;
  config.link.duplicate = 0.05;
  config.link.reorder = 0.15;
  config.link.corrupt = 0.01;
  ClusterResult result = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(result.agreed) << "election wedged under chaos links";
  EXPECT_NE(result.leader, 0);
  EXPECT_GT(result.metrics().Counter("net.retransmits"), 0)
      << "10% loss must have forced retransmissions";
}

TEST(NetCluster, KillAndRestartMidElectionStillAgrees) {
  ClusterConfig config;
  config.n = 8;
  config.seed = 5;
  config.link.loss = 0.05;
  config.chaos = {
      {40'000, 2, ChaosEvent::What::kKill},
      {90'000, 5, ChaosEvent::What::kKill},
      {400'000, 2, ChaosEvent::What::kRestart},
      {700'000, 5, ChaosEvent::What::kRestart},
  };
  ClusterResult first = RunSimElection(config, MakeFaultTolerant(2));
  ASSERT_TRUE(first.agreed)
      << "two kills within the f=2 budget must not block termination";
  EXPECT_NE(first.leader, 0);

  // Chaos is part of the deterministic schedule: reruns are identical.
  ClusterResult second = RunSimElection(config, MakeFaultTolerant(2));
  EXPECT_EQ(second.leader, first.leader);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_EQ(second.elapsed_us, first.elapsed_us);
}

TEST(NetCluster, DeadPeerRaisesSuspicionsAndElectionCompletes) {
  // A node dies early and never comes back. Retransmit exhaustion must
  // surface as suspicion events (which the FT engine converts into an
  // immediate capture retry), and the live nodes must still agree.
  ClusterConfig config;
  config.n = 8;
  config.seed = 3;
  config.session.rto_initial = 1'000;
  config.session.max_retries = 1;
  config.chaos = {{4'000, 1, ChaosEvent::What::kKill}};
  ClusterResult result = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(result.agreed);
  EXPECT_GT(result.metrics().Counter("net.suspicions"), 0)
      << "talking to a dead peer must exhaust retransmits into suspicion";
}

TEST(NetCluster, RestartedPeerIsDetectedViaEpochChange) {
  ClusterConfig config;
  config.n = 6;
  config.seed = 11;
  // Early kill + quick revival: the election is still in flight, so the
  // peers' live sessions meet the new incarnation's epoch directly.
  config.chaos = {
      {5'000, 0, ChaosEvent::What::kKill},
      {20'000, 0, ChaosEvent::What::kRestart},
  };
  ClusterResult result = RunSimElection(config, MakeFaultTolerant(1));
  ASSERT_TRUE(result.agreed);
  EXPECT_GT(result.metrics().Counter("net.peer_restarts"), 0)
      << "the revived node's fresh epoch must be noticed by its peers";
}

TEST(NetCluster, UdpLoopbackElectionSmoke) {
  // Real sockets over 127.0.0.1, one transport per node inside this
  // process. Skipped (not failed) where the sandbox forbids binding.
  ClusterConfig config;
  config.n = 4;
  config.seed = 9;
  config.base_port = 48211;
  config.deadline_us = 30'000'000;
  auto result = RunUdpElection(config, MakeFaultTolerant(1));
  if (!result.has_value()) {
    GTEST_SKIP() << "cannot bind localhost UDP ports in this environment";
  }
  EXPECT_TRUE(result->agreed);
  EXPECT_NE(result->leader, 0);
}

}  // namespace
}  // namespace celect::net
