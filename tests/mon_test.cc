// Tests for the monitor service: Paxos-backed maps, service metadata,
// proposal batching, subscriber push, leader failover, cluster log.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/mon/mon_client.h"
#include "src/mon/monitor.h"

namespace mal::mon {
namespace {

// Minimal daemon-ish actor that records pushed map updates.
class TestDaemon : public sim::Actor {
 public:
  TestDaemon(sim::Simulator* simulator, sim::Network* network, uint32_t id,
             std::vector<uint32_t> mons)
      : Actor(simulator, network, sim::EntityName::Client(id)),
        mon_client(this, std::move(mons)) {}

  MonClient mon_client;
  mal::PerfRegistry perf;  // what its perf reports carry
  Epoch osd_epoch = 0;     // of the newest OsdMap pushed
  std::vector<OsdMap> osd_updates;
  std::vector<MdsMap> mds_updates;

 protected:
  void HandleRequest(const sim::Envelope& request) override {
    if (request.type == kMsgMapUpdate) {
      MapUpdate update = mal::Decode<MapUpdate>(request.payload).value();
      if (update.kind == MapKind::kOsdMap) {
        auto map = mal::Decode<OsdMap>(update.map_payload);
        ASSERT_TRUE(map.ok());
        osd_epoch = std::max(osd_epoch, map.value().epoch);
        osd_updates.push_back(std::move(map).value());
      } else {
        auto map = mal::Decode<MdsMap>(update.map_payload);
        ASSERT_TRUE(map.ok());
        mds_updates.push_back(std::move(map).value());
      }
    }
  }
};

class MonFixture : public ::testing::Test {
 protected:
  void Start(size_t num_mons, MonitorConfig config = {}) {
    std::vector<uint32_t> quorum;
    for (uint32_t i = 0; i < num_mons; ++i) {
      quorum.push_back(i);
    }
    for (uint32_t i = 0; i < num_mons; ++i) {
      monitors.push_back(
          std::make_unique<Monitor>(&simulator, &network, i, quorum, config));
    }
    for (auto& monitor : monitors) {
      monitor->Boot();
    }
    daemon = std::make_unique<TestDaemon>(&simulator, &network, 0, quorum);
    simulator.RunUntil(simulator.Now() + 3 * sim::kSecond);  // settle election
  }

  Monitor* Leader() {
    for (auto& monitor : monitors) {
      if (monitor->IsLeader()) {
        return monitor.get();
      }
    }
    return nullptr;
  }

  sim::Simulator simulator;
  sim::Network network{&simulator};
  std::vector<std::unique_ptr<Monitor>> monitors;
  std::unique_ptr<TestDaemon> daemon;
};

// A three-monitor quorum of its own, for tests that compare proposal
// intervals within one test body.
struct Quorum {
  explicit Quorum(sim::Time proposal_interval) {
    MonitorConfig config;
    config.proposal_interval = proposal_interval;
    std::vector<uint32_t> ids = {0, 1, 2};
    for (uint32_t id : ids) {
      monitors.push_back(std::make_unique<Monitor>(&simulator, &network, id, ids, config));
    }
    for (auto& monitor : monitors) {
      monitor->Boot();
    }
    daemon = std::make_unique<TestDaemon>(&simulator, &network, 0, ids);
    simulator.RunUntil(3 * sim::kSecond);  // settle election
  }

  // Submits one transaction, runs until it is acked (10 s at most), and
  // returns how long that took.
  sim::Time Commit(const std::string& key) {
    const sim::Time start = simulator.Now();
    auto acked = std::make_shared<bool>(false);
    daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, key, "v", [acked](mal::Status s) {
      EXPECT_TRUE(s.ok()) << s;
      *acked = true;
    });
    while (!*acked && simulator.Now() < start + 10 * sim::kSecond && simulator.Step()) {
    }
    EXPECT_TRUE(*acked) << key;
    return simulator.Now() - start;
  }

  sim::Simulator simulator;
  sim::Network network{&simulator};
  std::vector<std::unique_ptr<Monitor>> monitors;
  std::unique_ptr<TestDaemon> daemon;
};

TEST_F(MonFixture, SingleMonitorElectsItself) {
  Start(1);
  EXPECT_TRUE(monitors[0]->IsLeader());
}

TEST_F(MonFixture, ThreeMonitorsElectLowestId) {
  Start(3);
  EXPECT_TRUE(monitors[0]->IsLeader());
  EXPECT_FALSE(monitors[1]->IsLeader());
  EXPECT_FALSE(monitors[2]->IsLeader());
}

TEST_F(MonFixture, ServiceMetadataCommitsAndBumpsEpoch) {
  Start(3);
  Epoch before = monitors[0]->osd_map().epoch;
  bool done = false;
  daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, "cls.zlog", "v1",
                                        [&](mal::Status s) {
                                          EXPECT_TRUE(s.ok()) << s;
                                          done = true;
                                        });
  simulator.RunUntil(simulator.Now() + 5 * sim::kSecond);
  ASSERT_TRUE(done);
  for (auto& monitor : monitors) {
    EXPECT_EQ(monitor->osd_map().service_metadata.at("cls.zlog"), "v1")
        << monitor->name().ToString();
    EXPECT_EQ(monitor->osd_map().epoch, before + 1);
  }
}

TEST_F(MonFixture, CommandToFollowerIsForwardedToLeader) {
  Start(3);
  bool done = false;
  // Send directly to mon.2 (a follower).
  Transaction txn;
  txn.op = Transaction::Op::kSetServiceMetadata;
  txn.map_kind = MapKind::kMdsMap;
  txn.key = "mantle.balancer_version";
  txn.value = "obj.3";
  mal::Buffer payload;
  mal::Encoder enc(&payload);
  enc(txn);
  daemon->SendRequest(sim::EntityName::Mon(2), kMsgMonCommand, std::move(payload),
                      [&](mal::Status s, const sim::Envelope&) {
                        EXPECT_TRUE(s.ok()) << s;
                        done = true;
                      },
                      /*timeout=*/10 * sim::kSecond);
  simulator.RunUntil(simulator.Now() + 6 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(monitors[1]->mds_map().service_metadata.at("mantle.balancer_version"), "obj.3");
}

TEST_F(MonFixture, ProposalBatchingAccumulatesTransactions) {
  MonitorConfig config;
  config.proposal_interval = 1 * sim::kSecond;
  Start(3, config);
  struct Applied {
    sim::Time at;
    size_t txns;
  };
  std::vector<Applied> applied;
  monitors[0]->on_apply = [&](const std::vector<Transaction>& batch) {
    applied.push_back({simulator.Now(), batch.size()});
  };
  Epoch before = monitors[0]->osd_map().epoch;
  int acks = 0;
  auto submit = [&](int i) {
    daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, "key" + std::to_string(i), "v",
                                          [&](mal::Status s) {
                                            EXPECT_TRUE(s.ok());
                                            ++acks;
                                          });
  };
  // The first transaction reaches an idle leader: it is proposed at once
  // and commits alone, within one Paxos round.
  sim::Time first_submitted = simulator.Now();
  submit(0);
  simulator.RunUntil(first_submitted + 5 * sim::kMillisecond);
  ASSERT_EQ(acks, 1);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].txns, 1u);
  // The 9 that follow within the interval wait for it to end and ride one
  // proposal together.
  for (int i = 1; i < 10; ++i) {
    submit(i);
  }
  simulator.RunUntil(simulator.Now() + 5 * sim::kSecond);
  EXPECT_EQ(acks, 10);
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[1].txns, 9u);
  EXPECT_GE(applied[1].at, first_submitted + config.proposal_interval);
  EXPECT_LT(applied[1].at, first_submitted + config.proposal_interval + 5 * sim::kMillisecond);
  EXPECT_EQ(monitors[0]->perf().counter("mon.paxos.proposals"), 2u);
  EXPECT_EQ(monitors[0]->osd_map().epoch, before + 2);
  EXPECT_EQ(monitors[0]->osd_map().service_metadata.size(), 10u);
}

TEST_F(MonFixture, ProposalIntervalBoundsTheProposalRate) {
  MonitorConfig config;
  config.proposal_interval = 200 * sim::kMillisecond;
  Start(3, config);
  Monitor* leader = Leader();
  ASSERT_NE(leader, nullptr);
  // A steady stream: one transaction every 30 ms for 5 s.
  const sim::Time end = simulator.Now() + 5 * sim::kSecond;
  int acks = 0;
  int submitted = 0;
  std::function<void()> submit = [&] {
    if (simulator.Now() >= end) {
      return;
    }
    daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, "k" + std::to_string(submitted++),
                                          "v", [&](mal::Status s) {
                                            EXPECT_TRUE(s.ok()) << s;
                                            ++acks;
                                          });
    simulator.Schedule(30 * sim::kMillisecond, submit);
  };
  submit();
  // Step event by event and stamp every proposal the leader makes.
  std::vector<sim::Time> proposals;
  uint64_t seen = leader->perf().counter("mon.paxos.proposals");
  while (simulator.Now() < end + 1 * sim::kSecond && simulator.Step()) {
    uint64_t now_seen = leader->perf().counter("mon.paxos.proposals");
    if (now_seen != seen) {
      ASSERT_EQ(now_seen, seen + 1) << "two proposals in one event";
      seen = now_seen;
      proposals.push_back(simulator.Now());
    }
  }
  EXPECT_EQ(acks, submitted);
  // 5 s of transactions, one proposal per 200 ms at most.
  ASSERT_GE(proposals.size(), 24u);
  EXPECT_LE(proposals.size(), 26u);
  for (size_t i = 1; i < proposals.size(); ++i) {
    EXPECT_GE(proposals[i] - proposals[i - 1], config.proposal_interval) << "proposal " << i;
  }
}

TEST(MonProposalTest, LoneTransactionOnIdleLeaderCommitsInOneRound) {
  for (sim::Time interval : {1 * sim::kSecond, 200 * sim::kMillisecond}) {
    SCOPED_TRACE(interval);
    Quorum quorum(interval);
    // On a leader that never proposed, then on one that proposed an
    // interval ago and has been idle since.
    EXPECT_LT(quorum.Commit("never-proposed"), 5 * sim::kMillisecond);
    quorum.simulator.RunUntil(quorum.simulator.Now() + interval);
    EXPECT_LT(quorum.Commit("idle-for-an-interval"), 5 * sim::kMillisecond);
  }
}

TEST_F(MonFixture, CrashWithArmedProposalDoesNotWedgeTheRecoveredLeader) {
  MonitorConfig config;
  config.proposal_interval = 1 * sim::kSecond;
  Start(1, config);
  // The first transaction commits at once; the second arms a proposal one
  // interval later, and the monitor crashes before it fires.
  bool first = false;
  daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, "first", "v",
                                        [&](mal::Status s) { first = s.ok(); });
  simulator.RunUntil(simulator.Now() + 5 * sim::kMillisecond);
  ASSERT_TRUE(first);
  daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, "armed", "v", [](mal::Status) {});
  simulator.RunUntil(simulator.Now() + 5 * sim::kMillisecond);
  monitors[0]->Crash();
  simulator.RunUntil(simulator.Now() + 2 * sim::kSecond);
  monitors[0]->Recover();
  simulator.RunUntil(simulator.Now() + 3 * sim::kSecond);
  ASSERT_TRUE(monitors[0]->IsLeader());

  // The recovered leader arms afresh: a new transaction commits.
  bool after = false;
  daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, "after", "v",
                                        [&](mal::Status s) { after = s.ok(); });
  simulator.RunUntil(simulator.Now() + 5 * sim::kSecond);
  EXPECT_TRUE(after);
  EXPECT_EQ(monitors[0]->osd_map().service_metadata.count("after"), 1u);
}

TEST_F(MonFixture, SubscribersReceivePushOnChange) {
  Start(3);
  daemon->mon_client.Subscribe(MapKind::kOsdMap, [] { return Epoch{0}; });
  simulator.RunUntil(simulator.Now() + 1 * sim::kSecond);
  daemon->osd_updates.clear();

  daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, "cls.echo", "v2",
                                        [](mal::Status) {});
  simulator.RunUntil(simulator.Now() + 5 * sim::kSecond);
  ASSERT_GE(daemon->osd_updates.size(), 1u);
  EXPECT_EQ(daemon->osd_updates.back().service_metadata.at("cls.echo"), "v2");
}

TEST_F(MonFixture, SubscribeWithStaleEpochGetsImmediatePush) {
  Start(1);
  daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, "a", "1", [](mal::Status) {});
  simulator.RunUntil(simulator.Now() + 3 * sim::kSecond);
  ASSERT_GE(monitors[0]->osd_map().epoch, 1u);

  daemon->mon_client.Subscribe(MapKind::kOsdMap, [] { return Epoch{0}; });  // way behind
  simulator.RunUntil(simulator.Now() + 1 * sim::kSecond);
  ASSERT_GE(daemon->osd_updates.size(), 1u);
  EXPECT_EQ(daemon->osd_updates.back().epoch, monitors[0]->osd_map().epoch);
}

// Perf reports are the keepalive: many of them time out on one dead
// monitor, yet the session moves once and re-subscribes once, and it stays
// on its new monitor after monitor 0 recovers.
TEST_F(MonFixture, KeepalivesLostOnOneMonitorMoveTheSessionOnce) {
  Start(3);
  daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, "k", "v", [](mal::Status) {});
  daemon->mon_client.Subscribe(MapKind::kOsdMap, [this] { return daemon->osd_epoch; });
  daemon->mon_client.StartPerfReports(daemon->perf, 200 * sim::kMillisecond);
  simulator.RunUntil(simulator.Now() + 2 * sim::kSecond);
  ASSERT_EQ(daemon->osd_updates.size(), 1u);
  daemon->osd_updates.clear();

  // With monitor 0 gone, a commit through the others is never pushed to
  // the daemon, whose subscription lives on monitor 0. 25 reports are
  // pending on monitor 0 when the first one times out.
  const sim::Time lost_at = simulator.Now();
  monitors[0]->Crash();
  TestDaemon admin(&simulator, &network, 1, {1, 2});
  admin.mon_client.SetServiceMetadata(MapKind::kOsdMap, "k", "v2", [](mal::Status) {});
  simulator.RunUntil(simulator.Now() + 8 * sim::kSecond);
  EXPECT_EQ(daemon->mon_client.session(), 1u);
  EXPECT_EQ(daemon->mon_client.session_moves(), 1u);
  // The one re-subscription drew the one push of the missed epoch.
  ASSERT_EQ(daemon->osd_updates.size(), 1u);
  EXPECT_EQ(daemon->osd_updates[0].service_metadata.at("k"), "v2");
  EXPECT_GT(monitors[1]->perf_reports().at("client.0").time_ns, lost_at);

  const sim::Time recovered_at = simulator.Now();
  monitors[0]->Recover();
  simulator.RunUntil(simulator.Now() + 5 * sim::kSecond);
  EXPECT_EQ(daemon->mon_client.session(), 1u);
  EXPECT_EQ(daemon->mon_client.session_moves(), 1u);
  // Monitor 0 keeps its subscriber set, so its catch-up may push the same
  // epoch once more; it never moves the session back.
  EXPECT_EQ(daemon->osd_epoch, monitors[1]->osd_map().epoch);
  EXPECT_GT(monitors[1]->perf_reports().at("client.0").time_ns, recovered_at);
  EXPECT_LT(monitors[0]->perf_reports().at("client.0").time_ns, lost_at);
  daemon->mon_client.Log("INFO", "after recovery");
  simulator.RunUntil(simulator.Now() + 1 * sim::kSecond);
  EXPECT_EQ(monitors[1]->cluster_log().back().message, "after recovery");
}

TEST_F(MonFixture, OsdBootAndFailUpdateMap) {
  Start(1);
  Transaction boot;
  boot.op = Transaction::Op::kOsdBoot;
  boot.daemon_id = 7;
  bool done = false;
  daemon->mon_client.SubmitTransaction(boot, [&](mal::Status s) {
    EXPECT_TRUE(s.ok());
    done = true;
  });
  simulator.RunUntil(simulator.Now() + 3 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(monitors[0]->osd_map().osds.at(7).up);
  EXPECT_EQ(monitors[0]->osd_map().NumUp(), 1u);

  Transaction fail;
  fail.op = Transaction::Op::kOsdFail;
  fail.daemon_id = 7;
  daemon->mon_client.SubmitTransaction(fail, [](mal::Status) {});
  simulator.RunUntil(simulator.Now() + 3 * sim::kSecond);
  EXPECT_FALSE(monitors[0]->osd_map().osds.at(7).up);
}

TEST_F(MonFixture, MdsBootAssignsRanks) {
  Start(1);
  for (uint32_t id : {10u, 11u, 12u}) {
    Transaction boot;
    boot.op = Transaction::Op::kMdsBoot;
    boot.daemon_id = id;
    daemon->mon_client.SubmitTransaction(boot, [](mal::Status) {});
    simulator.RunUntil(simulator.Now() + 2 * sim::kSecond);
  }
  const MdsMap& map = monitors[0]->mds_map();
  EXPECT_EQ(map.NumActive(), 3u);
  EXPECT_EQ(map.mds.at(10).rank, 0);
  EXPECT_EQ(map.mds.at(11).rank, 1);
  EXPECT_EQ(map.mds.at(12).rank, 2);
}

TEST_F(MonFixture, LeaderFailoverElectsNewLeaderAndServes) {
  Start(3);
  ASSERT_TRUE(monitors[0]->IsLeader());
  monitors[0]->Crash();
  simulator.RunUntil(simulator.Now() + 10 * sim::kSecond);
  Monitor* leader = Leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_NE(leader, monitors[0].get());

  // The new leader can still commit (quorum of 2/3).
  bool done = false;
  daemon->SendRequest(leader->name(), kMsgMonCommand, [] {
    Transaction txn;
    txn.op = Transaction::Op::kSetServiceMetadata;
    txn.map_kind = MapKind::kOsdMap;
    txn.key = "post-failover";
    txn.value = "yes";
    mal::Buffer payload;
    mal::Encoder enc(&payload);
    enc(txn);
    return payload;
  }(),
                      [&](mal::Status s, const sim::Envelope&) {
                        EXPECT_TRUE(s.ok()) << s;
                        done = true;
                      },
                      10 * sim::kSecond);
  simulator.RunUntil(simulator.Now() + 10 * sim::kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(leader->osd_map().service_metadata.at("post-failover"), "yes");
}

TEST_F(MonFixture, StateSurvivesLeaderFailover) {
  Start(3);
  daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, "durable", "value",
                                        [](mal::Status) {});
  simulator.RunUntil(simulator.Now() + 4 * sim::kSecond);
  monitors[0]->Crash();
  simulator.RunUntil(simulator.Now() + 10 * sim::kSecond);
  Monitor* leader = Leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->osd_map().service_metadata.at("durable"), "value");
}

TEST_F(MonFixture, ClusterLogCollectsFromDaemons) {
  Start(3);
  daemon->mon_client.Log("WARN", "balancer version changed");
  daemon->mon_client.Log("INFO", "migration complete");
  simulator.RunUntil(simulator.Now() + 2 * sim::kSecond);
  // Every monitor has both entries (fan-out replication).
  for (auto& monitor : monitors) {
    ASSERT_EQ(monitor->cluster_log().size(), 2u) << monitor->name().ToString();
    EXPECT_EQ(monitor->cluster_log()[0].severity, "WARN");
    EXPECT_EQ(monitor->cluster_log()[0].source, "client.0");
    EXPECT_EQ(monitor->cluster_log()[1].message, "migration complete");
  }
}

TEST_F(MonFixture, GetClusterLogReturnsEntries) {
  Start(1);
  daemon->mon_client.Log("INFO", "first entry");
  daemon->mon_client.Log("ERROR", "second entry");
  simulator.RunUntil(simulator.Now() + 1 * sim::kSecond);

  std::optional<std::vector<ClusterLogEntry>> fetched;
  daemon->SendRequest(sim::EntityName::Mon(0), kMsgGetClusterLog, mal::Buffer(),
                      [&](mal::Status s, const sim::Envelope& reply) {
                        ASSERT_TRUE(s.ok()) << s;
                        fetched =
                            mal::Decode<std::vector<ClusterLogEntry>>(reply.payload).value();
                      });
  simulator.RunUntil(simulator.Now() + 2 * sim::kSecond);
  ASSERT_TRUE(fetched.has_value());
  ASSERT_EQ(fetched->size(), 2u);
  EXPECT_EQ((*fetched)[0].message, "first entry");
  EXPECT_EQ((*fetched)[1].severity, "ERROR");
}

TEST_F(MonFixture, FasterProposalIntervalCommitsSooner) {
  // Mirrors the Fig 8 discussion: 1 s default proposal interval vs a
  // reduced one. Each transaction is submitted right after the previous
  // one commits, so all but the first wait out the interval; compare the
  // mean commit latency.
  auto mean_commit = [](sim::Time interval) {
    Quorum quorum(interval);
    constexpr int kTxns = 5;
    sim::Time total = 0;
    for (int i = 0; i < kTxns; ++i) {
      total += quorum.Commit("k" + std::to_string(i));
    }
    return total / kTxns;
  };
  sim::Time slow = mean_commit(1 * sim::kSecond);
  sim::Time fast = mean_commit(200 * sim::kMillisecond);
  EXPECT_LT(fast, slow);
}

TEST_F(MonFixture, LeaderRestartRejoinsWithoutSplittingEpochs) {
  MonitorConfig config;
  config.proposal_interval = 200 * sim::kMillisecond;
  Start(3, config);
  Monitor* old_leader = Leader();
  ASSERT_NE(old_leader, nullptr);
  daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, "pre", "1", [](mal::Status) {});
  simulator.RunUntil(simulator.Now() + 3 * sim::kSecond);
  Epoch epoch_before = old_leader->osd_map().epoch;

  old_leader->Crash();
  simulator.RunUntil(simulator.Now() + 8 * sim::kSecond);
  Monitor* new_leader = Leader();
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader, old_leader);

  // Commit through the new leader while the old one is down.
  bool committed = false;
  daemon->mon_client.SetServiceMetadata(MapKind::kOsdMap, "post", "2",
                                        [&](mal::Status s) { committed = s.ok(); });
  // The client may burn a full RPC timeout discovering the dead monitor
  // before it rotates to a live one.
  simulator.RunUntil(simulator.Now() + 15 * sim::kSecond);
  ASSERT_TRUE(committed);

  old_leader->Recover();
  simulator.RunUntil(simulator.Now() + 10 * sim::kSecond);

  // Exactly one leader remains; the restarted monitor re-entered Paxos as
  // a peer and caught up: identical maps everywhere, epochs only forward.
  int leaders = 0;
  for (auto& monitor : monitors) {
    leaders += monitor->IsLeader() ? 1 : 0;
  }
  EXPECT_EQ(leaders, 1);
  for (auto& monitor : monitors) {
    EXPECT_GE(monitor->osd_map().epoch, epoch_before + 1);
    EXPECT_EQ(monitor->osd_map().service_metadata.at("post"), "2")
        << monitor->name().ToString();
    EXPECT_EQ(monitor->osd_map().epoch, monitors[0]->osd_map().epoch)
        << monitor->name().ToString();
  }
}

}  // namespace
}  // namespace mal::mon
