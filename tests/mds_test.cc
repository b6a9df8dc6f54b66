// Tests for the metadata service: typed inodes, the capability/lease state
// machine with all policies, routing modes, migration, load reporting, and
// the stock CephFS balancer.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "src/mds/mds.h"
#include "src/mds/mds_client.h"
#include "src/mon/maps.h"
#include "src/mon/monitor.h"

namespace mal::mds {

// Names the routing-mode test parameter in test listings.
void PrintTo(RoutingMode mode, std::ostream* os) {
  *os << (mode == RoutingMode::kProxy ? "Proxy" : "Redirect");
}

namespace {

class MdsAppClient : public sim::Actor {
 public:
  MdsAppClient(sim::Simulator* simulator, sim::Network* network, uint32_t id,
               MdsClientConfig config = {})
      : Actor(simulator, network, sim::EntityName::Client(id)), mds(this, config) {}

  MdsClient mds;

 protected:
  void HandleRequest(const sim::Envelope& request) override { mds.OnMessage(request); }
};

class MdsFixture : public ::testing::Test {
 protected:
  void Start(uint32_t num_mds, MdsConfig config = {}, uint32_t num_clients = 2) {
    mon::MonitorConfig mon_config;
    mon_config.proposal_interval = 200 * sim::kMillisecond;
    monitor = std::make_unique<mon::Monitor>(&simulator, &network, 0,
                                             std::vector<uint32_t>{0}, mon_config);
    monitor->Boot();
    for (uint32_t i = 0; i < num_mds; ++i) {
      mds.push_back(std::make_unique<MdsDaemon>(&simulator, &network, i,
                                                std::vector<uint32_t>{0}, config));
      mds.back()->Boot();
    }
    for (uint32_t i = 0; i < num_clients; ++i) {
      clients.push_back(std::make_unique<MdsAppClient>(&simulator, &network, i));
    }
    Settle(3 * sim::kSecond);
  }

  void Settle(sim::Time duration) { simulator.RunUntil(simulator.Now() + duration); }

  Status CreateSequencer(const std::string& path, const LeasePolicy& policy,
                         uint32_t client = 0) {
    std::optional<Status> result;
    clients[client]->mds.Create(path, InodeType::kSequencer, policy,
                                [&](Status s) { result = s; });
    Settle(3 * sim::kSecond);
    return result.value_or(Status::TimedOut("no callback"));
  }

  Result<uint64_t> Next(const std::string& path, uint32_t client = 0) {
    std::optional<Result<uint64_t>> result;
    clients[client]->mds.SeqNextBatch(path, 1, [&](Status s, uint64_t pos, bool) {
      result = s.ok() ? Result<uint64_t>(pos) : Result<uint64_t>(s);
    });
    Settle(3 * sim::kSecond);
    if (!result.has_value()) {
      return Status::TimedOut("no callback");
    }
    return *result;
  }

  sim::Simulator simulator;
  sim::Network network{&simulator};
  std::unique_ptr<mon::Monitor> monitor;
  std::vector<std::unique_ptr<MdsDaemon>> mds;
  std::vector<std::unique_ptr<MdsAppClient>> clients;
};

LeasePolicy RoundTrip() {
  LeasePolicy p;
  p.mode = LeaseMode::kRoundTrip;
  return p;
}

TEST_F(MdsFixture, CreateAndLookup) {
  Start(1);
  ASSERT_TRUE(CreateSequencer("/logs/seq0", RoundTrip()).ok());
  std::optional<Inode> found;
  clients[0]->mds.Lookup("/logs/seq0", [&](Status s, const MdsReply& reply) {
    ASSERT_TRUE(s.ok()) << s;
    found = reply.inode;
  });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->type, InodeType::kSequencer);
  EXPECT_EQ(CreateSequencer("/logs/seq0", RoundTrip()).code(), Code::kAlreadyExists);
}

TEST_F(MdsFixture, LookupMissingFails) {
  Start(1);
  std::optional<Status> status;
  clients[0]->mds.Lookup("/nope", [&](Status s, const MdsReply&) { status = s; });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), Code::kNotFound);
}

TEST_F(MdsFixture, SequencerRoundTripTotalOrder) {
  Start(1);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  for (uint64_t expected = 0; expected < 5; ++expected) {
    auto pos = Next("/seq", expected % 2);  // alternate clients
    ASSERT_TRUE(pos.ok()) << pos.status();
    EXPECT_EQ(pos.value(), expected);
  }
}

TEST_F(MdsFixture, SeqNextOnNonSequencerFails) {
  Start(1);
  std::optional<Status> created;
  clients[0]->mds.Create("/plain", InodeType::kFile, LeasePolicy{},
                         [&](Status s) { created = s; });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(created.has_value() && created->ok());
  EXPECT_EQ(Next("/plain").status().code(), Code::kInvalidArgument);
}

TEST_F(MdsFixture, CapGrantAllowsLocalIncrements) {
  Start(1);
  LeasePolicy policy;
  policy.mode = LeaseMode::kBestEffort;
  ASSERT_TRUE(CreateSequencer("/seq", policy).ok());

  bool granted = false;
  clients[0]->mds.AcquireCap("/seq", [&](Status s) {
    ASSERT_TRUE(s.ok()) << s;
    granted = true;
  });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(granted);
  ASSERT_TRUE(clients[0]->mds.HasCap("/seq"));
  for (uint64_t expected = 0; expected < 100; ++expected) {
    auto pos = clients[0]->mds.LocalNextBatch("/seq", 1);
    ASSERT_TRUE(pos.ok());
    EXPECT_EQ(pos.value(), expected);
  }
}

TEST_F(MdsFixture, RoundTripInodeRefusesCaps) {
  Start(1);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  std::optional<Status> status;
  clients[0]->mds.AcquireCap("/seq", [&](Status s) { status = s; });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), Code::kPermissionDenied);
}

TEST_F(MdsFixture, BestEffortRevokePassesCapAndPreservesOrder) {
  Start(1);
  LeasePolicy policy;
  policy.mode = LeaseMode::kBestEffort;
  ASSERT_TRUE(CreateSequencer("/seq", policy).ok());

  // Client 0 takes the cap and advances the tail locally.
  bool lost = false;
  clients[0]->mds.on_cap_lost = [&](const std::string&) { lost = true; };
  clients[0]->mds.AcquireCap("/seq", [](Status) {});
  Settle(2 * sim::kSecond);
  for (int i = 0; i < 42; ++i) {
    ASSERT_TRUE(clients[0]->mds.LocalNextBatch("/seq", 1).ok());
  }

  // Client 1 wants it: best-effort => client 0 releases promptly.
  bool granted1 = false;
  clients[1]->mds.AcquireCap("/seq", [&](Status s) {
    ASSERT_TRUE(s.ok()) << s;
    granted1 = true;
  });
  Settle(5 * sim::kSecond);
  ASSERT_TRUE(granted1);
  ASSERT_TRUE(lost);
  EXPECT_FALSE(clients[0]->mds.HasCap("/seq"));
  // The tail client 1 sees continues after client 0's 42 increments.
  auto pos = clients[1]->mds.LocalNextBatch("/seq", 1);
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(pos.value(), 42u);
}

TEST_F(MdsFixture, DelayPolicyHoldsCapForReservation) {
  Start(1);
  LeasePolicy policy;
  policy.mode = LeaseMode::kDelay;
  policy.max_hold_ns = 500 * sim::kMillisecond;
  ASSERT_TRUE(CreateSequencer("/seq", policy).ok());

  clients[0]->mds.AcquireCap("/seq", [](Status) {});
  Settle(100 * sim::kMillisecond);
  sim::Time grant_time = simulator.Now();

  sim::Time granted_at = 0;
  clients[1]->mds.AcquireCap("/seq", [&](Status s) {
    ASSERT_TRUE(s.ok());
    granted_at = simulator.Now();
  });
  Settle(2 * sim::kSecond);
  ASSERT_GT(granted_at, 0u);
  // Client 0 held the cap for ~its full reservation before yielding.
  EXPECT_GE(granted_at - grant_time, 300 * sim::kMillisecond);
}

TEST_F(MdsFixture, QuotaPolicyYieldsAfterQuotaOps) {
  Start(1);
  LeasePolicy policy;
  policy.mode = LeaseMode::kQuota;
  policy.quota = 10;
  policy.max_hold_ns = 60 * sim::kSecond;  // quota, not time, is the binding term
  ASSERT_TRUE(CreateSequencer("/seq", policy).ok());

  clients[0]->mds.AcquireCap("/seq", [](Status) {});
  Settle(1 * sim::kSecond);
  ASSERT_TRUE(clients[0]->mds.HasCap("/seq"));

  bool granted1 = false;
  clients[1]->mds.AcquireCap("/seq", [&](Status s) {
    ASSERT_TRUE(s.ok());
    granted1 = true;
  });
  Settle(1 * sim::kSecond);  // revoke delivered; quota not yet exhausted
  EXPECT_FALSE(granted1);

  // Client 0 keeps allocating; at the 10th op it must yield.
  int allocated = 0;
  while (clients[0]->mds.HasCap("/seq") && allocated < 100) {
    if (clients[0]->mds.LocalNextBatch("/seq", 1).ok()) {
      ++allocated;
    }
    Settle(sim::kMillisecond);
  }
  EXPECT_EQ(allocated, 10);
  Settle(2 * sim::kSecond);
  EXPECT_TRUE(granted1);
}

TEST_F(MdsFixture, SetPolicyReprogramsLiveInode) {
  Start(1);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  ASSERT_TRUE(Next("/seq").ok());

  LeasePolicy cached;
  cached.mode = LeaseMode::kBestEffort;
  std::optional<Status> set;
  clients[0]->mds.SetPolicy("/seq", cached, [&](Status s) { set = s; });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(set.has_value() && set->ok());

  bool granted = false;
  clients[0]->mds.AcquireCap("/seq", [&](Status s) { granted = s.ok(); });
  Settle(2 * sim::kSecond);
  EXPECT_TRUE(granted);
}

TEST_F(MdsFixture, ProxyModeForwardsAfterMigration) {
  MdsConfig config;
  config.routing = RoutingMode::kProxy;
  Start(2, config);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  ASSERT_EQ(Next("/seq").value(), 0u);

  std::optional<Status> migrated;
  mds[0]->Migrate("/seq", 1, [&](Status s) { migrated = s; });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(migrated.has_value());
  ASSERT_TRUE(migrated->ok()) << *migrated;
  EXPECT_EQ(mds[1]->AuthorityOf("/seq"), 1u);
  EXPECT_EQ(mds[0]->AuthorityOf("/seq"), 1u);

  // Client still talks to mds.0, which forwards: order continues.
  auto pos = Next("/seq");
  ASSERT_TRUE(pos.ok()) << pos.status();
  EXPECT_EQ(pos.value(), 1u);
  EXPECT_GT(mds[1]->requests_handled(), 0u);
}

TEST_F(MdsFixture, RedirectModeSendsClientsToNewAuthority) {
  MdsConfig config;
  config.routing = RoutingMode::kRedirect;
  Start(2, config);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  ASSERT_EQ(Next("/seq").value(), 0u);

  std::optional<Status> migrated;
  mds[0]->Migrate("/seq", 1, [&](Status s) { migrated = s; });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(migrated.has_value() && migrated->ok());

  uint64_t handled_by_1_before = mds[1]->requests_handled();
  auto pos = Next("/seq");
  ASSERT_TRUE(pos.ok()) << pos.status();
  EXPECT_EQ(pos.value(), 1u);
  // mds.1 now serves the client directly (redirect was followed).
  EXPECT_GT(mds[1]->requests_handled(), handled_by_1_before);
}

TEST_F(MdsFixture, MigrationWithHeldCapIsRefused) {
  Start(2);
  LeasePolicy policy;
  policy.mode = LeaseMode::kBestEffort;
  ASSERT_TRUE(CreateSequencer("/seq", policy).ok());
  clients[0]->mds.AcquireCap("/seq", [](Status) {});
  Settle(2 * sim::kSecond);

  std::optional<Status> migrated;
  mds[0]->Migrate("/seq", 1, [&](Status s) { migrated = s; });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(migrated.has_value());
  EXPECT_EQ(migrated->code(), Code::kUnavailable);
}

// Migration under load, in both routing modes: grants that arrive while the
// inode is in flight wait for the transfer and then follow it, so the source
// never keeps serving a copy the target has already taken over.
class MdsMigrationRoutingTest : public MdsFixture,
                                public ::testing::WithParamInterface<RoutingMode> {};

TEST_P(MdsMigrationRoutingTest, MigrationUnderRoundTripLoadGrantsEachPositionOnce) {
  MdsConfig config;
  config.routing = GetParam();
  Start(2, config, /*num_clients=*/4);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());

  std::vector<uint64_t> granted;
  uint64_t failed = 0;
  bool running = true;
  std::function<void(size_t)> loop = [&](size_t c) {
    clients[c]->mds.SeqNextBatch("/seq", 1, [&, c](Status s, uint64_t pos, bool) {
      if (s.ok()) {
        granted.push_back(pos);
      } else {
        ++failed;
      }
      if (running) {
        loop(c);
      }
    });
  };
  for (size_t c = 0; c < clients.size(); ++c) {
    loop(c);
  }
  Settle(200 * sim::kMillisecond);
  std::optional<Status> migrated;
  mds[0]->Migrate("/seq", 1, [&](Status s) { migrated = s; });
  Settle(1 * sim::kSecond);
  running = false;
  Settle(2 * sim::kSecond);  // drain the last round trips

  ASSERT_TRUE(migrated.has_value() && migrated->ok());
  EXPECT_EQ(mds[0]->GetInode("/seq"), nullptr);
  ASSERT_NE(mds[1]->GetInode("/seq"), nullptr);
  EXPECT_EQ(failed, 0u);
  std::sort(granted.begin(), granted.end());
  size_t duplicates = 0;
  for (size_t i = 1; i < granted.size(); ++i) {
    duplicates += granted[i] == granted[i - 1] ? 1 : 0;
  }
  EXPECT_EQ(duplicates, 0u) << "of " << granted.size() << " grants";
  // The target continued the sequence: every grant, before and after the
  // move, is one position of a gap-free prefix.
  ASSERT_FALSE(granted.empty());
  EXPECT_EQ(granted.back() + 1, granted.size());
  EXPECT_EQ(mds[1]->GetInode("/seq")->seq_tail, granted.size());
}

// A name unlinked on the rank it migrated to stays with that rank: the root
// still routes the name there, so neither rank may hand it back to the other.
TEST_P(MdsMigrationRoutingTest, UnlinkAfterMigrationKeepsTheNameReachable) {
  MdsConfig config;
  config.routing = GetParam();
  Start(2, config);
  auto request = [&](MdsOp op) {
    ClientRequest req;
    req.op = op;
    req.path = "/f";
    std::optional<Status> result;
    clients[0]->mds.Request(req, [&](Status s, const MdsReply&) { result = s; });
    Settle(3 * sim::kSecond);
    return result.value_or(Status::TimedOut("no callback"));
  };
  ASSERT_TRUE(request(MdsOp::kCreate).ok());
  std::optional<Status> migrated;
  mds[0]->Migrate("/f", 1, [&](Status s) { migrated = s; });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(migrated.has_value() && migrated->ok());

  ASSERT_TRUE(request(MdsOp::kUnlink).ok());
  EXPECT_EQ(request(MdsOp::kLookup).code(), Code::kNotFound);
  Status created = request(MdsOp::kCreate);
  EXPECT_TRUE(created.ok()) << created;
  EXPECT_TRUE(request(MdsOp::kLookup).ok());
}

INSTANTIATE_TEST_SUITE_P(Routing, MdsMigrationRoutingTest,
                         ::testing::Values(RoutingMode::kProxy, RoutingMode::kRedirect));

// The three ways a rank sends a request it no longer serves onward.
enum class RoutingCase { kProxy, kRedirect, kSeqOwnership };

void PrintTo(RoutingCase routing, std::ostream* os) {
  *os << (routing == RoutingCase::kProxy      ? "Proxy"
          : routing == RoutingCase::kRedirect ? "Redirect"
                                              : "SeqOwnership");
}

// An open-loop grant stream above the rank's service rate keeps the work
// queue full across the migration commit, so some grants are admitted while
// the source still hosts the inode and leave the queue after it is gone.
// Routing is taken again when they leave the queue: they follow the inode
// and are served there, never answered kNotFound (which ZLog reads as
// "take the log over").
class MdsOpenLoopMigrationTest : public MdsFixture,
                                 public ::testing::WithParamInterface<RoutingCase> {};

TEST_P(MdsOpenLoopMigrationTest, GrantsQueuedAcrossCommitFollowTheInode) {
  MdsConfig config;
  config.routing = GetParam() == RoutingCase::kRedirect ? RoutingMode::kRedirect
                                                        : RoutingMode::kProxy;
  config.seq_ownership = GetParam() == RoutingCase::kSeqOwnership;
  Start(2, config);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());

  // One grant every 100 us against a 110 us service time at the root rank.
  constexpr sim::Time kGap = 100 * sim::kMicrosecond;
  std::vector<uint64_t> granted;
  uint64_t issued = 0;
  uint64_t not_found = 0;
  uint64_t failed = 0;
  bool running = true;
  std::function<void()> arrive = [&] {
    if (!running) {
      return;
    }
    clients[issued % clients.size()]->mds.SeqNextBatch(
        "/seq", 1, [&](Status s, uint64_t pos, bool) {
          if (s.ok()) {
            granted.push_back(pos);
          } else {
            ++failed;
            not_found += s.code() == Code::kNotFound ? 1 : 0;
          }
        });
    ++issued;
    simulator.Schedule(kGap, arrive);
  };
  arrive();
  Settle(200 * sim::kMillisecond);
  ASSERT_GT(mds[0]->queued_requests(), 0u);
  std::optional<Status> migrated;
  mds[0]->Migrate("/seq", 1, [&](Status s) { migrated = s; });
  Settle(200 * sim::kMillisecond);
  running = false;
  Settle(5 * sim::kSecond);  // drain the backlog on both ranks

  ASSERT_TRUE(migrated.has_value() && migrated->ok());
  EXPECT_EQ(mds[0]->GetInode("/seq"), nullptr);
  ASSERT_NE(mds[1]->GetInode("/seq"), nullptr);
  EXPECT_EQ(not_found, 0u);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(granted.size(), issued);
  std::sort(granted.begin(), granted.end());
  size_t duplicates = 0;
  for (size_t i = 1; i < granted.size(); ++i) {
    duplicates += granted[i] == granted[i - 1] ? 1 : 0;
  }
  EXPECT_EQ(duplicates, 0u) << "of " << granted.size() << " grants";
  ASSERT_FALSE(granted.empty());
  EXPECT_EQ(granted.back() + 1, granted.size());
  EXPECT_EQ(mds[1]->GetInode("/seq")->seq_tail, granted.size());
}

INSTANTIATE_TEST_SUITE_P(Routing, MdsOpenLoopMigrationTest,
                         ::testing::Values(RoutingCase::kProxy, RoutingCase::kRedirect,
                                           RoutingCase::kSeqOwnership));

// A forward that reaches a rank after the inode moved on is not proxied a
// second time by that rank: it answers one kWrongRank. The proxy follows
// it once for its client, which stays on its session rank.
TEST_F(MdsFixture, BouncedForwardIsFollowedByItsProxy) {
  MdsConfig config;
  config.routing = RoutingMode::kProxy;
  Start(3, config);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  std::optional<Status> migrated;
  mds[0]->Migrate("/seq", 1, [&](Status s) { migrated = s; });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(migrated.has_value() && migrated->ok());
  ASSERT_EQ(Next("/seq").value(), 0u);  // proxied by mds.0 to mds.1

  // mds.0 forwards the next grant to mds.1, where it waits on the freeze
  // until the inode has moved on to mds.2.
  migrated.reset();
  uint64_t proxied = mds[0]->perf().counter("mds.proxied");
  std::optional<Result<uint64_t>> pos;
  clients[0]->mds.SeqNextBatch("/seq", 1, [&](Status s, uint64_t first, bool) {
    pos = s.ok() ? Result<uint64_t>(first) : Result<uint64_t>(s);
  });
  mds[1]->Migrate("/seq", 2, [&](Status s) { migrated = s; });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(migrated.has_value() && migrated->ok());
  ASSERT_TRUE(pos.has_value());
  ASSERT_TRUE(pos->ok()) << pos->status();
  EXPECT_EQ(pos->value(), 1u);
  EXPECT_EQ(mds[1]->perf().counter("mds.seq.redirects"), 1u);
  EXPECT_EQ(mds[0]->perf().counter("mds.proxied"), proxied + 2);  // forward + follow

  // The client never saw the redirect: its next grant is proxied again.
  ASSERT_EQ(Next("/seq").value(), 2u);
  EXPECT_EQ(mds[0]->perf().counter("mds.proxied"), proxied + 3);
}

// When the followed forward bounces too (the inode moved twice), the
// second redirect reaches the client as one kWrongRank, and the client
// follows it to the rank that now serves the path.
TEST_F(MdsFixture, SecondBounceReachesClientAsOneRedirect) {
  MdsConfig config;
  config.routing = RoutingMode::kProxy;
  Start(4, config);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  std::optional<Status> migrated;
  mds[0]->Migrate("/seq", 1, [&](Status s) { migrated = s; });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(migrated.has_value() && migrated->ok());
  ASSERT_EQ(Next("/seq").value(), 0u);

  // The grant waits on mds.1's freeze; the moment mds.1 commits, mds.2
  // freezes the inode for mds.3, so the followed forward waits there too.
  migrated.reset();
  std::optional<Status> migrated_again;
  mds[1]->on_migration = [&](const std::string& path, uint32_t) {
    mds[2]->Migrate(path, 3, [&](Status s) { migrated_again = s; });
  };
  std::optional<Result<uint64_t>> pos;
  clients[0]->mds.SeqNextBatch("/seq", 1, [&](Status s, uint64_t first, bool) {
    pos = s.ok() ? Result<uint64_t>(first) : Result<uint64_t>(s);
  });
  mds[1]->Migrate("/seq", 2, [&](Status s) { migrated = s; });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(migrated.has_value() && migrated->ok());
  ASSERT_TRUE(migrated_again.has_value() && migrated_again->ok());
  ASSERT_TRUE(pos.has_value());
  ASSERT_TRUE(pos->ok()) << pos->status();
  EXPECT_EQ(pos->value(), 1u);
  EXPECT_EQ(mds[1]->perf().counter("mds.seq.redirects"), 1u);
  EXPECT_EQ(mds[2]->perf().counter("mds.seq.redirects"), 1u);

  // The client cached the redirect: its next grant goes straight to mds.3.
  uint64_t proxied = mds[0]->perf().counter("mds.proxied");
  uint64_t handled_by_3 = mds[3]->requests_handled();
  ASSERT_EQ(Next("/seq").value(), 2u);
  EXPECT_EQ(mds[0]->perf().counter("mds.proxied"), proxied);
  EXPECT_EQ(mds[3]->requests_handled(), handled_by_3 + 1);
}

TEST_F(MdsFixture, MutationDuringMigrationLandsOnTarget) {
  Start(2);
  std::optional<Status> created;
  clients[0]->mds.Create("/file", InodeType::kFile, LeasePolicy{},
                         [&](Status s) { created = s; });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(created.has_value() && created->ok());

  std::optional<Status> migrated;
  mds[0]->Migrate("/file", 1, [&](Status s) { migrated = s; });
  ClientRequest set_size;
  set_size.op = MdsOp::kSetSize;
  set_size.path = "/file";
  set_size.seq_value = 4096;
  std::optional<Status> written;
  clients[0]->mds.Request(set_size, [&](Status s, const MdsReply&) { written = s; });
  Settle(3 * sim::kSecond);

  ASSERT_TRUE(migrated.has_value() && migrated->ok());
  ASSERT_TRUE(written.has_value());
  ASSERT_TRUE(written->ok()) << *written;
  EXPECT_EQ(mds[0]->GetInode("/file"), nullptr);
  ASSERT_NE(mds[1]->GetInode("/file"), nullptr);
  EXPECT_EQ(mds[1]->GetInode("/file")->size, 4096u);
}

// ---- sharded sequencer ownership (seq_ownership) -----------------------------

TEST_F(MdsFixture, ShardedHandoffMovesOwnershipAndFollowsRedirect) {
  MdsConfig config;
  config.seq_ownership = true;
  Start(2, config);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  ASSERT_EQ(Next("/seq").value(), 0u);
  ASSERT_EQ(Next("/seq").value(), 1u);
  // Creation published the birth rank into the monitor map.
  EXPECT_EQ(mon::SeqOwnerOf(monitor->mds_map(), "/seq"), std::optional<uint32_t>(0));

  std::optional<Status> migrated;
  mds[0]->MigrateSequencer("/seq", 1, [&](Status s) { migrated = s; });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(migrated.has_value());
  ASSERT_TRUE(migrated->ok()) << *migrated;
  EXPECT_EQ(mds[0]->GetInode("/seq"), nullptr);
  ASSERT_NE(mds[1]->GetInode("/seq"), nullptr);
  EXPECT_EQ(mds[1]->GetInode("/seq")->seq_tail, 2u);
  // The new owner republished the map entry.
  EXPECT_EQ(mon::SeqOwnerOf(monitor->mds_map(), "/seq"), std::optional<uint32_t>(1));

  // The client's next grant chases the kWrongRank redirect and continues
  // the position sequence — nothing reissued, nothing skipped.
  auto pos = Next("/seq");
  ASSERT_TRUE(pos.ok()) << pos.status();
  EXPECT_EQ(pos.value(), 2u);
  EXPECT_GE(mds[0]->perf().counter("mds.migrations"), 1u);
  EXPECT_GE(mds[1]->perf().counter("mds.migrations_in"), 1u);
  EXPECT_GE(mds[0]->perf().counter("mds.seq.redirects"), 1u);
}

TEST_F(MdsFixture, CrashMidHandoffRecoversWithoutPositionReuse) {
  MdsConfig config;
  config.seq_ownership = true;
  Start(2, config);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  for (uint64_t expected = 0; expected < 5; ++expected) {
    ASSERT_EQ(Next("/seq").value(), expected);
  }
  // The freeze (journaled migrating_to marker) lands, then the rank dies
  // before the transfer RPC leaves the CPU queue.
  mds[0]->MigrateSequencer("/seq", 1, [](Status) {});
  mds[0]->Crash();
  Settle(2 * sim::kSecond);
  mds[0]->Recover();
  Settle(3 * sim::kSecond);

  // Recovery re-drove the journaled handoff: rank 1 owns the inode and the
  // grant counter survived intact.
  ASSERT_NE(mds[1]->GetInode("/seq"), nullptr);
  EXPECT_GE(mds[1]->GetInode("/seq")->seq_tail, 5u);
  EXPECT_EQ(mds[0]->GetInode("/seq"), nullptr);
  EXPECT_EQ(mon::SeqOwnerOf(monitor->mds_map(), "/seq"), std::optional<uint32_t>(1));

  // The committed prefix 0..4 is never reissued, and no grant was lost.
  auto pos = Next("/seq");
  ASSERT_TRUE(pos.ok()) << pos.status();
  EXPECT_EQ(pos.value(), 5u);
}

TEST_F(MdsFixture, RedirectChaseTerminatesWhenOwnerIsDown) {
  MdsConfig config;
  config.seq_ownership = true;
  Start(2, config);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  std::optional<Status> migrated;
  mds[0]->MigrateSequencer("/seq", 1, [&](Status s) { migrated = s; });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(migrated.has_value() && migrated->ok());
  mds[1]->Crash();

  // Every redirect names the dead owner; the chase must burn through the
  // retry budget and surface an error instead of looping forever.
  MdsClientConfig client_config;
  client_config.rpc_timeout = 1 * sim::kSecond;
  auto chaser = std::make_unique<MdsAppClient>(&simulator, &network, 99, client_config);
  std::optional<Status> result;
  chaser->mds.SeqNextBatch("/seq", 1, [&](Status s, uint64_t, bool) { result = s; });
  Settle(20 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok());
}

TEST_F(MdsFixture, OwnershipSweepDemotesStaleHostToPublishedOwner) {
  MdsConfig config;
  config.seq_ownership = true;
  Start(2, config);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Next("/seq").ok());
  }
  // Force the map to name rank 1 while rank 0 still hosts (the state after
  // a lost publish or a takeover the old owner slept through). The sweep on
  // the next map update must demote rank 0's copy to the published owner,
  // max-merging the tail.
  mds[0]->mon_client().SetServiceMetadata(mon::MapKind::kMdsMap,
                                          mon::SeqOwnerKey("/seq"), "1", [](Status) {});
  Settle(5 * sim::kSecond);
  EXPECT_EQ(mds[0]->GetInode("/seq"), nullptr);
  ASSERT_NE(mds[1]->GetInode("/seq"), nullptr);
  EXPECT_GE(mds[1]->GetInode("/seq")->seq_tail, 3u);
  EXPECT_GE(mds[0]->perf().counter("mds.seq.demotions"), 1u);
  auto pos = Next("/seq");
  ASSERT_TRUE(pos.ok()) << pos.status();
  EXPECT_GE(pos.value(), 3u);
}

TEST_F(MdsFixture, LoadReportsPropagateToPeers) {
  MdsConfig config;
  config.load_report_interval = 1 * sim::kSecond;
  Start(3, config);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(Next("/seq").ok());
  }
  Settle(3 * sim::kSecond);
  // Every MDS sees mds.0's load including the hot subtree.
  for (auto& daemon : mds) {
    const auto& table = daemon->load_table();
    ASSERT_EQ(table.count(0), 1u) << daemon->name().ToString();
    EXPECT_GT(table.at(0).req_rate, 0.0);
  }
}

TEST_F(MdsFixture, CoherenceCostChargedAtNonRootAuthority) {
  // Client (redirect) mode: serving a migrated inode directly strains both
  // the serving MDS and the root — visible as CPU utilization.
  MdsConfig config;
  config.routing = RoutingMode::kRedirect;
  config.coherence_self_cost = 500 * sim::kMicrosecond;
  config.coherence_peer_cost = 500 * sim::kMicrosecond;
  Start(2, config);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  mds[0]->Migrate("/seq", 1, [](Status) {});
  Settle(3 * sim::kSecond);

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(Next("/seq").ok());
  }
  // Root (mds.0) was strained by scatter-gather despite serving nothing.
  EXPECT_GT(mds[0]->CpuUtilization(10 * sim::kSecond), 0.0);
  EXPECT_GT(mds[1]->CpuUtilization(10 * sim::kSecond), 0.0);
}

// ---- balancer policies -------------------------------------------------------

BalancerContext MakeContext(uint32_t whoami, std::vector<double> loads) {
  BalancerContext ctx;
  ctx.whoami = whoami;
  for (uint32_t i = 0; i < loads.size(); ++i) {
    LoadMetrics m;
    m.req_rate = loads[i];
    m.load = loads[i];
    m.cpu = loads[i] / 10000.0;
    ctx.mds[i] = m;
  }
  return ctx;
}

TEST(CephFsBalancerTest, NoMigrationWhenBalanced) {
  CephFsBalancer balancer(CephFsMode::kWorkload);
  auto targets = balancer.Decide(MakeContext(0, {100, 100, 100}));
  ASSERT_TRUE(targets.ok());
  EXPECT_TRUE(targets.value().empty());
}

TEST(CephFsBalancerTest, OverloadedServerExportsToUnderloaded) {
  CephFsBalancer balancer(CephFsMode::kWorkload);
  auto targets = balancer.Decide(MakeContext(0, {300, 10, 20}));
  ASSERT_TRUE(targets.ok());
  ASSERT_EQ(targets.value().size(), 2u);
  // Exports shed the overload above the mean (mean=110, shed=190).
  double total = targets.value().at(1) + targets.value().at(2);
  EXPECT_NEAR(total, 190.0, 1.0);
  // More goes to the emptier server.
  EXPECT_GT(targets.value().at(1), targets.value().at(2));
}

TEST(CephFsBalancerTest, UnderloadedServerStaysPut) {
  CephFsBalancer balancer(CephFsMode::kWorkload);
  auto targets = balancer.Decide(MakeContext(1, {300, 10, 20}));
  ASSERT_TRUE(targets.ok());
  EXPECT_TRUE(targets.value().empty());
}

TEST(CephFsBalancerTest, AllModesAgreeOnProportionalLoads) {
  // When cpu and req_rate tell the same story, all three modes decide to
  // migrate (the Fig 10a observation that they perform alike here).
  for (CephFsMode mode : {CephFsMode::kCpu, CephFsMode::kWorkload, CephFsMode::kHybrid}) {
    CephFsBalancer balancer(mode);
    auto targets = balancer.Decide(MakeContext(0, {300, 10, 20}));
    ASSERT_TRUE(targets.ok()) << CephFsModeName(mode);
    EXPECT_FALSE(targets.value().empty()) << CephFsModeName(mode);
  }
}

TEST(PickSubtreesTest, GreedyFillsAmount) {
  std::vector<SubtreeLoad> subtrees = {
      {"/a", 50}, {"/b", 30}, {"/c", 20}, {"/d", 5}};
  auto picked = PickSubtreesForLoad(subtrees, 60);
  double total = 0;
  for (const std::string& path : picked) {
    for (const SubtreeLoad& s : subtrees) {
      if (s.path == path) {
        total += s.rate;
      }
    }
  }
  EXPECT_GE(total, 50.0);
  EXPECT_LE(total, 85.0);
}

TEST(PickSubtreesTest, ZeroAmountPicksNothing) {
  EXPECT_TRUE(PickSubtreesForLoad({{"/a", 50}}, 0).empty());
}

TEST(PickSubtreesTest, HalfLoadPicksHalf) {
  // The paper's migration-unit experiment: "Half" sends ~load/2.
  std::vector<SubtreeLoad> subtrees = {{"/seq1", 100}, {"/seq2", 100}};
  auto picked = PickSubtreesForLoad(subtrees, 100);
  EXPECT_EQ(picked.size(), 1u);
  auto all = PickSubtreesForLoad(subtrees, 200);
  EXPECT_EQ(all.size(), 2u);
}

TEST_F(MdsFixture, BalancerMigratesHotSequencersAutomatically) {
  MdsConfig config;
  config.balancing_enabled = true;
  config.balance_interval = 5 * sim::kSecond;
  config.load_report_interval = 2 * sim::kSecond;
  Start(3, config, /*num_clients=*/1);
  for (auto& daemon : mds) {
    daemon->SetBalancerPolicy(
        std::make_shared<CephFsBalancer>(CephFsMode::kWorkload, 1.1));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(CreateSequencer("/seq" + std::to_string(i), RoundTrip()).ok());
  }
  int migrations = 0;
  for (auto& daemon : mds) {
    daemon->on_migration = [&migrations](const std::string&, uint32_t) { ++migrations; };
  }
  // Drive load against all 3 sequencers (all initially on mds.0).
  for (int round = 0; round < 120; ++round) {
    for (int s = 0; s < 3; ++s) {
      clients[0]->mds.SeqNextBatch("/seq" + std::to_string(s), 1,
                                   [](Status, uint64_t, bool) {});
    }
    Settle(200 * sim::kMillisecond);
  }
  EXPECT_GT(migrations, 0);
  // At least one sequencer moved off mds.0.
  int hosted_elsewhere = 0;
  for (int s = 0; s < 3; ++s) {
    std::string path = "/seq" + std::to_string(s);
    if (mds[1]->GetInode(path) != nullptr || mds[2]->GetInode(path) != nullptr) {
      ++hosted_elsewhere;
    }
  }
  EXPECT_GT(hosted_elsewhere, 0);
}

TEST_F(MdsFixture, RestartResumesSequencerPastHighestGrant) {
  Start(1);
  ASSERT_TRUE(CreateSequencer("/seq", RoundTrip()).ok());
  for (uint64_t expected = 0; expected < 5; ++expected) {
    auto pos = Next("/seq");
    ASSERT_TRUE(pos.ok()) << pos.status();
    EXPECT_EQ(pos.value(), expected);
  }
  mds[0]->Crash();
  Settle(1 * sim::kSecond);
  mds[0]->Recover();
  Settle(1 * sim::kSecond);
  // The counter is journaled metadata (§4.3.2): it resumes exactly past
  // the highest grant ever acknowledged, never re-issuing a position.
  auto pos = Next("/seq");
  ASSERT_TRUE(pos.ok()) << pos.status();
  EXPECT_EQ(pos.value(), 5u);
}

TEST_F(MdsFixture, RestartFencesHeldCapsUntilSequencerRecovery) {
  Start(1);
  LeasePolicy policy;
  policy.mode = LeaseMode::kDelay;
  policy.max_hold_ns = 60 * sim::kSecond;
  ASSERT_TRUE(CreateSequencer("/seq", policy).ok());
  bool granted = false;
  clients[0]->mds.AcquireCap("/seq", [&](Status s) { granted = s.ok(); });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(granted);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(clients[0]->mds.LocalNextBatch("/seq", 1).ok());
  }

  mds[0]->Crash();
  Settle(1 * sim::kSecond);
  mds[0]->Recover();
  Settle(1 * sim::kSecond);

  // The cached tail died with the cap holder's session: the inode is
  // fenced and every grant path aborts until CORFU recovery runs.
  std::optional<Status> acquire;
  clients[1]->mds.AcquireCap("/seq", [&](Status s) { acquire = s; });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(acquire.has_value());
  EXPECT_EQ(acquire->code(), Code::kAborted);
  EXPECT_EQ(Next("/seq", 1).status().code(), Code::kAborted);

  // CORFU recovery installs a tail covering every possible grant and
  // clears the fence (what zlog::Log::Recover does after seal).
  ClientRequest recover;
  recover.op = MdsOp::kSetSeqState;
  recover.path = "/seq";
  recover.seq_value = 10;
  recover.params["needs_recovery"] = "";  // empty value => erase
  std::optional<Status> installed;
  clients[1]->mds.Request(recover, [&](Status s, const MdsReply&) { installed = s; });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(installed.has_value());
  ASSERT_TRUE(installed->ok()) << *installed;

  auto pos = Next("/seq", 1);
  ASSERT_TRUE(pos.ok()) << pos.status();
  EXPECT_EQ(pos.value(), 10u);  // at or past the highest granted position
}

}  // namespace
}  // namespace mal::mds
