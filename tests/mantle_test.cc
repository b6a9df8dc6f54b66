// Tests for Mantle: script policy evaluation (statement and callback
// styles), persistent state/backoff, and the full versioning + durability
// + centralized-logging composition on a live cluster.
#include <gtest/gtest.h>

#include "src/cluster/cluster.h"
#include "src/mantle/mantle.h"

namespace mal::mantle {
namespace {

mds::BalancerContext MakeContext(uint32_t whoami, std::vector<double> loads) {
  mds::BalancerContext ctx;
  ctx.whoami = whoami;
  for (uint32_t i = 0; i < loads.size(); ++i) {
    mds::LoadMetrics m;
    m.load = loads[i];
    m.req_rate = loads[i];
    m.cpu = loads[i] / 1000.0;
    ctx.mds[i] = m;
  }
  return ctx;
}

TEST(MantleBalancerTest, PaperSnippetStatementStyle) {
  // Verbatim from the paper (§6.2.2): send half my load to the next rank.
  auto balancer =
      MantleBalancer::Load("v1", "targets[whoami+1] = mds[whoami][\"load\"]/2");
  ASSERT_TRUE(balancer.ok()) << balancer.status();
  auto targets = balancer.value()->Decide(MakeContext(0, {200, 10}));
  ASSERT_TRUE(targets.ok()) << targets.status();
  ASSERT_EQ(targets.value().size(), 1u);
  EXPECT_DOUBLE_EQ(targets.value().at(1), 100.0);
}

TEST(MantleBalancerTest, MigrateAllVariant) {
  // "to migrate all load at a time step, we can remove the division by 2".
  auto balancer = MantleBalancer::Load("v1", "targets[whoami+1] = mds[whoami][\"load\"]");
  ASSERT_TRUE(balancer.ok());
  auto targets = balancer.value()->Decide(MakeContext(0, {200, 10}));
  ASSERT_TRUE(targets.ok());
  EXPECT_DOUBLE_EQ(targets.value().at(1), 200.0);
}

TEST(MantleBalancerTest, WhenCallbackGatesMigration) {
  constexpr char kPolicy[] = R"(
function when()
  return mds[whoami]["load"] > 100
end
function where()
  targets[1] = mds[whoami]["load"] / 2
end
)";
  auto balancer = MantleBalancer::Load("v1", kPolicy);
  ASSERT_TRUE(balancer.ok()) << balancer.status();

  auto cold = balancer.value()->Decide(MakeContext(0, {50, 10}));
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(cold.value().empty());

  auto hot = balancer.value()->Decide(MakeContext(0, {300, 10}));
  ASSERT_TRUE(hot.ok());
  EXPECT_DOUBLE_EQ(hot.value().at(1), 150.0);
}

TEST(MantleBalancerTest, WhenSeesPeerLoad) {
  // The Fig 9 conservative policy: only migrate when the receiver is idle.
  constexpr char kPolicy[] = R"(
function when()
  return mds[whoami]["load"] > 100 and mds[1]["load"] < 20
end
function where()
  targets[1] = mds[whoami]["load"] / 2
end
)";
  auto balancer = MantleBalancer::Load("v1", kPolicy);
  ASSERT_TRUE(balancer.ok());
  EXPECT_TRUE(balancer.value()->Decide(MakeContext(0, {300, 80})).value().empty());
  EXPECT_FALSE(balancer.value()->Decide(MakeContext(0, {300, 5})).value().empty());
}

TEST(MantleBalancerTest, StatePersistsAcrossTicks) {
  // The §6.2.3 backoff pattern: count down after a migration before acting
  // again. `state` survives between Decide calls.
  constexpr char kPolicy[] = R"(
if state.cooldown == nil then state.cooldown = 0 end

function when()
  if state.cooldown > 0 then
    state.cooldown = state.cooldown - 1
    return false
  end
  if mds[whoami]["load"] > 100 then
    state.cooldown = 2
    return true
  end
  return false
end

function where()
  targets[1] = mds[whoami]["load"] / 2
end
)";
  auto balancer = MantleBalancer::Load("v1", kPolicy);
  ASSERT_TRUE(balancer.ok()) << balancer.status();
  auto ctx = MakeContext(0, {300, 10});
  EXPECT_FALSE(balancer.value()->Decide(ctx).value().empty());  // migrates
  EXPECT_TRUE(balancer.value()->Decide(ctx).value().empty());   // cooldown 2
  EXPECT_TRUE(balancer.value()->Decide(ctx).value().empty());   // cooldown 1
  EXPECT_FALSE(balancer.value()->Decide(ctx).value().empty());  // acts again
}

TEST(MantleBalancerTest, SubtreeRatesVisibleToPolicy) {
  constexpr char kPolicy[] = R"(
-- migrate exactly the load of the hottest subtree
local hottest = 0
for path, rate in pairs(mds[whoami]["subtrees"]) do
  if rate > hottest then hottest = rate end
end
targets[1] = hottest
)";
  auto balancer = MantleBalancer::Load("v1", kPolicy);
  ASSERT_TRUE(balancer.ok()) << balancer.status();
  auto ctx = MakeContext(0, {300, 10});
  ctx.mds[0].subtree_rate["/zlog/a"] = 120;
  ctx.mds[0].subtree_rate["/zlog/b"] = 80;
  auto targets = balancer.value()->Decide(ctx);
  ASSERT_TRUE(targets.ok()) << targets.status();
  EXPECT_DOUBLE_EQ(targets.value().at(1), 120.0);
}

TEST(MantleBalancerTest, BrokenPolicyRejectedAtLoad) {
  EXPECT_FALSE(MantleBalancer::Load("v1", "function when( end").ok());
}

TEST(MantleBalancerTest, RuntimeErrorSurfacesAsStatus) {
  auto balancer = MantleBalancer::Load("v1", "targets[1] = nil + 1");
  ASSERT_TRUE(balancer.ok());  // compiles fine
  auto targets = balancer.value()->Decide(MakeContext(0, {100, 10}));
  EXPECT_FALSE(targets.ok());
}

TEST(MantleBalancerTest, RunawayPolicySandboxed) {
  auto balancer = MantleBalancer::Load("v1", "while true do end");
  ASSERT_TRUE(balancer.ok());
  auto targets = balancer.value()->Decide(MakeContext(0, {100, 10}));
  EXPECT_EQ(targets.status().code(), Code::kAborted);
}

// ---- full composition on a live cluster ------------------------------------------

class MantleClusterTest : public ::testing::Test {
 protected:
  void Start() {
    cluster::ClusterOptions options;
    options.num_osds = 3;
    options.num_mds = 2;
    options.mon.proposal_interval = 200 * sim::kMillisecond;
    options.mds.balance_interval = 2 * sim::kSecond;
    options.mds.balancing_enabled = true;
    cluster = std::make_unique<cluster::Cluster>(options);
    cluster->Boot();
    managers.push_back(std::make_unique<MantleManager>(&cluster->mds(0)));
    managers.push_back(std::make_unique<MantleManager>(&cluster->mds(1)));
    for (auto& manager : managers) {
      manager->Start(500 * sim::kMillisecond);
    }
  }

  std::unique_ptr<cluster::Cluster> cluster;
  std::vector<std::unique_ptr<MantleManager>> managers;
};

TEST_F(MantleClusterTest, PolicyInstallsViaServiceMetadataAndRados) {
  Start();
  auto* admin = cluster->NewClient();
  bool installed = false;
  MantleManager::InstallPolicy(&admin->rados, "balancer-v1",
                               "targets[whoami+1] = mds[whoami]['load']/2",
                               [&](Status s) {
                                 ASSERT_TRUE(s.ok()) << s;
                                 installed = true;
                               });
  ASSERT_TRUE(cluster->RunUntil([&] { return installed; }));

  // Every MDS notices the version in the MDSMap, dereferences the RADOS
  // object, and loads the policy — no restarts.
  ASSERT_TRUE(cluster->RunUntil(
      [&] {
        return managers[0]->loaded_version() == "balancer-v1" &&
               managers[1]->loaded_version() == "balancer-v1";
      },
      20 * sim::kSecond));
  EXPECT_EQ(cluster->mds(0).balancer_policy()->name(), "mantle:balancer-v1");

  // The version change was logged centrally at the monitor (the one-way
  // log message needs a moment to arrive after the policy loads).
  cluster->RunFor(1 * sim::kSecond);
  bool logged = false;
  for (const auto& entry : cluster->monitor(0).cluster_log()) {
    if (entry.message.find("balancer-v1") != std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);
}

TEST_F(MantleClusterTest, VersionUpgradeSwapsPolicyLive) {
  Start();
  auto* admin = cluster->NewClient();
  bool done = false;
  MantleManager::InstallPolicy(&admin->rados, "v1", "targets[1] = 10", [&](Status) {
    done = true;
  });
  ASSERT_TRUE(cluster->RunUntil([&] { return done; }));
  ASSERT_TRUE(cluster->RunUntil([&] { return managers[0]->loaded_version() == "v1"; },
                                20 * sim::kSecond));

  done = false;
  MantleManager::InstallPolicy(&admin->rados, "v2", "targets[1] = 20", [&](Status) {
    done = true;
  });
  ASSERT_TRUE(cluster->RunUntil([&] { return done; }));
  EXPECT_TRUE(cluster->RunUntil([&] { return managers[0]->loaded_version() == "v2"; },
                                20 * sim::kSecond));
}

TEST_F(MantleClusterTest, BadPolicyRejectedBeforePublishing) {
  Start();
  auto* admin = cluster->NewClient();
  std::optional<Status> result;
  MantleManager::InstallPolicy(&admin->rados, "broken", "function oops(",
                               [&](Status s) { result = s; });
  ASSERT_TRUE(cluster->RunUntil([&] { return result.has_value(); }));
  EXPECT_FALSE(result->ok());
  // Nothing was published.
  cluster->RunFor(3 * sim::kSecond);
  EXPECT_EQ(managers[0]->loaded_version(), "");
}

TEST_F(MantleClusterTest, MantlePolicyDrivesRealMigration) {
  Start();
  auto* admin = cluster->NewClient();
  bool installed = false;
  // Aggressive policy: if I'm loaded at all and rank 1 is cooler, send half.
  MantleManager::InstallPolicy(
      &admin->rados, "migrator",
      R"(
function when()
  return whoami == 0 and mds[0]["load"] > 5
end
function where()
  targets[1] = mds[0]["load"] / 2
end
)",
      [&](Status s) {
        ASSERT_TRUE(s.ok()) << s;
        installed = true;
      });
  ASSERT_TRUE(cluster->RunUntil([&] { return installed; }));
  ASSERT_TRUE(cluster->RunUntil([&] { return managers[0]->loaded_version() == "migrator"; },
                                20 * sim::kSecond));

  // Create two sequencers on mds.0 and hammer them.
  auto* client = cluster->NewClient();
  for (const char* path : {"/zlog/s1", "/zlog/s2"}) {
    bool created = false;
    mds::LeasePolicy round_trip;
    round_trip.mode = mds::LeaseMode::kRoundTrip;
    client->mds.Create(path, mds::InodeType::kSequencer, round_trip,
                       [&](Status s) {
                         ASSERT_TRUE(s.ok()) << s;
                         created = true;
                       });
    ASSERT_TRUE(cluster->RunUntil([&] { return created; }));
  }
  int migrations = 0;
  cluster->mds(0).on_migration = [&](const std::string&, uint32_t target) {
    EXPECT_EQ(target, 1u);
    ++migrations;
  };
  for (int round = 0; round < 100 && migrations == 0; ++round) {
    for (const char* path : {"/zlog/s1", "/zlog/s2"}) {
      client->mds.SeqNextBatch(path, 1, [](Status, uint64_t, bool) {});
    }
    cluster->RunFor(100 * sim::kMillisecond);
  }
  EXPECT_GT(migrations, 0);
}

}  // namespace
}  // namespace mal::mantle
