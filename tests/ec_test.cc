// Erasure-coding tests: codec properties (round-trip, single-shard
// reconstruction, double-loss detection, padding), end-to-end shard loss
// on a live cluster, EC pools (placement, degraded reads, epoch fencing)
// and the scrub agent's self-healing rebuild.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/ec/codec.h"
#include "src/ec/pool.h"
#include "src/osd/placement.h"

namespace mal::ec {
namespace {

TEST(EcCodecTest, RoundTripWithoutLoss) {
  Buffer data = Buffer::FromString("erasure coding keeps data safe");
  auto shards = Encode(data, 3);
  ASSERT_EQ(shards.size(), 4u);
  std::vector<std::optional<Buffer>> present(shards.begin(), shards.end());
  auto decoded = Decode(present, data.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().ToString(), data.ToString());
}

TEST(EcCodecTest, ReconstructsAnySingleShard) {
  Buffer data = Buffer::FromString("any one of k+1 shards may vanish!");
  const uint32_t k = 3;
  auto shards = Encode(data, k);
  for (uint32_t lost = 0; lost <= k; ++lost) {
    std::vector<std::optional<Buffer>> present(shards.begin(), shards.end());
    present[lost] = std::nullopt;
    auto decoded = Decode(present, data.size());
    ASSERT_TRUE(decoded.ok()) << "lost shard " << lost;
    EXPECT_EQ(decoded.value().ToString(), data.ToString()) << "lost shard " << lost;
  }
}

TEST(EcCodecTest, DoubleLossIsDetected) {
  auto shards = Encode(Buffer::FromString("cannot survive two"), 3);
  std::vector<std::optional<Buffer>> present(shards.begin(), shards.end());
  present[0] = std::nullopt;
  present[2] = std::nullopt;
  // A typed, terminal verdict: retrying cannot help, unlike kUnavailable.
  EXPECT_EQ(Decode(present, 18).status().code(), Code::kDataLoss);
}

TEST(EcCodecTest, EmptyObjectRoundTrips) {
  auto shards = Encode(Buffer(), 2);
  std::vector<std::optional<Buffer>> present(shards.begin(), shards.end());
  auto decoded = Decode(present, 0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().size(), 0u);
}

TEST(EcCodecTest, PadsWhenSizeIsNotMultipleOfK) {
  const uint32_t k = 4;
  for (size_t size = 1; size <= 2 * k + 1; ++size) {
    std::string payload(size, '\0');
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<char>('a' + i % 26);
    }
    auto shards = Encode(Buffer::FromString(payload), k);
    ASSERT_EQ(shards.size(), k + 1u);
    // Padding makes every shard (including parity) the same length.
    for (const Buffer& shard : shards) {
      EXPECT_EQ(shard.size(), shards[0].size()) << "size " << size;
    }
    // The logical size strips the padding back off, even around a loss.
    std::vector<std::optional<Buffer>> present(shards.begin(), shards.end());
    present[size % (k + 1)] = std::nullopt;
    auto decoded = Decode(present, size);
    ASSERT_TRUE(decoded.ok()) << "size " << size;
    EXPECT_EQ(decoded.value().ToString(), payload) << "size " << size;
  }
}

class EcCodecPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EcCodecPropertyTest, RandomDataSurvivesRandomShardLoss) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 3);
  uint32_t k = 2 + static_cast<uint32_t>(rng.NextBelow(4));  // 2..5
  std::string payload(rng.NextBelow(5000), '\0');
  for (char& c : payload) {
    c = static_cast<char>(rng.NextBelow(256));
  }
  Buffer data = Buffer::FromString(payload);
  auto shards = Encode(data, k);
  ASSERT_EQ(shards.size(), static_cast<size_t>(k) + 1);
  std::vector<std::optional<Buffer>> present(shards.begin(), shards.end());
  present[rng.NextBelow(k + 1)] = std::nullopt;
  auto decoded = Decode(present, data.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().ToString(), payload);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcCodecPropertyTest, ::testing::Range(0, 30));

TEST(EcObjectTest, SurvivesOsdLossWithoutReplication) {
  // Pool with replicas = 1: only erasure coding protects the data.
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.osd.replicas = 1;
  options.osd.pull_on_miss = false;  // nothing to pull: no replicas exist
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  EcObject object(&client->rados, "precious", /*k=*/3);
  std::string payload = "erasure-coded and replication-free";
  std::optional<Status> written;
  object.Write(Buffer::FromString(payload), [&](Status s) { written = s; });
  ASSERT_TRUE(cluster.RunUntil([&] { return written.has_value(); }));
  ASSERT_TRUE(written->ok()) << *written;

  // Find the OSD holding shard 1 and kill it.
  std::string victim_oid = object.ShardOid(1);
  auto acting = osd::OsdsForObject(victim_oid, client->rados.osd_map(), 1);
  ASSERT_FALSE(acting.empty());
  cluster.osd(acting[0]).Crash();
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = acting[0];
  bool marked = false;
  client->rados.mon_client().SubmitTransaction(fail, [&](Status) { marked = true; });
  ASSERT_TRUE(cluster.RunUntil([&] { return marked; }));
  cluster.RunFor(1 * sim::kSecond);

  // The shard is gone (its only copy died), but the object still reads.
  std::optional<Result<std::string>> read;
  object.Read([&](Status s, const Buffer& data) {
    read = s.ok() ? Result<std::string>(data.ToString()) : Result<std::string>(s);
  });
  ASSERT_TRUE(cluster.RunUntil([&] { return read.has_value(); }, 60 * sim::kSecond));
  ASSERT_TRUE(read->ok()) << read->status();
  EXPECT_EQ(read->value(), payload);
}

// -- EC pools ----------------------------------------------------------------

// Registers an EC pool in the map and binds a handle, synchronously.
Pool CreatePool(cluster::Cluster* cluster, cluster::Client* client,
                const std::string& name, uint32_t k) {
  std::optional<Status> created;
  Pool::Create(&client->rados, name, mon::PoolLayout::Erasure(k),
               [&](Status s) { created = s; });
  EXPECT_TRUE(cluster->RunUntil([&] { return created.has_value(); }));
  EXPECT_TRUE(created->ok()) << *created;
  auto pool = Pool::Bind(&client->rados, name);
  EXPECT_TRUE(pool.has_value());
  return *pool;
}

Status PoolWrite(cluster::Cluster* cluster, Pool* pool, const std::string& object,
                 const std::string& payload) {
  std::optional<Status> written;
  pool->Write(object, Buffer::FromString(payload), [&](Status s) { written = s; });
  EXPECT_TRUE(cluster->RunUntil([&] { return written.has_value(); }));
  return *written;
}

Result<std::string> PoolRead(cluster::Cluster* cluster, Pool* pool,
                             const std::string& object) {
  std::optional<Result<std::string>> read;
  pool->Read(object, [&](Status s, const Buffer& data) {
    read = s.ok() ? Result<std::string>(data.ToString()) : Result<std::string>(s);
  });
  EXPECT_TRUE(cluster->RunUntil([&] { return read.has_value(); }, 60 * sim::kSecond));
  return *read;
}

TEST(EcPoolTest, CreateWriteReadAndListObjects) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  EXPECT_EQ(pool.k(), 3u);
  EXPECT_EQ(pool.num_shards(), 4u);

  ASSERT_TRUE(PoolWrite(&cluster, &pool, "alpha", "first erasure-coded object").ok());
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "beta", "second, striped across k+1").ok());

  auto alpha = PoolRead(&cluster, &pool, "alpha");
  ASSERT_TRUE(alpha.ok()) << alpha.status();
  EXPECT_EQ(alpha.value(), "first erasure-coded object");
  auto beta = PoolRead(&cluster, &pool, "beta");
  ASSERT_TRUE(beta.ok()) << beta.status();
  EXPECT_EQ(beta.value(), "second, striped across k+1");

  // A full write acked means no degraded reads on the healthy cluster.
  EXPECT_EQ(client->perf.counter("rados.ec.degraded_reads"), 0u);

  // The index discovered both objects (scrub's work queue).
  std::optional<std::vector<std::string>> listed;
  pool.ListObjects([&](Status s, std::vector<std::string> objects) {
    ASSERT_TRUE(s.ok()) << s;
    listed = std::move(objects);
  });
  ASSERT_TRUE(cluster.RunUntil([&] { return listed.has_value(); }));
  EXPECT_EQ(*listed, (std::vector<std::string>{"alpha", "beta"}));

  // Shards of one object land on distinct OSDs.
  std::set<uint32_t> homes;
  for (uint32_t i = 0; i < pool.num_shards(); ++i) {
    auto acting = osd::ActingSetForOid(pool.ShardOid("alpha", i),
                                       client->rados.osd_map(), options.osd.replicas);
    ASSERT_EQ(acting.size(), 1u);  // EC shards are single-copy
    homes.insert(acting[0]);
  }
  EXPECT_EQ(homes.size(), pool.num_shards());
}

TEST(EcPoolTest, ReadDecodesAroundCorruptedParityShard) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  std::string payload = "bit rot on the parity shard must not block reads";
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", payload).ok());

  // Silently flip one bit of the parity shard (index k) in place.
  std::string parity_oid = pool.ShardOid("obj", pool.k());
  auto acting = osd::ActingSetForOid(parity_oid, client->rados.osd_map(),
                                     options.osd.replicas);
  ASSERT_EQ(acting.size(), 1u);
  ASSERT_TRUE(cluster.osd(acting[0]).store().FlipBit(parity_oid, /*byte=*/2, /*bit=*/5));

  // The checksum unmasks the corruption; decode routes around it.
  auto read = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), payload);
  EXPECT_GE(client->perf.counter("rados.ec.degraded_reads"), 1u);
}

TEST(EcPoolTest, SealedObjectFencesStaleEpochWriters) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/2);
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", "generation one").ok());

  // Seal at epoch 5; the sealing handle adopts the epoch.
  std::optional<Status> sealed;
  pool.Seal("obj", 5, [&](Status s) { sealed = s; });
  ASSERT_TRUE(cluster.RunUntil([&] { return sealed.has_value(); }));
  ASSERT_TRUE(sealed->ok()) << *sealed;
  EXPECT_EQ(pool.epoch(), 5u);

  // A handle still at epoch 0 is a stale writer: fenced, atomically.
  Pool stale = *Pool::Bind(&client->rados, "ecpool");
  EXPECT_EQ(stale.epoch(), 0u);
  Status rejected = PoolWrite(&cluster, &stale, "obj", "stale generation");
  EXPECT_EQ(rejected.code(), Code::kStaleEpoch) << rejected;

  // The sealed generation is intact and the current-epoch writer proceeds.
  auto read = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), "generation one");
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", "generation two").ok());
  auto reread = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(reread.ok()) << reread.status();
  EXPECT_EQ(reread.value(), "generation two");
}

TEST(EcPoolTest, DegradedReadCostsOnePullRound) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();
  client->rados.set_perf(&client->perf);

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  std::string payload = "read around a shard whose only copy is gone";
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", payload).ok());

  // Virtual-time latency of one read, measured at its completion.
  auto timed_read = [&](sim::Time* latency) {
    sim::Time start = cluster.simulator().Now();
    std::optional<Status> read;
    pool.Read("obj", [&](Status s, const Buffer& data) {
      read = s.ok() && data.ToString() != payload ? Status::DataLoss("mismatch") : s;
      *latency = cluster.simulator().Now() - start;
    });
    EXPECT_TRUE(cluster.RunUntil([&] { return read.has_value(); }, 60 * sim::kSecond));
    return read.value_or(Status::TimedOut("no callback"));
  };
  sim::Time healthy = 0;
  ASSERT_TRUE(timed_read(&healthy).ok());

  // Permanently lose the home of shard 0 and commit the loss to the map.
  auto victim_set = osd::ActingSetForOid(pool.ShardOid("obj", 0), client->rados.osd_map(),
                                         options.osd.replicas);
  ASSERT_EQ(victim_set.size(), 1u);
  cluster.osd(victim_set[0]).Crash();
  cluster.osd(victim_set[0]).store().Clear();
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = victim_set[0];
  std::optional<Status> committed;
  client->rados.mon_client().SubmitTransaction(fail, [&](Status s) { committed = s; });
  ASSERT_TRUE(cluster.RunUntil([&] { return committed.has_value(); }));
  ASSERT_TRUE(committed->ok()) << *committed;
  std::optional<Status> refreshed;
  client->rados.RefreshMap([&](Status s) { refreshed = s; });
  ASSERT_TRUE(cluster.RunUntil([&] { return refreshed.has_value(); }));
  cluster.RunFor(1 * sim::kSecond);  // every OSD adopts the new map

  // The shard's new home misses it and sweeps every other up OSD for a
  // copy. No OSD has one, and the sweep costs one pull round trip, not
  // one per OSD, so the degraded read stays within 2x of a healthy one.
  uint64_t degraded_before = client->perf.counter("rados.ec.degraded_reads");
  sim::Time degraded = 0;
  ASSERT_TRUE(timed_read(&degraded).ok());
  EXPECT_EQ(client->perf.counter("rados.ec.degraded_reads"), degraded_before + 1);
  EXPECT_LT(degraded, 2 * healthy) << "healthy " << healthy << " ns, degraded " << degraded
                                   << " ns";
}

// -- Scrub/rebuild -----------------------------------------------------------

TEST(ScrubTest, RebuildsFullRedundancyAfterOsdLoss) {
  cluster::ClusterOptions options;
  options.num_osds = 8;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  const uint32_t k = 3;
  Pool pool = CreatePool(&cluster, client, "ecpool", k);
  std::map<std::string, std::string> objects = {
      {"a", "the first of three precious objects"},
      {"b", "the second one, a little longer than the first"},
      {"c", "and the third"},
  };
  for (const auto& [name, payload] : objects) {
    ASSERT_TRUE(PoolWrite(&cluster, &pool, name, payload).ok());
  }

  // Destroy the OSD holding shard 0 of "a": crash, wipe the store, and
  // fail it out of the map. The data on it is gone forever.
  auto victim_set = osd::ActingSetForOid(pool.ShardOid("a", 0),
                                         client->rados.osd_map(), options.osd.replicas);
  ASSERT_EQ(victim_set.size(), 1u);
  uint32_t victim = victim_set[0];
  cluster.osd(victim).Crash();
  cluster.osd(victim).store().Clear();
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = victim;
  bool marked = false;
  client->rados.mon_client().SubmitTransaction(fail, [&](Status) { marked = true; });
  ASSERT_TRUE(cluster.RunUntil([&] { return marked; }));
  cluster.RunFor(1 * sim::kSecond);

  // The scrub agent discovers the pool from the map, walks the index, and
  // re-encodes every missing shard onto the survivors.
  auto* agent = cluster.NewScrubAgent();
  ASSERT_TRUE(cluster.RunUntil([&] { return agent->passes_completed() >= 1; },
                               60 * sim::kSecond));
  EXPECT_GE(agent->perf().counter("scrub.shards_rebuilt"), 1u);

  // The pass after the repair finds nothing degraded.
  uint64_t repaired_at = agent->passes_completed();
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return agent->passes_completed() >= repaired_at + 1; }, 60 * sim::kSecond));
  EXPECT_EQ(agent->last_pass_degraded(), 0u);

  // White-box: every shard of every object sits checksum-valid on its
  // current canonical home — full k+1 redundancy on the survivors.
  bool refreshed = false;
  client->rados.RefreshMap([&](Status) { refreshed = true; });
  ASSERT_TRUE(cluster.RunUntil([&] { return refreshed; }));
  for (const auto& [name, payload] : objects) {
    uint64_t stamp = Checksum(Buffer::FromString(payload));
    for (uint32_t i = 0; i <= k; ++i) {
      std::string oid = pool.ShardOid(name, i);
      auto acting =
          osd::ActingSetForOid(oid, client->rados.osd_map(), options.osd.replicas);
      ASSERT_EQ(acting.size(), 1u);
      EXPECT_NE(acting[0], victim);
      auto stored = cluster.osd(acting[0]).store().Get(oid);
      ASSERT_TRUE(stored.ok()) << oid << " missing from osd." << acting[0];
      const osd::Object* object = stored.value();
      EXPECT_EQ(object->xattrs.at(std::string(kShardCksumXattr)),
                std::to_string(Checksum(object->data)))
          << oid;
      EXPECT_EQ(object->xattrs.at(std::string(kShardStampXattr)), std::to_string(stamp))
          << oid;
    }
  }

  // And the data still reads back clean, with no decode workaround needed.
  for (const auto& [name, payload] : objects) {
    auto read = PoolRead(&cluster, &pool, name);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(read.value(), payload);
  }
}

TEST(ScrubTest, RepairsSilentShardCorruption) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/2);
  std::string payload = "scrub must catch what no client read would";
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", payload).ok());

  std::string oid = pool.ShardOid("obj", 1);
  auto acting =
      osd::ActingSetForOid(oid, client->rados.osd_map(), options.osd.replicas);
  ASSERT_EQ(acting.size(), 1u);
  ASSERT_TRUE(cluster.osd(acting[0]).store().FlipBit(oid, /*byte=*/0, /*bit=*/0));

  auto* agent = cluster.NewScrubAgent();
  ASSERT_TRUE(cluster.RunUntil([&] { return agent->passes_completed() >= 1; },
                               60 * sim::kSecond));
  EXPECT_GE(agent->perf().counter("scrub.shards_rebuilt"), 1u);

  // The re-encoded shard is byte-identical to the original generation.
  auto stored = cluster.osd(acting[0]).store().Get(oid);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored.value()->xattrs.at(std::string(kShardCksumXattr)),
            std::to_string(Checksum(stored.value()->data)));
  auto read = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), payload);
}

}  // namespace
}  // namespace mal::ec
