// Erasure-coding tests: codec properties (round-trip, single-shard
// reconstruction, double-loss detection, padding), positional shard
// placement, EC pools (degraded reads, shard loss on a live cluster, epoch
// fencing, no object outside the shard namespace), first-k reads, and the
// scrub agent's self-healing rebuild (objects found by listing the OSDs;
// paced, deadline-bounded, and filling only holes).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>

#include "src/cluster/cluster.h"
#include "src/common/checksum.h"
#include "src/common/deadline.h"
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

// -- word-wide kernels against byte-at-a-time references -----------------------

std::string RandomBytes(Rng* rng, size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng->NextBelow(256));
  }
  return bytes;
}

TEST(EcChecksumTest, EverySingleBitFlipChangesTheChecksum) {
  Rng rng(29);
  for (size_t size : {0, 1, 7, 8, 31, 32, 33, 1366, 4096}) {
    std::string bytes = RandomBytes(&rng, size);
    const uint64_t clean = mal::Checksum(bytes);
    EXPECT_EQ(mal::Checksum(bytes), clean) << "size " << size;
    const size_t bits = 8 * size;
    // Every bit up to 64 B; 2,000 sampled bits above that.
    const size_t flips = size <= 64 ? bits : 2000;
    for (size_t f = 0; f < flips; ++f) {
      size_t bit = size <= 64 ? f : rng.NextBelow(bits);
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      EXPECT_NE(mal::Checksum(bytes), clean) << "size " << size << " bit " << bit;
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    }
  }
}

TEST(EcChecksumTest, PinnedValues) {
  // Stored ec.cksum / ec.stamp xattrs hold these values: a change of
  // platform, compiler or implementation must not move them.
  EXPECT_EQ(mal::Checksum(""), 0xd8a310150df90781ULL);
  EXPECT_EQ(mal::Checksum("malacology: a programmable storage system"), 0xfb819042a89f27baULL);
}

// Byte-at-a-time reference for the codec: data shard i holds bytes
// [i * len, (i + 1) * len) zero-padded to len, the parity shard their XOR.
std::vector<std::string> ReferenceEncode(const std::string& data, uint32_t k) {
  size_t len = (data.size() + k - 1) / k;
  std::vector<std::string> shards(k + 1, std::string(len, '\0'));
  for (size_t b = 0; b < data.size(); ++b) {
    shards[b / len][b % len] = data[b];
  }
  for (uint32_t i = 0; i < k; ++i) {
    for (size_t b = 0; b < len; ++b) {
      shards[k][b] = static_cast<char>(shards[k][b] ^ shards[i][b]);
    }
  }
  return shards;
}

// Rebuilds shard `lost` byte by byte from the others, then joins the data
// shards and strips the padding.
std::string ReferenceDecode(std::vector<std::string> shards, size_t lost, size_t size) {
  std::string rebuilt(shards[lost].size(), '\0');
  for (size_t j = 0; j < shards.size(); ++j) {
    for (size_t b = 0; j != lost && b < rebuilt.size(); ++b) {
      rebuilt[b] = static_cast<char>(rebuilt[b] ^ shards[j][b]);
    }
  }
  shards[lost] = rebuilt;
  std::string out;
  for (size_t i = 0; i + 1 < shards.size(); ++i) {
    out += shards[i];
  }
  out.resize(size);
  return out;
}

TEST(EcCodecTest, WordWideKernelsMatchTheByteReference) {
  Rng rng(8);
  // Sizes divisible by neither k nor 8, so shards end in a partial word.
  for (uint32_t k : {1u, 2u, 3u, 5u}) {
    for (size_t size : {1, 13, 101, 1001, 4097}) {
      std::string payload = RandomBytes(&rng, size);
      std::vector<std::string> reference = ReferenceEncode(payload, k);
      auto shards = Encode(Buffer::FromString(payload), k);
      ASSERT_EQ(shards.size(), reference.size());
      for (size_t i = 0; i < shards.size(); ++i) {
        EXPECT_EQ(shards[i].View(), reference[i]) << "k " << k << " size " << size
                                                  << " shard " << i;
      }
      for (size_t lost = 0; lost <= k; ++lost) {
        std::vector<std::optional<Buffer>> present(shards.begin(), shards.end());
        present[lost] = std::nullopt;
        auto decoded = Decode(present, size);
        ASSERT_TRUE(decoded.ok()) << decoded.status();
        EXPECT_EQ(decoded.value().View(), ReferenceDecode(reference, lost, size))
            << "k " << k << " size " << size << " lost " << lost;
        EXPECT_EQ(decoded.value().View(), payload);
      }
      std::vector<std::optional<Buffer>> whole(shards.begin(), shards.end());
      auto decoded = Decode(whole, size);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(decoded.value().View(), payload) << "k " << k << " size " << size;
    }
  }
}

// -- EC placement --------------------------------------------------------------

TEST(EcPlacementTest, LosingAnOsdMovesOnlyTheShardsHomedOnIt) {
  mon::OsdMap map;
  for (uint32_t id = 0; id < 6; ++id) {
    map.osds[id].up = true;
  }
  map.service_metadata[mon::PoolKey("ecp")] = mon::PoolLayout::Erasure(3).Format();
  const uint32_t shards = 4;
  const int objects = 256;
  auto homes_of = [&](int object) {
    std::vector<uint32_t> homes;
    for (uint32_t i = 0; i < shards; ++i) {
      std::string oid = osd::EcShardOid(osd::PoolOid("ecp", "o" + std::to_string(object)), i);
      auto acting = osd::ActingSetForOid(oid, map, /*default_replicas=*/3);
      EXPECT_EQ(acting.size(), 1u) << oid;
      homes.push_back(acting.empty() ? ~0u : acting[0]);
    }
    return homes;
  };
  std::vector<std::vector<uint32_t>> before;
  for (int o = 0; o < objects; ++o) {
    before.push_back(homes_of(o));
    EXPECT_EQ(std::set<uint32_t>(before[o].begin(), before[o].end()).size(), shards);
  }
  for (uint32_t victim = 0; victim < 6; ++victim) {
    map.osds[victim].up = false;
    int moved = 0;
    for (int o = 0; o < objects; ++o) {
      std::vector<uint32_t> after = homes_of(o);
      std::set<uint32_t> set(before[o].begin(), before[o].end());
      for (uint32_t i = 0; i < shards; ++i) {
        if (before[o][i] != victim) {
          EXPECT_EQ(after[i], before[o][i]) << "object " << o << " shard " << i;
          continue;
        }
        ++moved;
        EXPECT_EQ(set.count(after[i]), 0u) << "object " << o << " shard " << i;
      }
    }
    EXPECT_GT(moved, 0) << "osd." << victim;
    map.osds[victim].up = true;
    for (int o = 0; o < objects; ++o) {
      EXPECT_EQ(homes_of(o), before[o]) << "object " << o;
    }
  }
}

TEST(EcPlacementTest, TooFewUpOsdsWrapShardsOverTheUpOnes) {
  mon::OsdMap map;
  for (uint32_t id = 0; id < 6; ++id) {
    map.osds[id].up = id % 2 == 0;  // 3 up, fewer than the 4 shards
  }
  map.service_metadata[mon::PoolKey("ecp")] = mon::PoolLayout::Erasure(3).Format();
  for (int o = 0; o < 64; ++o) {
    std::string logical = osd::PoolOid("ecp", "o" + std::to_string(o));
    auto up_ranked = osd::OsdsForObject(logical, map, 4);
    ASSERT_EQ(up_ranked.size(), 3u);
    for (uint32_t i = 0; i < 4; ++i) {
      auto acting = osd::ActingSetForOid(osd::EcShardOid(logical, i), map, 3);
      EXPECT_EQ(acting, std::vector<uint32_t>{up_ranked[i % 3]}) << logical << " shard " << i;
    }
  }
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

// Permanently loses the home of `shard_oid`: crash, wipe the store, commit
// the loss to the map, and give every party time to adopt the new map.
void LoseShardHome(cluster::Cluster* cluster, cluster::Client* client,
                   const std::string& shard_oid, uint32_t* victim) {
  auto victim_set = osd::ActingSetForOid(shard_oid, client->rados.osd_map(),
                                         cluster->options().osd.replicas);
  ASSERT_EQ(victim_set.size(), 1u);
  *victim = victim_set[0];
  cluster->osd(*victim).Crash();
  cluster->osd(*victim).store().Clear();
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = *victim;
  std::optional<Status> committed;
  client->rados.mon_client().SubmitTransaction(fail, [&](Status s) { committed = s; });
  ASSERT_TRUE(cluster->RunUntil([&] { return committed.has_value(); }));
  ASSERT_TRUE(committed->ok()) << *committed;
  std::optional<Status> refreshed;
  client->rados.RefreshMap([&](Status s) { refreshed = s; });
  ASSERT_TRUE(cluster->RunUntil([&] { return refreshed.has_value(); }));
  cluster->RunFor(1 * sim::kSecond);  // every OSD adopts the new map
}

// Virtual-time latency of one read of `object`, measured at its completion;
// the read must return `payload`.
sim::Time TimedRead(cluster::Cluster* cluster, Pool* pool, const std::string& object,
                    const std::string& payload) {
  sim::Time start = cluster->simulator().Now();
  sim::Time latency = 0;
  std::optional<Status> read;
  pool->Read(object, [&](Status s, const Buffer& data) {
    read = s.ok() && data.ToString() != payload ? Status::DataLoss("mismatch") : s;
    latency = cluster->simulator().Now() - start;
  });
  EXPECT_TRUE(cluster->RunUntil([&] { return read.has_value(); }, 60 * sim::kSecond));
  EXPECT_TRUE(read.has_value() && read->ok()) << object;
  return latency;
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

  // The OSDs' listings discover both objects (scrub's work queue).
  std::set<std::string> listed;
  size_t answered = 0;
  size_t asked = pool.ListObjects([&](Status s, std::vector<std::string> objects) {
    EXPECT_TRUE(s.ok()) << s;
    listed.insert(objects.begin(), objects.end());
    ++answered;
  });
  EXPECT_EQ(asked, 6u);
  ASSERT_TRUE(cluster.RunUntil([&] { return answered == asked; }));
  EXPECT_EQ(std::vector<std::string>(listed.begin(), listed.end()),
            (std::vector<std::string>{"alpha", "beta"}));

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

// The oids on every OSD, for before/after comparisons.
std::set<std::string> AllOids(cluster::Cluster* cluster) {
  std::set<std::string> oids;
  for (size_t i = 0; i < cluster->num_osds(); ++i) {
    for (const std::string& oid : cluster->osd(i).store().List()) {
      oids.insert(oid);
    }
  }
  return oids;
}

// The pool keeps no index: a write lays down its k+1 shards and nothing
// else, so one shard transaction round trip is the whole write.
TEST(EcPoolTest, WriteCreatesNoObjectOutsideTheShardNamespace) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  std::set<std::string> before = AllOids(&cluster);
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "one", "the first object").ok());
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "two", "the second object").ok());
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "one", "the first, overwritten").ok());

  std::set<std::string> created;
  for (const std::string& oid : AllOids(&cluster)) {
    if (before.count(oid) == 0) {
      created.insert(oid);
    }
  }
  std::set<std::string> shards;
  for (const char* object : {"one", "two"}) {
    for (uint32_t i = 0; i < pool.num_shards(); ++i) {
      shards.insert(pool.ShardOid(object, i));
    }
  }
  EXPECT_EQ(created, shards);
  uint64_t repops = 0;
  for (size_t i = 0; i < cluster.num_osds(); ++i) {
    repops += cluster.osd(i).perf().counter("osd.repop.count");
  }
  EXPECT_EQ(repops, 0u);  // single-copy shards: no replication round
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
  // The read may answer on its first k agreeing shards; the degraded
  // verdict is judged once the last of the k+1 replies is in.
  cluster.RunFor(10 * sim::kMillisecond);
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
  sim::Time healthy = TimedRead(&cluster, &pool, "obj", payload);

  // Permanently lose the home of shard 0 and commit the loss to the map.
  uint32_t victim = 0;
  ASSERT_NO_FATAL_FAILURE(LoseShardHome(&cluster, client, pool.ShardOid("obj", 0), &victim));

  // The shard's new home misses it and sweeps every other up OSD for a
  // copy. No OSD has one, and the sweep costs one pull round trip, not
  // one per OSD, so the degraded read stays within 2x of a healthy one.
  uint64_t degraded_before = client->perf.counter("rados.ec.degraded_reads");
  sim::Time degraded = TimedRead(&cluster, &pool, "obj", payload);
  // The read answers on the first k agreeing shards; the hole is counted
  // when the straggling reply lands.
  cluster.RunFor(100 * sim::kMillisecond);
  EXPECT_EQ(client->perf.counter("rados.ec.degraded_reads"), degraded_before + 1);
  EXPECT_LT(degraded, 2 * healthy) << "healthy " << healthy << " ns, degraded " << degraded
                                   << " ns";
}

TEST(EcPoolTest, ReadAroundLostOsdCostsAboutAHealthyRead) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  std::vector<std::string> objects;
  std::map<std::string, sim::Time> healthy;
  for (int i = 0; i < 12; ++i) {
    std::string object = "obj" + std::to_string(i);
    ASSERT_TRUE(PoolWrite(&cluster, &pool, object, "payload of " + object).ok());
    objects.push_back(object);
  }
  for (const std::string& object : objects) {
    healthy[object] = TimedRead(&cluster, &pool, object, "payload of " + object);
  }
  std::map<std::string, uint32_t> homes;  // shard oid -> home before the loss
  for (const std::string& object : objects) {
    for (uint32_t i = 0; i < pool.num_shards(); ++i) {
      std::string oid = pool.ShardOid(object, i);
      homes[oid] = osd::ActingSetForOid(oid, client->rados.osd_map(), 3).at(0);
    }
  }

  uint32_t victim = 0;
  ASSERT_NO_FATAL_FAILURE(LoseShardHome(&cluster, client, pool.ShardOid("obj0", 0), &victim));

  // Every object that had a shard on the lost OSD decodes around it, and
  // the read finishes on the k survivors instead of waiting for the new
  // home's fruitless pull sweep: within 1.25x of its healthy read.
  int degraded_objects = 0;
  for (const std::string& object : objects) {
    bool hit = false;
    for (uint32_t i = 0; i < pool.num_shards(); ++i) {
      hit = hit || homes[pool.ShardOid(object, i)] == victim;
    }
    if (!hit) {
      continue;
    }
    ++degraded_objects;
    sim::Time degraded = TimedRead(&cluster, &pool, object, "payload of " + object);
    EXPECT_LE(degraded, healthy[object] * 5 / 4) << object;
  }
  EXPECT_GE(degraded_objects, 1);
}

TEST(EcPoolTest, SurvivesOsdLossWithoutReplication) {
  // Cluster with replicas = 1: only erasure coding protects the data.
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.osd.replicas = 1;
  options.osd.pull_on_miss = false;  // nothing to pull: no replicas exist
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "precious", /*k=*/3);
  std::string payload = "erasure-coded and replication-free";
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", payload).ok());

  // Find the OSD holding shard 1 and kill it.
  auto acting = osd::ActingSetForOid(pool.ShardOid("obj", 1), client->rados.osd_map(),
                                     options.osd.replicas);
  ASSERT_EQ(acting.size(), 1u);
  cluster.osd(acting[0]).Crash();
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = acting[0];
  bool marked = false;
  client->rados.mon_client().SubmitTransaction(fail, [&](Status) { marked = true; });
  ASSERT_TRUE(cluster.RunUntil([&] { return marked; }));
  cluster.RunFor(1 * sim::kSecond);

  // The shard is gone (its only copy died), but the object still reads.
  auto read = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), payload);
}

TEST(EcPoolTest, FailedOsdCommitsAtOnceSoAnInFlightWriteMissesOneDeadline) {
  // The failure path end to end: a write is on its way to an OSD that
  // crashes and is marked failed. The kOsdFail commit reaches an idle
  // monitor leader and commits in one Paxos round, so by the time the
  // write's first try misses its deadline the client holds the new map
  // and the retry lands.
  cluster::ClusterOptions options;
  options.num_mons = 3;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();
  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  cluster.RunFor(1 * sim::kSecond);  // the monitor leader is idle again

  auto home = osd::ActingSetForOid(pool.ShardOid("obj", 0), client->rados.osd_map(),
                                   options.osd.replicas);
  ASSERT_EQ(home.size(), 1u);
  constexpr sim::Time kOpDeadline = 50 * sim::kMillisecond;
  const sim::Time issued = cluster.simulator().Now();
  int tries = 0;
  std::optional<Status> written;
  sim::Time written_at = 0;
  std::function<void()> attempt = [&] {
    ++tries;
    ScopedDeadline deadline(cluster.simulator().Now() + kOpDeadline);
    pool.Write("obj", Buffer::FromString("written across the loss"), [&](Status s) {
      if (s.code() == Code::kDeadlineExceeded) {
        attempt();
        return;
      }
      written = s;
      written_at = cluster.simulator().Now();
    });
  };
  attempt();

  cluster.osd(home[0]).Crash();
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = home[0];
  const sim::Time submitted = cluster.simulator().Now();
  sim::Time acked_at = 0;
  client->rados.mon_client().SubmitTransaction(fail, [&](Status s) {
    EXPECT_TRUE(s.ok()) << s;
    acked_at = cluster.simulator().Now();
  });
  ASSERT_TRUE(cluster.RunUntil([&] { return written.has_value() && acked_at > 0; }));

  EXPECT_LT(acked_at - submitted, 5 * sim::kMillisecond);
  ASSERT_TRUE(written->ok()) << *written;
  EXPECT_EQ(tries, 2);  // the try in flight to the lost OSD, then one that lands
  EXPECT_LT(written_at - issued, kOpDeadline + 5 * sim::kMillisecond);
  auto read = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), "written across the loss");
}

// -- First-k reads -------------------------------------------------------------
// A read decides on the first k agreeing shards; these cases pin down that
// the early decision never returns anything the full k+1 gather would not.

// Delays every message between `client` and the home of `shard_oid` by up
// to `delay`, so that shard's reply lands after the others.
void SlowShardHome(cluster::Cluster* cluster, cluster::Client* client,
                   const std::string& shard_oid, sim::Time delay) {
  uint32_t home = osd::ActingSetForOid(shard_oid, client->rados.osd_map(), 3).at(0);
  sim::FaultSpec slow;
  slow.reorder_prob = 1.0;
  slow.reorder_delay = delay;
  cluster->network().SetLinkFaults(client->name(), sim::EntityName::Osd(home), slow);
}

// Replaces the shard at `to_oid` with the stored object `from_oid`: a
// checksum-valid shard of another write generation.
void PlantShard(cluster::Cluster* cluster, cluster::Client* client,
                const std::string& from_oid, const std::string& to_oid) {
  auto from = osd::ActingSetForOid(from_oid, client->rados.osd_map(), 3).at(0);
  auto to = osd::ActingSetForOid(to_oid, client->rados.osd_map(), 3).at(0);
  auto stored = cluster->osd(from).store().Get(from_oid);
  ASSERT_TRUE(stored.ok()) << from_oid;
  cluster->osd(to).store().Put(to_oid, *stored.value());
}

TEST(EcFirstKReadTest, CorruptDataShardWaitsForParity) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();
  client->rados.set_perf(&client->perf);

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  std::string payload = "a flipped data bit must never reach the reader";
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", payload).ok());
  std::string oid = pool.ShardOid("obj", 0);
  auto acting = osd::ActingSetForOid(oid, client->rados.osd_map(), options.osd.replicas);
  ASSERT_TRUE(cluster.osd(acting.at(0)).store().FlipBit(oid, /*byte=*/1, /*bit=*/3));
  // Even with the parity shard slowest, the two clean data shards are not
  // k agreeing shards: the read must wait for parity and decode around
  // the corrupt one.
  SlowShardHome(&cluster, client, pool.ShardOid("obj", pool.k()), 20 * sim::kMillisecond);

  auto read = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), payload);
  EXPECT_EQ(client->perf.counter("rados.ec.degraded_reads"), 1u);
}

TEST(EcFirstKReadTest, ForeignStampStragglerIsIgnored) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();
  client->rados.set_perf(&client->perf);

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  std::string payload = "the generation three shards agree on";
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", payload).ok());
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "other", "a different write generation").ok());
  ASSERT_NO_FATAL_FAILURE(
      PlantShard(&cluster, client, pool.ShardOid("other", 2), pool.ShardOid("obj", 2)));
  SlowShardHome(&cluster, client, pool.ShardOid("obj", 2), 20 * sim::kMillisecond);

  // Three agreeing shards decide the read before the foreign one lands.
  std::optional<Result<std::string>> read;
  uint64_t degraded_at_answer = 0;
  pool.Read("obj", [&](Status s, const Buffer& data) {
    read = s.ok() ? Result<std::string>(data.ToString()) : Result<std::string>(s);
    degraded_at_answer = client->perf.counter("rados.ec.degraded_reads");
  });
  ASSERT_TRUE(cluster.RunUntil([&] { return read.has_value(); }, 60 * sim::kSecond));
  ASSERT_TRUE(read->ok()) << read->status();
  EXPECT_EQ(read->value(), payload);
  EXPECT_EQ(degraded_at_answer, 0u);
  // The straggler is absorbed when it lands and counted as a hole.
  cluster.RunFor(100 * sim::kMillisecond);
  EXPECT_EQ(client->perf.counter("rados.ec.degraded_reads"), 1u);
}

TEST(EcFirstKReadTest, EarlyForeignStampShardIsNotCountedAsAgreeing) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();
  client->rados.set_perf(&client->perf);

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  std::string payload = "the generation three shards agree on";
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", payload).ok());
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "other", "a different write generation").ok());
  ASSERT_NO_FATAL_FAILURE(
      PlantShard(&cluster, client, pool.ShardOid("other", 2), pool.ShardOid("obj", 2)));
  // The foreign shard lands among the first three; the slow one is the
  // third shard of the generation the read must return.
  SlowShardHome(&cluster, client, pool.ShardOid("obj", 0), 20 * sim::kMillisecond);

  auto read = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), payload);
  EXPECT_EQ(client->perf.counter("rados.ec.degraded_reads"), 1u);
}

TEST(EcFirstKReadTest, TwoShardPoolWaitsForBothGenerations) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();
  client->rados.set_perf(&client->perf);

  // k=1: shard 0 holds one generation, shard 1 another. Neither has a
  // majority, so the pick is SelectGeneration's tie-break over both.
  Pool pool = CreatePool(&cluster, client, "pair", /*k=*/1);
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", "generation one").ok());
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "old", "generation two!").ok());
  ASSERT_NO_FATAL_FAILURE(
      PlantShard(&cluster, client, pool.ShardOid("old", 1), pool.ShardOid("obj", 1)));

  std::optional<std::vector<ShardInfo>> gathered;
  pool.GatherShards("obj", [&](const std::vector<ShardInfo>& shards) { gathered = shards; });
  ASSERT_TRUE(cluster.RunUntil([&] { return gathered.has_value(); }));
  uint64_t size = 0;
  uint32_t missing = 0;
  auto generation = SelectGeneration(*gathered, &size, &missing);
  auto expected = Decode(generation, size);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(missing, 1u);

  // Whichever shard replies first, the read waits for the other one.
  for (uint32_t slow = 0; slow < pool.num_shards(); ++slow) {
    SlowShardHome(&cluster, client, pool.ShardOid("obj", slow), 20 * sim::kMillisecond);
    uint64_t degraded_before = client->perf.counter("rados.ec.degraded_reads");
    std::optional<Result<std::string>> read;
    uint64_t degraded_at_answer = 0;
    pool.Read("obj", [&](Status s, const Buffer& data) {
      read = s.ok() ? Result<std::string>(data.ToString()) : Result<std::string>(s);
      degraded_at_answer = client->perf.counter("rados.ec.degraded_reads");
    });
    ASSERT_TRUE(cluster.RunUntil([&] { return read.has_value(); }, 60 * sim::kSecond));
    ASSERT_TRUE(read->ok()) << read->status();
    EXPECT_EQ(read->value(), expected.value().ToString()) << "slow shard " << slow;
    // Counted at the last reply, so already in when the read answered.
    EXPECT_EQ(degraded_at_answer, degraded_before + 1) << "slow shard " << slow;
    cluster.network().ClearFaults();
  }
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
    uint64_t stamp = Checksum(payload);
    for (uint32_t i = 0; i <= k; ++i) {
      std::string oid = pool.ShardOid(name, i);
      auto acting =
          osd::ActingSetForOid(oid, client->rados.osd_map(), options.osd.replicas);
      ASSERT_EQ(acting.size(), 1u);
      EXPECT_NE(acting[0], victim);
      auto stored = cluster.osd(acting[0]).store().Get(oid);
      ASSERT_TRUE(stored.ok()) << oid << " missing from osd." << acting[0];
      const osd::Object* object = stored.value();
      EXPECT_EQ(object->xattrs.Find(kShardCksumXattr),
                std::to_string(Checksum(object->data.View())))
          << oid;
      EXPECT_EQ(object->xattrs.Find(kShardStampXattr), std::to_string(stamp))
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
  EXPECT_EQ(stored.value()->xattrs.Find(kShardCksumXattr),
            std::to_string(Checksum(stored.value()->data.View())));
  auto read = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), payload);
}

// A repair decodes generation G and then fills the holes of G. A client
// overwrite that lands between the gather and the fill must survive it.
TEST(ScrubTest, RepairNeverRollsBackAConcurrentOverwrite) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", "version one").ok());
  uint32_t victim = 0;
  ASSERT_NO_FATAL_FAILURE(LoseShardHome(&cluster, client, pool.ShardOid("obj", 0), &victim));

  // The agent's OSD links are slow, so its repair lands after the client's
  // overwrite, which it issues as soon as the agent has gathered.
  sim::FaultSpec slow;
  slow.reorder_prob = 1.0;
  slow.reorder_delay = 20 * sim::kMillisecond;
  for (uint32_t i = 0; i < options.num_osds; ++i) {
    cluster.network().SetLinkFaults(sim::EntityName::Scrub(0), sim::EntityName::Osd(i), slow);
  }
  auto* agent = cluster.NewScrubAgent();
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return agent->perf().counter("scrub.objects_scanned") >= 1; }, 60 * sim::kSecond));
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", "version two").ok());

  ASSERT_TRUE(cluster.RunUntil([&] { return agent->passes_completed() >= 2; },
                               60 * sim::kSecond));
  auto read = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), "version two");
}

// A seal after the loss creates the lost slot on its new home with an
// epoch but no data or stamp. The fill must still treat it as a hole, and
// keep its seal.
TEST(ScrubTest, RefillsAShardThatOnlyASealCreated) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  std::string payload = "sealed after its shard 0 was lost";
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", payload).ok());
  uint32_t victim = 0;
  ASSERT_NO_FATAL_FAILURE(LoseShardHome(&cluster, client, pool.ShardOid("obj", 0), &victim));
  std::optional<Status> sealed;
  pool.Seal("obj", 7, [&](Status s) { sealed = s; });
  ASSERT_TRUE(cluster.RunUntil([&] { return sealed.has_value(); }));
  ASSERT_TRUE(sealed->ok()) << *sealed;

  auto* agent = cluster.NewScrubAgent();
  ASSERT_TRUE(cluster.RunUntil([&] { return agent->passes_completed() >= 2; },
                               60 * sim::kSecond));
  EXPECT_GE(agent->perf().counter("scrub.shards_rebuilt"), 1u);
  EXPECT_EQ(agent->last_pass_degraded(), 0u);

  std::string oid = pool.ShardOid("obj", 0);
  uint32_t home = osd::ActingSetForOid(oid, client->rados.osd_map(), 3).at(0);
  auto stored = cluster.osd(home).store().Get(oid);
  ASSERT_TRUE(stored.ok()) << oid;
  EXPECT_EQ(stored.value()->xattrs.Find("ec.epoch"), "7");
  auto read = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), payload);
  Pool stale = *Pool::Bind(&client->rados, "ecpool");
  stale.set_epoch(6);
  Status rejected = PoolWrite(&cluster, &stale, "obj", "stale generation");
  EXPECT_EQ(rejected.code(), Code::kStaleEpoch) << rejected;
}

// A shard home that crashed with its disk but is still up in the map: the
// gather ends at its deadline instead of waiting out rpc timeouts, and the
// object is refilled once the OSD is back.
TEST(ScrubTest, GatherFromACrashedHomeStillInTheMapEndsAtTheDeadline) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  std::string payload = "one shard home is gone but still in the map";
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", payload).ok());
  // The crashed home's listing never answers; the other OSDs' listings
  // still report the object.
  std::string oid = pool.ShardOid("obj", 0);
  uint32_t victim = osd::ActingSetForOid(oid, client->rados.osd_map(), 3).at(0);
  cluster.osd(victim).Crash();
  cluster.osd(victim).store().Clear();

  scrub::ScrubConfig config;
  config.interval = 100 * sim::kMillisecond;
  auto* agent = cluster.NewScrubAgent(config);
  sim::Time start = cluster.simulator().Now();
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return agent->perf().counter("scrub.objects_scanned") >= 1; }, 60 * sim::kSecond));
  EXPECT_LE(cluster.simulator().Now() - start, 1 * sim::kSecond);

  cluster.RunFor(3 * sim::kSecond);
  EXPECT_GE(agent->perf().counter("scrub.repair_failures"), 1u);
  cluster.osd(victim).Recover();
  ASSERT_TRUE(cluster.RunUntil([&] { return cluster.osd(victim).store().Exists(oid); },
                               60 * sim::kSecond));
  const osd::Object* refilled = cluster.osd(victim).store().Get(oid).value();
  EXPECT_EQ(refilled->xattrs.Find(kShardCksumXattr),
            std::to_string(Checksum(refilled->data.View())));
  auto read = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), payload);
}

// Two holes, one of them a home that crashed but is still up in the map:
// the gather cannot decode, so the object goes behind the pass and is
// repaired on its retry once the home is back, not a pass later.
TEST(ScrubTest, UndecodableGatherIsRetriedWithinThePass) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  std::string payload = "two holes for a moment, one for good";
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "obj", payload).ok());
  uint32_t lost = 0;
  ASSERT_NO_FATAL_FAILURE(LoseShardHome(&cluster, client, pool.ShardOid("obj", 0), &lost));
  uint32_t crashed =
      osd::ActingSetForOid(pool.ShardOid("obj", 1), client->rados.osd_map(), 3).at(0);
  ASSERT_NE(crashed, lost);
  cluster.osd(crashed).Crash();

  scrub::ScrubConfig config;
  config.interval = 100 * sim::kMillisecond;
  auto* agent = cluster.NewScrubAgent(config);
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return agent->perf().counter("scrub.objects_scanned") >= 1; }, 60 * sim::kSecond));
  EXPECT_EQ(agent->passes_completed(), 0u);
  cluster.osd(crashed).Recover();

  ASSERT_TRUE(cluster.RunUntil([&] { return agent->passes_completed() >= 1; },
                               60 * sim::kSecond));
  EXPECT_EQ(agent->perf().counter("scrub.unrecoverable"), 0u);
  EXPECT_EQ(agent->perf().counter("scrub.shards_rebuilt"), 1u);
  auto read = PoolRead(&cluster, &pool, "obj");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), payload);
}

// No index records the objects: the survivors' listings are what finds
// every object that had a shard on the lost OSD. Each object is tracked
// once although up to k+1 listings report it.
TEST(ScrubTest, RebuildsALostOsdFromTheListingsAlone) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  std::map<std::string, std::string> objects;
  for (int i = 0; i < 12; ++i) {
    std::string name = "o" + std::to_string(i);
    objects[name] = "payload of " + name + std::string(static_cast<size_t>(i) * 37, 'x');
    ASSERT_TRUE(PoolWrite(&cluster, &pool, name, objects[name]).ok());
  }
  // Lose the OSD holding the most shards, for good.
  std::vector<std::string> heaviest;
  for (size_t i = 0; i < cluster.num_osds(); ++i) {
    std::vector<std::string> held = cluster.osd(i).store().List("ecpool/");
    if (held.size() > heaviest.size()) {
      heaviest = std::move(held);
    }
  }
  ASSERT_FALSE(heaviest.empty());
  uint32_t victim = 0;
  ASSERT_NO_FATAL_FAILURE(LoseShardHome(&cluster, client, heaviest[0], &victim));

  auto* agent = cluster.NewScrubAgent();
  ASSERT_TRUE(cluster.RunUntil([&] { return agent->passes_completed() >= 1; },
                               60 * sim::kSecond));
  EXPECT_EQ(agent->perf().gauge("scrub.objects_tracked"), 12.0);
  EXPECT_EQ(agent->last_pass_degraded(), heaviest.size());
  EXPECT_EQ(agent->perf().counter("scrub.shards_rebuilt"), heaviest.size());
  EXPECT_EQ(agent->perf().counter("scrub.unrecoverable"), 0u);

  uint64_t repaired_at = agent->passes_completed();
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return agent->passes_completed() >= repaired_at + 1; }, 60 * sim::kSecond));
  EXPECT_EQ(agent->last_pass_degraded(), 0u);
  for (const auto& [name, payload] : objects) {
    auto read = PoolRead(&cluster, &pool, name);
    ASSERT_TRUE(read.ok()) << name << ": " << read.status();
    EXPECT_EQ(read.value(), payload);
  }
}

// Sealing a name that was never written creates its k+1 shards with an
// epoch but no data stamp. The listings report the name; scrub skips it
// without calling it degraded or unrecoverable.
TEST(ScrubTest, SealOnlyDebrisIsSkipped) {
  cluster::ClusterOptions options;
  options.num_osds = 6;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  Pool pool = CreatePool(&cluster, client, "ecpool", /*k=*/3);
  ASSERT_TRUE(PoolWrite(&cluster, &pool, "real", "a written object").ok());
  std::optional<Status> sealed;
  pool.Seal("ghost", 4, [&](Status s) { sealed = s; });
  ASSERT_TRUE(cluster.RunUntil([&] { return sealed.has_value(); }));
  ASSERT_TRUE(sealed->ok()) << *sealed;

  auto* agent = cluster.NewScrubAgent();
  ASSERT_TRUE(cluster.RunUntil([&] { return agent->passes_completed() >= 2; },
                               60 * sim::kSecond));
  EXPECT_EQ(agent->perf().gauge("scrub.objects_tracked"), 2.0);
  EXPECT_GE(agent->perf().counter("scrub.objects_scanned"), 2u);
  EXPECT_EQ(agent->last_pass_degraded(), 0u);
  EXPECT_EQ(agent->perf().counter("scrub.unrecoverable"), 0u);
  EXPECT_EQ(agent->perf().counter("scrub.shards_rebuilt"), 0u);
  EXPECT_EQ(PoolRead(&cluster, &pool, "ghost").status().code(), Code::kNotFound);
}

}  // namespace
}  // namespace mal::ec
