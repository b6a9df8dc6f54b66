// Integration tests: monitors + OSDs + RadosClient in one simulation.
// Covers replication, class execution, dynamic interface install via the
// Service Metadata interface, map gossip, and failure recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/ec/pool.h"
#include "src/mon/monitor.h"
#include "src/osd/osd.h"
#include "src/rados/client.h"

namespace mal {
namespace {

using osd::Osd;
using osd::OsdConfig;
using rados::RadosClient;

// Client actor hosting a RadosClient.
class AppClient : public sim::Actor {
 public:
  AppClient(sim::Simulator* simulator, sim::Network* network, uint32_t id,
            std::vector<uint32_t> mons, uint32_t replicas)
      : Actor(simulator, network, sim::EntityName::Client(id)),
        rados(this, std::move(mons), replicas) {}

  RadosClient rados;

 protected:
  void HandleRequest(const sim::Envelope& request) override {
    rados.OnMapUpdate(request);
  }
};

class OsdClusterFixture : public ::testing::Test {
 protected:
  void Start(uint32_t num_osds, uint32_t replicas = 2) {
    replicas_ = replicas;
    mon_config_.proposal_interval = 200 * sim::kMillisecond;
    monitor = std::make_unique<mon::Monitor>(&simulator, &network, 0,
                                             std::vector<uint32_t>{0}, mon_config_);
    monitor->Boot();
    OsdConfig config;
    config.replicas = replicas;
    for (uint32_t i = 0; i < num_osds; ++i) {
      osds.push_back(std::make_unique<Osd>(&simulator, &network, i,
                                           std::vector<uint32_t>{0}, config));
      osds.back()->Boot();
    }
    client = std::make_unique<AppClient>(&simulator, &network, 0,
                                         std::vector<uint32_t>{0}, replicas);
    bool connected = false;
    client->rados.Connect([&](Status s) {
      ASSERT_TRUE(s.ok()) << s;
      connected = true;
    });
    Settle(3 * sim::kSecond);
    ASSERT_TRUE(connected);
    ASSERT_EQ(client->rados.osd_map().NumUp(), num_osds);
  }

  void Settle(sim::Time duration) { simulator.RunUntil(simulator.Now() + duration); }

  // Synchronous-style helpers driving the simulator until the callback runs.
  Status WriteFull(const std::string& oid, const std::string& data) {
    std::optional<Status> result;
    client->rados.WriteFull(oid, Buffer::FromString(data), [&](Status s) { result = s; });
    Settle(5 * sim::kSecond);
    return result.value_or(Status::TimedOut("no callback"));
  }

  Result<std::string> ReadBack(const std::string& oid) {
    std::optional<Result<std::string>> result;
    client->rados.Read(oid, [&](Status s, const Buffer& data) {
      if (s.ok()) {
        result = data.ToString();
      } else {
        result = Result<std::string>(s);
      }
    });
    Settle(5 * sim::kSecond);
    if (!result.has_value()) {
      return Status::TimedOut("no callback");
    }
    return *result;
  }

  Result<std::string> Exec(const std::string& oid, const std::string& cls,
                           const std::string& method, Buffer input) {
    std::optional<Result<std::string>> result;
    client->rados.Exec(oid, cls, method, std::move(input), [&](Status s, const Buffer& out) {
      if (s.ok()) {
        result = out.ToString();
      } else {
        result = Result<std::string>(s);
      }
    });
    Settle(5 * sim::kSecond);
    if (!result.has_value()) {
      return Status::TimedOut("no callback");
    }
    return *result;
  }

  // Runs `ops` as one transaction; the status of its first failing op, or
  // of the last op when all succeed.
  Status Transact(const std::string& oid, std::vector<osd::Op> ops) {
    std::optional<Status> result;
    client->rados.Execute(oid, std::move(ops), [&](Status s, const osd::OsdOpReply& reply) {
      result = s;
      for (const osd::OpResult& op_result : reply.results) {
        result = op_result.status;
        if (!op_result.status.ok()) {
          break;
        }
      }
    });
    Settle(5 * sim::kSecond);
    return result.value_or(Status::TimedOut("no callback"));
  }

  // Asserts every holder of `oid` keeps the object the first holder keeps:
  // data, omap, xattrs, snapshots and version. Returns the holders.
  std::vector<uint32_t> ExpectHoldersMatch(const std::string& oid, size_t want_holders) {
    std::vector<uint32_t> holders = Holders(oid);
    EXPECT_EQ(holders.size(), want_holders) << oid;
    if (holders.empty()) {
      return holders;
    }
    auto snapshots = [](const osd::Object& object) {
      std::map<std::string, std::string> bytes;
      for (const auto& [name, snap] : object.snapshots) {
        bytes[name] = snap.ToString();
      }
      return bytes;
    };
    const osd::Object* first = osds[holders[0]]->store().Get(oid).value();
    for (uint32_t holder : holders) {
      const osd::Object* object = osds[holder]->store().Get(oid).value();
      EXPECT_EQ(object->data.ToString(), first->data.ToString()) << "osd " << holder;
      EXPECT_TRUE(object->omap == first->omap) << "osd " << holder;
      EXPECT_EQ(object->xattrs, first->xattrs) << "osd " << holder;
      EXPECT_EQ(snapshots(*object), snapshots(*first)) << "osd " << holder;
      EXPECT_EQ(object->version, first->version) << "osd " << holder;
    }
    return holders;
  }

  // Acting set of `oid` (primary first) and, in `others`, the OSDs outside
  // it in id order: the tail of the primary's pull-sweep candidate list.
  std::vector<uint32_t> ActingAndOthers(const std::string& oid,
                                        std::vector<uint32_t>* others) {
    auto acting = osd::ActingSetForOid(oid, osds[0]->osd_map(), replicas_);
    for (auto& daemon : osds) {
      uint32_t id = daemon->name().id;
      if (std::find(acting.begin(), acting.end(), id) == acting.end()) {
        others->push_back(id);
      }
    }
    return acting;
  }

  // Installs a copy of `oid` on one OSD directly, as if left by a re-peer.
  void PlantCopy(uint32_t osd_id, const std::string& oid, const std::string& data,
                 uint64_t version) {
    osd::Object object;
    object.data = Buffer::FromString(data);
    object.version = version;
    osds[osd_id]->store().Put(oid, std::move(object));
  }

  // OSDs holding a copy of `oid`, per the stores themselves.
  std::vector<uint32_t> Holders(const std::string& oid) {
    std::vector<uint32_t> holders;
    for (auto& daemon : osds) {
      if (daemon->store().Exists(oid)) {
        holders.push_back(daemon->name().id);
      }
    }
    return holders;
  }

  sim::Simulator simulator;
  sim::Network network{&simulator};
  mon::MonitorConfig mon_config_;
  std::unique_ptr<mon::Monitor> monitor;
  std::vector<std::unique_ptr<Osd>> osds;
  std::unique_ptr<AppClient> client;
  uint32_t replicas_ = 2;
};

TEST_F(OsdClusterFixture, WriteReadRoundTrip) {
  Start(4);
  ASSERT_TRUE(WriteFull("greeting", "hello rados").ok());
  auto data = ReadBack("greeting");
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data.value(), "hello rados");
}

TEST_F(OsdClusterFixture, ReadMissingObjectFails) {
  Start(3);
  EXPECT_EQ(ReadBack("ghost").status().code(), Code::kNotFound);
}

TEST_F(OsdClusterFixture, WritesAreReplicated) {
  Start(5, /*replicas=*/3);
  ASSERT_TRUE(WriteFull("replicated-obj", "payload").ok());
  Settle(2 * sim::kSecond);  // replication acks
  EXPECT_EQ(Holders("replicated-obj").size(), 3u);
}

TEST_F(OsdClusterFixture, ReplicasHoldIdenticalData) {
  Start(4, /*replicas=*/2);
  ASSERT_TRUE(WriteFull("twin", "same-bytes").ok());
  Settle(2 * sim::kSecond);
  auto holders = Holders("twin");
  ASSERT_EQ(holders.size(), 2u);
  const auto* a = osds[holders[0]]->store().Get("twin").value();
  const auto* b = osds[holders[1]]->store().Get("twin").value();
  EXPECT_EQ(a->data.ToString(), b->data.ToString());
}

// A 4 KiB write crosses the wire as a data segment held by reference: the
// primary stores the client request's segment, the rep op carries that same
// segment on, and the replica stores it too. One exact-size storage backs
// both copies, and it pins no bytes beyond the object's own.
TEST_F(OsdClusterFixture, StoredPayloadPinsNoSpareCapacity) {
  Start(4, /*replicas=*/2);
  ASSERT_TRUE(WriteFull("page", std::string(4096, 'p')).ok());
  Settle(2 * sim::kSecond);
  auto holders = Holders("page");
  ASSERT_EQ(holders.size(), 2u);
  for (uint32_t holder : holders) {
    const Buffer& data = osds[holder]->store().Get("page").value()->data;
    ASSERT_EQ(data.size(), 4096u);
    EXPECT_LT(data.capacity() - data.size(), 256u) << "osd." << holder;
  }
  const Buffer& first = osds[holders[0]]->store().Get("page").value()->data;
  const Buffer& second = osds[holders[1]]->store().Get("page").value()->data;
  EXPECT_TRUE(first.SharesStorageWith(second));
  // Bit rot goes through Buffer::Write, which detaches: one copy rots.
  ASSERT_TRUE(osds[holders[0]]->store().FlipBit("page", 0, 0));
  EXPECT_FALSE(first.SharesStorageWith(second));
  EXPECT_EQ(second.ToString(), std::string(4096, 'p'));
}

// Below kSegmentMinBytes a write's bytes ride in its request's front
// buffer. The store keeps an exact copy of them, not an alias that would
// pin the whole request for as long as the object lives.
TEST_F(OsdClusterFixture, SmallWriteFullIsStoredExactly) {
  Start(4, /*replicas=*/2);
  const std::string payload(1366, 's');  // an EC k=3 shard of a 4 KiB object
  ASSERT_LT(payload.size(), kSegmentMinBytes);
  ASSERT_TRUE(WriteFull("small", payload).ok());
  Settle(2 * sim::kSecond);
  auto holders = Holders("small");
  ASSERT_EQ(holders.size(), 2u);
  for (uint32_t holder : holders) {
    const Buffer& data = osds[holder]->store().Get("small").value()->data;
    EXPECT_EQ(data.ToString(), payload) << "osd." << holder;
    EXPECT_EQ(data.capacity(), data.size()) << "osd." << holder;
  }

  // The same write, applied from a decoded request the test keeps.
  osd::OsdOpRequest request;
  request.oid = "small";
  request.ops.resize(1);
  request.ops[0].type = osd::Op::Type::kWriteFull;
  request.ops[0].data = Buffer::FromString(payload);
  Payload wire = EncodeSegmented(request);
  ASSERT_TRUE(wire.segments().empty());
  osd::OsdOpRequest decoded = Decode<osd::OsdOpRequest>(wire).value();
  ASSERT_TRUE(decoded.ops[0].data.SharesStorageWith(wire.front()));
  osd::ObjectStore store;
  std::vector<osd::OpResult> results;
  ASSERT_TRUE(store.ApplyTransaction("small", decoded.ops, &results).ok());
  const Buffer& stored = store.Get("small").value()->data;
  EXPECT_EQ(stored.ToString(), payload);
  EXPECT_EQ(stored.capacity(), stored.size());
  EXPECT_FALSE(stored.SharesStorageWith(wire.front()));
}

// EC shards are slices of the client's object. Each one leaves the client as
// its own exact-size copy, in the front below kSegmentMinBytes and as a
// segment above it, so no shard pins the object or a sibling shard.
TEST_F(OsdClusterFixture, StoredEcShardsShareNoStorage) {
  Start(4);
  std::optional<Status> created;
  ec::Pool::Create(&client->rados, "ecp", mon::PoolLayout::Erasure(3),
                   [&](Status s) { created = s; });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(created.has_value() && created->ok());
  std::optional<ec::Pool> pool = ec::Pool::Bind(&client->rados, "ecp");
  ASSERT_TRUE(pool.has_value());
  for (size_t bytes : {size_t{4096}, size_t{3 * 4096}}) {
    SCOPED_TRACE(bytes);
    std::string name = "obj" + std::to_string(bytes);
    std::optional<Status> written;
    pool->Write(name, Buffer::FromString(std::string(bytes, 'e')),
                [&](Status s) { written = s; });
    Settle(3 * sim::kSecond);
    ASSERT_TRUE(written.has_value() && written->ok());
    std::vector<Buffer> shards;
    for (uint32_t i = 0; i <= 3; ++i) {
      std::vector<uint32_t> holders = Holders(pool->ShardOid(name, i));
      ASSERT_EQ(holders.size(), 1u) << "shard " << i;
      shards.push_back(osds[holders[0]]->store().Get(pool->ShardOid(name, i)).value()->data);
    }
    for (size_t a = 0; a < shards.size(); ++a) {
      EXPECT_EQ(shards[a].size(), (bytes + 2) / 3);
      EXPECT_LT(shards[a].capacity() - shards[a].size(), 256u) << "shard " << a;
      for (size_t b = a + 1; b < shards.size(); ++b) {
        EXPECT_FALSE(shards[a].SharesStorageWith(shards[b])) << a << " and " << b;
      }
    }
  }
}

TEST_F(OsdClusterFixture, NativeClassExecution) {
  Start(3);
  Buffer input;
  Encoder enc(&input);
  enc.PutString("k1");
  enc.PutString("value-one");
  ASSERT_TRUE(Exec("kv-obj", "kvindex", "put", std::move(input)).ok());
  auto got = Exec("kv-obj", "kvindex", "get", Buffer::FromString("k1"));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), "value-one");
}

TEST_F(OsdClusterFixture, ClassErrorsPropagateToClient) {
  Start(3);
  using cls::ZlogOps;
  ASSERT_TRUE(
      Exec("log-obj", "zlog", "write", ZlogOps::MakeWrite(0, 0, Buffer::FromString("e")))
          .ok());
  EXPECT_EQ(Exec("log-obj", "zlog", "write",
                 ZlogOps::MakeWrite(0, 0, Buffer::FromString("dup")))
                .status()
                .code(),
            Code::kReadOnly);
}

TEST_F(OsdClusterFixture, ClassEffectsAreReplicated) {
  Start(4, /*replicas=*/2);
  using cls::ZlogOps;
  ASSERT_TRUE(
      Exec("zl", "zlog", "write", ZlogOps::MakeWrite(0, 3, Buffer::FromString("entry")))
          .ok());
  Settle(2 * sim::kSecond);
  auto holders = Holders("zl");
  ASSERT_EQ(holders.size(), 2u);
  for (uint32_t holder : holders) {
    const auto* object = osds[holder]->store().Get("zl").value();
    EXPECT_TRUE(object->omap.Find(ZlogOps::EntryKey(3)).has_value()) << "osd " << holder;
  }
}

TEST_F(OsdClusterFixture, DynamicInterfaceInstallClusterWide) {
  Start(6);
  int installs = 0;
  for (auto& daemon : osds) {
    daemon->on_interface_installed = [&installs](const std::string& cls,
                                                 const std::string& version) {
      EXPECT_EQ(cls, "echo");
      EXPECT_EQ(version, "v1");
      ++installs;
    };
  }
  bool installed = false;
  client->rados.InstallScriptInterface(
      "echo", "v1", "function echo(input) return 'echo:' .. input end",
      [&](Status s) {
        ASSERT_TRUE(s.ok()) << s;
        installed = true;
      });
  Settle(10 * sim::kSecond);
  ASSERT_TRUE(installed);
  EXPECT_EQ(installs, 6);  // every OSD loaded it without restarting

  auto out = Exec("any-obj", "echo", "echo", Buffer::FromString("hi"));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out.value(), "echo:hi");
}

TEST_F(OsdClusterFixture, InterfaceUpgradeChangesBehaviorLive) {
  Start(3);
  bool done = false;
  client->rados.InstallScriptInterface("fmt", "v1",
                                       "function render(i) return '[' .. i .. ']' end",
                                       [&](Status) { done = true; });
  Settle(8 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(Exec("o", "fmt", "render", Buffer::FromString("x")).value(), "[x]");

  done = false;
  client->rados.InstallScriptInterface("fmt", "v2",
                                       "function render(i) return '<' .. i .. '>' end",
                                       [&](Status) { done = true; });
  Settle(8 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(Exec("o", "fmt", "render", Buffer::FromString("x")).value(), "<x>");
}

TEST_F(OsdClusterFixture, GossipPropagatesWithoutDirectPush) {
  // Only OSD 0 subscribes to the monitor; the rest learn via gossip.
  Start(8);
  Settle(2 * sim::kSecond);
  // Cut monitor -> osd push for all but osd 0 by crashing their view: we
  // simulate by partitioning mon from osds 1..7.
  for (uint32_t i = 1; i < 8; ++i) {
    network.SetPartitioned(sim::EntityName::Mon(0), sim::EntityName::Osd(i), true);
  }
  bool done = false;
  client->rados.InstallScriptInterface("gsp", "v1", "function f(i) return i end",
                                       [&](Status) { done = true; });
  Settle(15 * sim::kSecond);  // allow anti-entropy rounds
  ASSERT_TRUE(done);
  for (auto& daemon : osds) {
    EXPECT_EQ(daemon->registry().ScriptVersion("gsp"), "v1")
        << daemon->name().ToString() << " missed the gossip";
  }
}

TEST_F(OsdClusterFixture, PrimaryFailureRetriesToNewPrimary) {
  Start(5, /*replicas=*/3);
  ASSERT_TRUE(WriteFull("ha-obj", "v1").ok());
  Settle(2 * sim::kSecond);
  auto acting = osd::OsdsForObject("ha-obj", client->rados.osd_map(), 3);
  ASSERT_FALSE(acting.empty());

  // Kill the primary and tell the monitor (failure detection shortcut).
  osds[acting[0]]->Crash();
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = acting[0];
  client->rados.mon_client().SubmitTransaction(fail, [](Status) {});
  Settle(3 * sim::kSecond);

  // Read goes to the new primary (a surviving replica has the data).
  auto data = ReadBack("ha-obj");
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data.value(), "v1");
}

TEST_F(OsdClusterFixture, TransactionAtomicAcrossExecAndPrimitives) {
  Start(3);
  // Compose: exec(lock.acquire alice) + omap_set in one transaction.
  std::vector<osd::Op> ops(2);
  ops[0].type = osd::Op::Type::kExec;
  ops[0].cls_name = "lock";
  ops[0].method = "acquire";
  ops[0].data = Buffer::FromString("alice");
  ops[1].type = osd::Op::Type::kOmapSet;
  ops[1].key = "meta";
  ops[1].value = "locked-write";
  std::optional<Status> result;
  client->rados.Execute("combo", std::move(ops),
                        [&](Status s, const osd::OsdOpReply& reply) {
                          if (s.ok() && !reply.results.empty()) {
                            result = reply.results.back().status;
                          } else {
                            result = s;
                          }
                        });
  Settle(5 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << *result;

  // Now a failing exec (bob can't lock) plus an omap write: nothing applies.
  std::vector<osd::Op> bad_ops(2);
  bad_ops[0].type = osd::Op::Type::kExec;
  bad_ops[0].cls_name = "lock";
  bad_ops[0].method = "acquire";
  bad_ops[0].data = Buffer::FromString("bob");
  bad_ops[1].type = osd::Op::Type::kOmapSet;
  bad_ops[1].key = "meta";
  bad_ops[1].value = "should-not-appear";
  std::optional<Status> bad_result;
  client->rados.Execute("combo", std::move(bad_ops),
                        [&](Status s, const osd::OsdOpReply& reply) {
                          bad_result = s.ok() && !reply.results.empty()
                                           ? reply.results[0].status
                                           : s;
                        });
  Settle(5 * sim::kSecond);
  ASSERT_TRUE(bad_result.has_value());
  EXPECT_EQ(bad_result->code(), Code::kPermissionDenied);
  // Verify the omap value from the failed transaction never landed.
  std::optional<std::string> meta;
  client->rados.OmapGet("combo", "meta",
                        [&](Status s, const Buffer& out) {
                          if (s.ok()) {
                            meta = out.ToString();
                          }
                        });
  Settle(5 * sim::kSecond);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(*meta, "locked-write");
}

// The primary commits the object its class methods staged, and replicas
// replay the recorded effects: after each kind of class transaction every
// holder must keep the same object, version included.
TEST_F(OsdClusterFixture, ReplicasMatchPrimaryAfterClassTransactions) {
  Start(5, /*replicas=*/3);
  using cls::ZlogOps;
  const std::string oid = "class-txn";

  std::vector<ZlogOps::BatchEntry> batch;
  for (uint64_t pos = 0; pos < 8; ++pos) {
    batch.push_back({pos, Buffer::FromString("entry-" + std::to_string(pos))});
  }
  ASSERT_TRUE(Exec(oid, "zlog", "write_batch", ZlogOps::MakeWriteBatch(0, batch)).ok());
  Settle(2 * sim::kSecond);
  ExpectHoldersMatch(oid, 3);

  // A class method and primitive ops in one transaction.
  std::vector<osd::Op> combo(5);
  combo[0] = RadosClient::MakeExecOp("zlog", "write",
                                     ZlogOps::MakeWrite(0, 8, Buffer::FromString("nine")));
  combo[1].type = osd::Op::Type::kAppend;
  combo[1].data = Buffer::FromString("bytes");
  combo[2].type = osd::Op::Type::kSnapCreate;
  combo[2].key = "snap-1";
  combo[3].type = osd::Op::Type::kXattrSet;
  combo[3].key = "owner";
  combo[3].value = "test";
  combo[4].type = osd::Op::Type::kOmapDel;
  combo[4].key = ZlogOps::EntryKey(0);
  ASSERT_TRUE(Transact(oid, std::move(combo)).ok());
  Settle(2 * sim::kSecond);
  std::vector<uint32_t> holders = ExpectHoldersMatch(oid, 3);
  ASSERT_FALSE(holders.empty());
  const osd::Object* committed = osds[holders[0]]->store().Get(oid).value();
  ASSERT_EQ(committed->snapshots.count("snap-1"), 1u);
  EXPECT_EQ(committed->snapshots.at("snap-1").ToString(), committed->data.ToString());
  EXPECT_EQ(committed->xattrs.Find("owner"), std::optional<std::string_view>("test"));
  EXPECT_FALSE(committed->omap.Find(ZlogOps::EntryKey(0)).has_value());

  // Remove, then recreate through a class method and a primitive write.
  std::vector<osd::Op> recreate(3);
  recreate[0].type = osd::Op::Type::kRemove;
  recreate[1] = RadosClient::MakeExecOp("zlog", "write",
                                        ZlogOps::MakeWrite(0, 0, Buffer::FromString("anew")));
  recreate[2].type = osd::Op::Type::kWriteFull;
  recreate[2].data = Buffer::FromString("fresh");
  ASSERT_TRUE(Transact(oid, std::move(recreate)).ok());
  Settle(2 * sim::kSecond);
  holders = ExpectHoldersMatch(oid, 3);
  ASSERT_FALSE(holders.empty());
  committed = osds[holders[0]]->store().Get(oid).value();
  EXPECT_EQ(committed->data.ToString(), "fresh");
  EXPECT_TRUE(committed->snapshots.empty());
  EXPECT_FALSE(committed->omap.Find(ZlogOps::EntryKey(8)).has_value());
  EXPECT_TRUE(committed->omap.Find(ZlogOps::EntryKey(0)).has_value());

  // A read-only class method commits nothing: no holder's version moves.
  std::map<uint32_t, uint64_t> versions;
  for (uint32_t holder : holders) {
    versions[holder] = osds[holder]->store().Get(oid).value()->version;
  }
  ASSERT_TRUE(Exec(oid, "zlog", "read", ZlogOps::MakeRead(0, 0)).ok());
  ASSERT_TRUE(Exec(oid, "zlog", "max_pos", ZlogOps::MakeMaxPos(0)).ok());
  Settle(2 * sim::kSecond);
  for (uint32_t holder : holders) {
    EXPECT_EQ(osds[holder]->store().Get(oid).value()->version, versions[holder])
        << "osd " << holder;
  }
}

TEST_F(OsdClusterFixture, PgSplitRemapsAndPullsOnMiss) {
  // Placement-group splitting (§4.4): when pg_count changes, objects remap;
  // a newly-responsible primary pulls the object from the old acting set.
  Start(5, /*replicas=*/2);
  std::vector<std::string> oids;
  int written = 0;
  for (int i = 0; i < 12; ++i) {
    oids.push_back("split-obj-" + std::to_string(i));
    client->rados.WriteFull(oids.back(), Buffer::FromString("data" + std::to_string(i)),
                            [&](Status s) {
                              if (s.ok()) {
                                ++written;
                              }
                            });
  }
  Settle(5 * sim::kSecond);
  ASSERT_EQ(written, 12);

  // Quadruple the PG count through the monitor.
  mon::Transaction split;
  split.op = mon::Transaction::Op::kSetPgCount;
  split.value = "512";
  bool committed = false;
  client->rados.mon_client().SubmitTransaction(split, [&](Status s) {
    ASSERT_TRUE(s.ok()) << s;
    committed = true;
  });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(committed);
  EXPECT_EQ(monitor->osd_map().pg_count, 512u);
  Settle(2 * sim::kSecond);  // let maps gossip

  // Every object remains readable under the new placement, even where the
  // primary changed (pull-on-miss heals it).
  for (int i = 0; i < 12; ++i) {
    auto data = ReadBack(oids[i]);
    ASSERT_TRUE(data.ok()) << oids[i] << ": " << data.status();
    EXPECT_EQ(data.value(), "data" + std::to_string(i));
  }
}

// The pull sweep asks every candidate at once but settles answers in
// candidate order. Network latency grows with payload size, so a large
// copy on an early candidate answers after a small copy on a later one.
constexpr size_t kSlowCopyBytes = 256 * 1024;

TEST_F(OsdClusterFixture, PullSweepAdoptsEarliestCandidateNotFirstAnswer) {
  Start(4, /*replicas=*/2);
  std::vector<uint32_t> others;
  auto acting = ActingAndOthers("pick.obj", &others);
  ASSERT_EQ(acting.size(), 2u);
  ASSERT_EQ(others.size(), 2u);
  // Diverged copies: the acting-set peer holds an older, larger version;
  // the last candidate a newer, small one that answers first.
  std::string peer_copy(kSlowCopyBytes, 'p');
  PlantCopy(acting[1], "pick.obj", peer_copy, /*version=*/3);
  PlantCopy(others.back(), "pick.obj", "later-candidate", /*version=*/7);

  auto data = ReadBack("pick.obj");
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_TRUE(data.value() == peer_copy) << "adopted the copy of a later candidate";
  Osd& primary = *osds[acting[0]];
  EXPECT_EQ(primary.store().Get("pick.obj").value()->version, 3u);
  EXPECT_EQ(primary.perf().counter("osd.pull.sweeps"), 1u);
  EXPECT_EQ(primary.perf().counter("osd.pull.adopted"), 1u);
}

TEST_F(OsdClusterFixture, PullSweepDropsRepliesAfterDecision) {
  Start(4, /*replicas=*/2);
  std::vector<uint32_t> others;
  auto acting = ActingAndOthers("late.obj", &others);
  ASSERT_EQ(others.size(), 2u);
  // The acting-set peer answers first with an adoptable copy; the large
  // copy on the last candidate arrives after the op has already run.
  PlantCopy(acting[1], "late.obj", "peer-copy", /*version=*/2);
  PlantCopy(others.back(), "late.obj", std::string(kSlowCopyBytes, 'x'), /*version=*/9);

  Osd& primary = *osds[acting[0]];
  uint64_t served_before = primary.ops_served();
  auto data = ReadBack("late.obj");  // settles well past every pull reply
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data.value(), "peer-copy");
  EXPECT_EQ(primary.ops_served(), served_before + 1);
  EXPECT_EQ(primary.store().Get("late.obj").value()->version, 2u);
  EXPECT_EQ(primary.perf().counter("osd.pull.adopted"), 1u);
  const auto* sweep_us = primary.perf().histogram("osd.pull.sweep_us");
  ASSERT_NE(sweep_us, nullptr);
  EXPECT_EQ(sweep_us->observed(), 1u);
}

// Stands in for one OSD and answers every pull with `reply`.
class PullImpostor : public sim::Actor {
 public:
  PullImpostor(sim::Simulator* simulator, sim::Network* network, uint32_t id, Buffer reply)
      : Actor(simulator, network, sim::EntityName::Osd(id)), reply_(std::move(reply)) {}

 protected:
  void HandleRequest(const sim::Envelope& request) override {
    if (request.type == osd::kMsgPullObject) {
      Reply(request, reply_);
    }
  }

 private:
  Buffer reply_;
};

TEST_F(OsdClusterFixture, PullSweepSkipsATruncatedPullReply) {
  Start(4, /*replicas=*/2);
  std::vector<uint32_t> others;
  auto acting = ActingAndOthers("cut.obj", &others);
  ASSERT_EQ(others.size(), 2u);
  PlantCopy(others.back(), "cut.obj", "clean-copy", /*version=*/5);
  // The acting-set peer, first in the sweep, answers with its copy cut one
  // byte short.
  osd::Object copy;
  copy.data = Buffer::FromString("truncated-copy");
  copy.version = 6;
  Buffer cut = Encode(copy);
  cut.Resize(cut.size() - 1);
  PullImpostor impostor(&simulator, &network, acting[1], cut);

  auto data = ReadBack("cut.obj");
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data.value(), "clean-copy");
  Osd& primary = *osds[acting[0]];
  EXPECT_EQ(primary.store().Get("cut.obj").value()->version, 5u);
  EXPECT_EQ(primary.perf().counter("osd.pull.adopted"), 1u);
}

TEST_F(OsdClusterFixture, PullSweepWaitsOutCrashedCandidateOnce) {
  Start(4, /*replicas=*/2);
  std::vector<uint32_t> others;
  auto acting = ActingAndOthers("crash.obj", &others);
  ASSERT_EQ(others.size(), 2u);
  PlantCopy(others.back(), "crash.obj", "survivor-copy", /*version=*/4);
  // The acting-set peer dies without the monitor hearing of it: it stays
  // up in every map, so its pull can only end by timeout.
  osds[acting[1]]->Crash();

  Osd& primary = *osds[acting[0]];
  uint64_t served_before = primary.ops_served();
  sim::Time start = simulator.Now();
  std::optional<Result<std::string>> read;
  sim::Time read_at = 0;
  client->rados.Read("crash.obj", [&](Status s, const Buffer& out) {
    read = s.ok() ? Result<std::string>(out.ToString()) : Result<std::string>(s);
    read_at = simulator.Now();
  });
  Settle(5 * sim::kSecond);
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(read->ok()) << read->status();
  EXPECT_EQ(read->value(), "survivor-copy");
  EXPECT_GE(read_at - start, osd::kPullTimeout);
  EXPECT_LT(read_at - start, osd::kPullTimeout + 10 * sim::kMillisecond);
  EXPECT_EQ(primary.ops_served(), served_before + 1);
  EXPECT_EQ(primary.perf().counter("osd.pull.sweeps"), 1u);
  EXPECT_EQ(primary.perf().counter("osd.pull.adopted"), 1u);
}

TEST_F(OsdClusterFixture, PullSweepKeepsWriteThatLandedMidSweep) {
  Start(4, /*replicas=*/2);
  std::vector<uint32_t> others;
  auto acting = ActingAndOthers("race.obj", &others);
  ASSERT_EQ(others.size(), 2u);
  PlantCopy(others.back(), "race.obj", "stale-copy", /*version=*/1);
  // The crashed peer holds the sweep open for kPullTimeout; a write
  // commits on the primary meanwhile.
  osds[acting[1]]->Crash();
  std::optional<Result<std::string>> read;
  client->rados.Read("race.obj", [&](Status s, const Buffer& out) {
    read = s.ok() ? Result<std::string>(out.ToString()) : Result<std::string>(s);
  });
  Settle(100 * sim::kMillisecond);
  std::optional<Status> written;
  client->rados.WriteFull("race.obj", Buffer::FromString("fresh-write"),
                          [&](Status s) { written = s; });
  Settle(5 * sim::kSecond);
  ASSERT_TRUE(written.has_value());
  EXPECT_TRUE(written->ok()) << *written;
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(read->ok()) << read->status();
  // The stale copy the sweep found must not roll the acked write back.
  EXPECT_EQ(read->value(), "fresh-write");
  EXPECT_EQ(osds[acting[0]]->store().Get("race.obj").value()->data.ToString(),
            "fresh-write");
}

TEST_F(OsdClusterFixture, SnapshotOpsWorkEndToEnd) {
  Start(3);
  ASSERT_TRUE(WriteFull("snappy", "original").ok());
  osd::Op snap;
  snap.type = osd::Op::Type::kSnapCreate;
  snap.key = "backup";
  std::optional<Status> result;
  client->rados.Execute("snappy", {snap}, [&](Status s, const osd::OsdOpReply& reply) {
    result = s.ok() && !reply.results.empty() ? reply.results[0].status : s;
  });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(result.has_value() && result->ok());

  ASSERT_TRUE(WriteFull("snappy", "mutated").ok());
  osd::Op read_snap;
  read_snap.type = osd::Op::Type::kSnapRead;
  read_snap.key = "backup";
  std::optional<std::string> snap_data;
  client->rados.Execute("snappy", {read_snap},
                        [&](Status s, const osd::OsdOpReply& reply) {
                          if (s.ok() && !reply.results.empty() &&
                              reply.results[0].status.ok()) {
                            snap_data = reply.results[0].out.ToString();
                          }
                        });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(snap_data.has_value());
  EXPECT_EQ(*snap_data, "original");
  EXPECT_EQ(ReadBack("snappy").value(), "mutated");
}

TEST_F(OsdClusterFixture, RestartRejoinsAndServesReadsFromDurableStore) {
  Start(3, /*replicas=*/2);
  ASSERT_TRUE(WriteFull("restart.obj", "durable-bytes").ok());
  Settle(1 * sim::kSecond);

  osds[0]->Crash();
  Settle(1 * sim::kSecond);
  osds[0]->Recover();
  // Until the map catch-up from the monitor completes, the OSD refuses
  // client I/O (it may be acting on an arbitrarily stale map).
  EXPECT_TRUE(osds[0]->rejoining());
  Settle(2 * sim::kSecond);
  EXPECT_FALSE(osds[0]->rejoining());

  // The ObjectStore modeled durable media: every replica still holds the
  // bytes, and client reads round-trip against the restarted cluster.
  for (uint32_t holder : Holders("restart.obj")) {
    const auto* object = osds[holder]->store().Get("restart.obj").value();
    EXPECT_EQ(object->data.ToString(), "durable-bytes");
  }
  EXPECT_EQ(ReadBack("restart.obj").value(), "durable-bytes");
}

}  // namespace
}  // namespace mal
