// Unit tests for the object store (transactions, ops) and placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/osd/object_store.h"
#include "src/osd/placement.h"

namespace mal::osd {
namespace {

Op MakeOp(Op::Type type) {
  Op op;
  op.type = type;
  return op;
}

TEST(ObjectStoreTest, WriteAndReadBack) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("hello world");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());

  Op read = MakeOp(Op::Type::kRead);
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "hello world");
}

TEST(ObjectStoreTest, PartialReadAndOffsetWrite) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("abcdefgh");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());

  Op patch = MakeOp(Op::Type::kWrite);
  patch.offset = 2;
  patch.data = mal::Buffer::FromString("XY");
  ASSERT_TRUE(store.ApplyTransaction("obj", {patch}, &results).ok());

  Op read = MakeOp(Op::Type::kRead);
  read.offset = 1;
  read.length = 4;
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "bXYe");
}

TEST(ObjectStoreTest, AppendGrowsObject) {
  ObjectStore store;
  std::vector<OpResult> results;
  for (const char* chunk : {"a", "b", "c"}) {
    Op append = MakeOp(Op::Type::kAppend);
    append.data = mal::Buffer::FromString(chunk);
    ASSERT_TRUE(store.ApplyTransaction("obj", {append}, &results).ok());
  }
  Op read = MakeOp(Op::Type::kRead);
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "abc");
}

TEST(ObjectStoreTest, CreateExclusiveFailsOnExisting) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op create = MakeOp(Op::Type::kCreate);
  create.excl = true;
  ASSERT_TRUE(store.ApplyTransaction("obj", {create}, &results).ok());
  EXPECT_EQ(store.ApplyTransaction("obj", {create}, &results).code(),
            Code::kAlreadyExists);
  // Non-exclusive create succeeds.
  create.excl = false;
  EXPECT_TRUE(store.ApplyTransaction("obj", {create}, &results).ok());
}

TEST(ObjectStoreTest, ReadMissingObjectFails) {
  ObjectStore store;
  std::vector<OpResult> results;
  EXPECT_EQ(store.ApplyTransaction("nope", {MakeOp(Op::Type::kRead)}, &results).code(),
            Code::kNotFound);
}

TEST(ObjectStoreTest, ObjectPresenceErrorsNameTheOid) {
  ObjectStore store;
  std::vector<OpResult> results;
  for (Op::Type type : {Op::Type::kRead, Op::Type::kStat, Op::Type::kRemove}) {
    mal::Status status = store.ApplyTransaction("nope", {MakeOp(type)}, &results);
    EXPECT_EQ(status.code(), Code::kNotFound);
    EXPECT_EQ(status.message(), "object nope");
  }
  Op create = MakeOp(Op::Type::kCreate);
  create.excl = true;
  ASSERT_TRUE(store.ApplyTransaction("nope", {create}, &results).ok());
  EXPECT_EQ(store.ApplyTransaction("nope", {create}, &results).message(), "object nope");
}

TEST(ObjectStoreTest, RemoveDeletesObject) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("x");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());
  ASSERT_TRUE(store.ApplyTransaction("obj", {MakeOp(Op::Type::kRemove)}, &results).ok());
  EXPECT_FALSE(store.Exists("obj"));
  EXPECT_EQ(store.ApplyTransaction("obj", {MakeOp(Op::Type::kRemove)}, &results).code(),
            Code::kNotFound);
}

TEST(ObjectStoreTest, OmapRoundTripAndPrefixList) {
  ObjectStore store;
  std::vector<OpResult> results;
  for (const auto& [k, v] : std::map<std::string, std::string>{
           {"idx.a", "1"}, {"idx.b", "2"}, {"other", "3"}}) {
    Op set = MakeOp(Op::Type::kOmapSet);
    set.key = k;
    set.value = v;
    ASSERT_TRUE(store.ApplyTransaction("obj", {set}, &results).ok());
  }
  Op get = MakeOp(Op::Type::kOmapGet);
  get.key = "idx.b";
  ASSERT_TRUE(store.ApplyTransaction("obj", {get}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "2");

  Op list = MakeOp(Op::Type::kOmapList);
  list.key = "idx.";
  ASSERT_TRUE(store.ApplyTransaction("obj", {list}, &results).ok());
  auto entries = mal::Decode<std::map<std::string, std::string>>(results[0].out).value();
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.at("idx.a"), "1");

  Op del = MakeOp(Op::Type::kOmapDel);
  del.key = "idx.a";
  ASSERT_TRUE(store.ApplyTransaction("obj", {del}, &results).ok());
  EXPECT_EQ(store.ApplyTransaction("obj", {get}, &results).ok(), true);
  get.key = "idx.a";
  EXPECT_EQ(store.ApplyTransaction("obj", {get}, &results).code(), Code::kNotFound);
}

TEST(ObjectStoreTest, XattrsAndGuard) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op set = MakeOp(Op::Type::kXattrSet);
  set.key = "epoch";
  set.value = "5";
  ASSERT_TRUE(store.ApplyTransaction("obj", {set}, &results).ok());

  Op cmp_ok = MakeOp(Op::Type::kCmpXattr);
  cmp_ok.key = "epoch";
  cmp_ok.value = "5";
  EXPECT_TRUE(store.ApplyTransaction("obj", {cmp_ok}, &results).ok());

  Op cmp_bad = cmp_ok;
  cmp_bad.value = "4";
  EXPECT_EQ(store.ApplyTransaction("obj", {cmp_bad}, &results).code(), Code::kAborted);
}

TEST(ObjectStoreTest, TransactionIsAtomic) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("before");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());

  // Transaction: guard fails after a write -> the write must not apply.
  Op mutate = MakeOp(Op::Type::kWriteFull);
  mutate.data = mal::Buffer::FromString("after");
  Op guard = MakeOp(Op::Type::kCmpXattr);
  guard.key = "missing";
  guard.value = "x";
  EXPECT_FALSE(store.ApplyTransaction("obj", {mutate, guard}, &results).ok());

  Op read = MakeOp(Op::Type::kRead);
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "before");
}

TEST(ObjectStoreTest, GuardedWriteComposition) {
  // The canonical cmpxattr-then-write pattern object interfaces rely on.
  ObjectStore store;
  std::vector<OpResult> results;
  Op init = MakeOp(Op::Type::kXattrSet);
  init.key = "owner";
  init.value = "alice";
  ASSERT_TRUE(store.ApplyTransaction("obj", {init}, &results).ok());

  Op guard = MakeOp(Op::Type::kCmpXattr);
  guard.key = "owner";
  guard.value = "alice";
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("alice-data");
  EXPECT_TRUE(store.ApplyTransaction("obj", {guard, write}, &results).ok());

  guard.value = "bob";
  write.data = mal::Buffer::FromString("bob-data");
  EXPECT_EQ(store.ApplyTransaction("obj", {guard, write}, &results).code(), Code::kAborted);
  Op read = MakeOp(Op::Type::kRead);
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "alice-data");
}

TEST(ObjectStoreTest, VersionBumpsOnlyOnMutation) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("v1");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());
  uint64_t v1 = store.Get("obj").value()->version;

  ASSERT_TRUE(store.ApplyTransaction("obj", {MakeOp(Op::Type::kRead)}, &results).ok());
  EXPECT_EQ(store.Get("obj").value()->version, v1);

  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());
  EXPECT_EQ(store.Get("obj").value()->version, v1 + 1);
}

TEST(ObjectStoreTest, ObjectEncodeDecodeRoundTrip) {
  Object object;
  object.data = mal::Buffer::FromString("payload");
  object.omap.Set("k", "v");
  object.xattrs.Set("x", "y");
  object.version = 9;
  mal::Buffer buffer;
  mal::Encoder enc(&buffer);
  enc(object);
  Object decoded = mal::Decode<Object>(buffer).value();
  EXPECT_EQ(decoded.data.ToString(), "payload");
  EXPECT_EQ(decoded.omap.Find("k"), std::optional<std::string_view>("v"));
  EXPECT_EQ(decoded.xattrs.Find("x"), std::optional<std::string_view>("y"));
  EXPECT_EQ(decoded.version, 9u);
}

TEST(ObjectStoreTest, SnapshotsCaptureAndRestorePointInTime) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("version-1");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());

  Op snap = MakeOp(Op::Type::kSnapCreate);
  snap.key = "v1";
  ASSERT_TRUE(store.ApplyTransaction("obj", {snap}, &results).ok());
  // Duplicate snapshot names rejected.
  EXPECT_EQ(store.ApplyTransaction("obj", {snap}, &results).code(), Code::kAlreadyExists);

  write.data = mal::Buffer::FromString("version-2");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());

  Op read_snap = MakeOp(Op::Type::kSnapRead);
  read_snap.key = "v1";
  ASSERT_TRUE(store.ApplyTransaction("obj", {read_snap}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "version-1");

  Op read = MakeOp(Op::Type::kRead);
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "version-2");

  Op remove_snap = MakeOp(Op::Type::kSnapRemove);
  remove_snap.key = "v1";
  ASSERT_TRUE(store.ApplyTransaction("obj", {remove_snap}, &results).ok());
  EXPECT_EQ(store.ApplyTransaction("obj", {read_snap}, &results).code(), Code::kNotFound);
}

TEST(ObjectStoreTest, SnapshotSurvivesEncodeDecode) {
  Object object;
  object.data = mal::Buffer::FromString("now");
  object.snapshots["then"] = mal::Buffer::FromString("before");
  mal::Buffer buffer;
  mal::Encoder enc(&buffer);
  enc(object);
  Object decoded = mal::Decode<Object>(buffer).value();
  EXPECT_EQ(decoded.snapshots.at("then").ToString(), "before");
}

TEST(ObjectStoreTest, SnapshotIsUnaffectedByLaterAppends) {
  // kSnapCreate is an O(1) COW alias of the live data; later appends to the
  // object must never leak into the snapshot.
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("base");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());
  Op snap = MakeOp(Op::Type::kSnapCreate);
  snap.key = "s";
  ASSERT_TRUE(store.ApplyTransaction("obj", {snap}, &results).ok());

  for (int i = 0; i < 100; ++i) {
    Op append = MakeOp(Op::Type::kAppend);
    append.data = mal::Buffer::FromString("-more");
    ASSERT_TRUE(store.ApplyTransaction("obj", {append}, &results).ok());
  }

  Op read_snap = MakeOp(Op::Type::kSnapRead);
  read_snap.key = "s";
  ASSERT_TRUE(store.ApplyTransaction("obj", {read_snap}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "base");
  Op read = MakeOp(Op::Type::kRead);
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.size(), 4u + 100 * 5);
}

TEST(ObjectStoreTest, AbortedTransactionLeavesNoTrace) {
  // Delta staging: a transaction that fails mid-way must leave the
  // committed object — data, omap, xattrs, snapshots, version — and the
  // store's byte accounting exactly as they were.
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("committed");
  Op omap = MakeOp(Op::Type::kOmapSet);
  omap.key = "k";
  omap.value = "v";
  Op snap = MakeOp(Op::Type::kSnapCreate);
  snap.key = "s";
  ASSERT_TRUE(store.ApplyTransaction("obj", {write, omap, snap}, &results).ok());
  uint64_t version = store.Get("obj").value()->version;
  uint64_t bytes = store.bytes_used();

  // Mutate everything, then hit a failing guard: all-or-nothing abort.
  Op grow = MakeOp(Op::Type::kAppend);
  grow.data = mal::Buffer::FromString("-dirty");
  Op omap2 = MakeOp(Op::Type::kOmapSet);
  omap2.key = "k2";
  omap2.value = "v2";
  Op del = MakeOp(Op::Type::kOmapDel);
  del.key = "k";
  Op snap2 = MakeOp(Op::Type::kSnapCreate);
  snap2.key = "s2";
  Op guard = MakeOp(Op::Type::kCmpXattr);
  guard.key = "missing";
  guard.value = "x";
  EXPECT_EQ(
      store.ApplyTransaction("obj", {grow, omap2, del, snap2, guard}, &results).code(),
      Code::kAborted);

  const Object* object = store.Get("obj").value();
  EXPECT_EQ(object->data.ToString(), "committed");
  EXPECT_EQ(object->omap.size(), 1u);
  EXPECT_EQ(object->omap.Find("k"), std::optional<std::string_view>("v"));
  EXPECT_EQ(object->snapshots.size(), 1u);
  EXPECT_EQ(object->version, version);
  EXPECT_EQ(store.bytes_used(), bytes);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
}

TEST(ObjectStoreTest, BytesUsedTracksIncrementally) {
  // bytes_used() is maintained as a running total on commit/Put/Remove;
  // it must always agree with a full recount.
  ObjectStore store;
  std::vector<OpResult> results;
  EXPECT_EQ(store.bytes_used(), 0u);

  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString(std::string(1000, 'a'));
  ASSERT_TRUE(store.ApplyTransaction("a", {write}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 1000u);

  Op append = MakeOp(Op::Type::kAppend);
  append.data = mal::Buffer::FromString(std::string(24, 'b'));
  ASSERT_TRUE(store.ApplyTransaction("a", {append}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 1024u);

  Op omap = MakeOp(Op::Type::kOmapSet);
  omap.key = "key";    // 3 bytes
  omap.value = "val";  // 3 bytes
  ASSERT_TRUE(store.ApplyTransaction("a", {omap}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 1030u);
  omap.value = "v";  // overwrite shrinks the value
  ASSERT_TRUE(store.ApplyTransaction("a", {omap}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 1028u);
  Op del = MakeOp(Op::Type::kOmapDel);
  del.key = "key";
  ASSERT_TRUE(store.ApplyTransaction("a", {del}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 1024u);

  // Truncate via resize-style WriteFull, second object, Put/Remove.
  write.data = mal::Buffer::FromString("tiny");
  ASSERT_TRUE(store.ApplyTransaction("a", {write}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 4u);
  Object replica;
  replica.data = mal::Buffer::FromString("0123456789");
  replica.omap.Set("m", "n");
  store.Put("b", std::move(replica));
  EXPECT_EQ(store.bytes_used(), 16u);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
  store.Remove("b");
  EXPECT_EQ(store.bytes_used(), 4u);
  ASSERT_TRUE(store.ApplyTransaction("a", {MakeOp(Op::Type::kRemove)}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
}

using Records = std::vector<std::pair<std::string, std::string>>;

Records Entries(const Omap& omap) {
  Records out;
  for (auto [k, v] : omap) {
    out.emplace_back(k, v);
  }
  return out;
}

Records Entries(const std::map<std::string, std::string>& map) {
  return {map.begin(), map.end()};
}

TEST(OmapTest, ObjectEncodeIsByteIdenticalToStringMapWire) {
  // Object push/pull payloads, and so simulated time, depend on these bytes.
  mal::Rng rng(7);
  Object object;
  object.data = mal::Buffer::FromString("bytestream");
  object.xattrs.Set("x", "y");
  object.snapshots["s"] = mal::Buffer::FromString("snap");
  object.version = 42;
  std::map<std::string, std::string> reference;
  for (int i = 0; i < 500; ++i) {
    std::string key = "k" + std::to_string(rng.NextBelow(200));
    std::string value(rng.NextBelow(300), static_cast<char>('a' + rng.NextBelow(26)));
    if (rng.NextBelow(4) == 0) {
      object.omap.Erase(key);
      reference.erase(key);
    } else {
      object.omap.Set(key, value);
      reference[key] = value;
    }
  }
  ASSERT_GT(reference.size(), 50u);

  mal::Buffer expected;
  mal::Encoder enc(&expected);
  enc.PutBuffer(object.data);
  enc(reference);
  enc(std::map<std::string, std::string>{{"x", "y"}});
  enc.PutVarU64(1);
  enc.PutString("s");
  enc.PutBuffer(object.snapshots.at("s"));
  enc.PutU64(object.version);
  EXPECT_EQ(mal::Encode(object).ToString(), expected.ToString());
}

TEST(OmapTest, DecodeSortsOutOfOrderKeysAndKeepsTheFirstDuplicate) {
  // A well-formed payload is sorted and duplicate-free; a malformed one must
  // still decode to what a std::map makes of it, in key order.
  mal::Buffer wire;
  mal::Encoder enc(&wire);
  const Records records = {{"m", "1"}, {"c", "2"}, {"c", "dup"}, {"a", "3"}, {"a", "dup"}};
  enc.PutVarU64(records.size());
  for (const auto& [k, v] : records) {
    enc.PutString(k);
    enc.PutString(v);
  }
  auto omap_or = mal::Decode<Omap>(wire);
  ASSERT_TRUE(omap_or.ok());
  const Omap& omap = omap_or.value();
  std::map<std::string, std::string> reference =
      mal::Decode<std::map<std::string, std::string>>(wire).value();
  EXPECT_EQ(Entries(omap), Entries(reference));
  EXPECT_EQ(Entries(omap), (Records{{"a", "3"}, {"c", "2"}, {"m", "1"}}));
}

size_t VarintBytes(size_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) {
    ++n;
  }
  return n;
}

// Arena bytes of one record: two varint lengths, the key and the value.
size_t RecordBytes(const std::string& key, const std::string& value) {
  return VarintBytes(key.size()) + VarintBytes(value.size()) + key.size() + value.size();
}

TEST(OmapTest, ArenaStaysWithinTwiceItsLiveRecordsUnderChurn) {
  mal::Rng rng(3);
  Omap omap;
  std::map<std::string, std::string> reference;
  size_t appended = 0;
  size_t max_record = 0;
  for (int step = 0; step < 20000; ++step) {
    std::string key = "e" + std::to_string(1000 + rng.NextBelow(400));
    if (key.back() == '7') {
      key.append(150, 'k');  // a length past one varint byte
    }
    if (rng.NextBelow(3) == 0) {
      omap.Erase(key);
      reference.erase(key);
    } else {
      std::string value(rng.NextBelow(200), 'v');
      omap.Set(key, value);
      reference[key] = value;
      appended += RecordBytes(key, value);
      max_record = std::max(max_record, RecordBytes(key, value));
    }
    size_t live = 0;
    for (const auto& [k, v] : reference) {
      live += RecordBytes(k, v);
    }
    ASSERT_LE(omap.arena_bytes(), 2 * live + max_record) << "step " << step;
  }
  EXPECT_EQ(Entries(omap), Entries(reference));
  EXPECT_LT(omap.arena_bytes(), appended / 4);  // compaction really ran
}

TEST(ObjectStoreTest, RemoveThenRecreateInOneTransaction) {
  // The staged view must model "remove then recreate" without resurrecting
  // the removed object's fields.
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("old");
  Op omap = MakeOp(Op::Type::kOmapSet);
  omap.key = "stale";
  omap.value = "1";
  ASSERT_TRUE(store.ApplyTransaction("obj", {write, omap}, &results).ok());
  uint64_t version = store.Get("obj").value()->version;

  Op remove = MakeOp(Op::Type::kRemove);
  Op create = MakeOp(Op::Type::kCreate);
  Op append = MakeOp(Op::Type::kAppend);
  append.data = mal::Buffer::FromString("new");
  ASSERT_TRUE(store.ApplyTransaction("obj", {remove, create, append}, &results).ok());

  const Object* object = store.Get("obj").value();
  EXPECT_EQ(object->data.ToString(), "new");
  EXPECT_TRUE(object->omap.empty());  // old omap must not survive the remove
  // Recreate starts a fresh version history (same as replacing the object
  // with a newly built one), so the version matches a first commit.
  EXPECT_EQ(object->version, version);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
}

// ---- placement ---------------------------------------------------------------

mon::OsdMap MakeMap(uint32_t num_osds, uint32_t pg_count = 128) {
  mon::OsdMap map;
  map.epoch = 1;
  map.pg_count = pg_count;
  for (uint32_t i = 0; i < num_osds; ++i) {
    map.osds[i] = {true, 1.0};
  }
  return map;
}

TEST(PlacementTest, DeterministicAndPrimaryFirst) {
  mon::OsdMap map = MakeMap(10);
  auto a = OsdsForObject("obj-1", map, 3);
  auto b = OsdsForObject("obj-1", map, 3);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_NE(a[0], a[1]);
  EXPECT_NE(a[1], a[2]);
  EXPECT_NE(a[0], a[2]);
}

TEST(PlacementTest, SkipsDownOsds) {
  mon::OsdMap map = MakeMap(5);
  auto before = OsdsForObject("obj-x", map, 3);
  map.osds[before[0]].up = false;
  auto after = OsdsForObject("obj-x", map, 3);
  for (uint32_t osd : after) {
    EXPECT_NE(osd, before[0]);
  }
  EXPECT_EQ(after.size(), 3u);
}

TEST(PlacementTest, StableUnderMembershipChange) {
  // Rendezvous property: adding an OSD moves only the PGs it wins.
  mon::OsdMap small = MakeMap(10);
  mon::OsdMap large = MakeMap(11);
  int moved = 0;
  const int kPgs = 128;
  for (uint32_t pg = 0; pg < kPgs; ++pg) {
    auto a = PgToOsds(pg, small, 1);
    auto b = PgToOsds(pg, large, 1);
    if (a != b) {
      ++moved;
      EXPECT_EQ(b[0], 10u);  // any move must be to the new OSD
    }
  }
  // Expected moved fraction ~ 1/11 of PGs; allow generous slack.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kPgs / 4);
}

TEST(PlacementTest, RoughlyUniformDistribution) {
  mon::OsdMap map = MakeMap(10, 1024);
  std::map<uint32_t, int> primary_count;
  for (uint32_t pg = 0; pg < 1024; ++pg) {
    auto acting = PgToOsds(pg, map, 1);
    ASSERT_EQ(acting.size(), 1u);
    primary_count[acting[0]]++;
  }
  for (const auto& [osd, count] : primary_count) {
    EXPECT_GT(count, 50) << "osd " << osd;   // expected ~102
    EXPECT_LT(count, 180) << "osd " << osd;
  }
}

TEST(PlacementTest, WeightBiasesSelection) {
  mon::OsdMap map = MakeMap(4, 2048);
  map.osds[0].weight = 4.0;  // 4x the others
  std::map<uint32_t, int> primary_count;
  for (uint32_t pg = 0; pg < 2048; ++pg) {
    primary_count[PgToOsds(pg, map, 1)[0]]++;
  }
  EXPECT_GT(primary_count[0], primary_count[1] * 2);
}

TEST(PlacementTest, NoUpOsdsYieldsEmpty) {
  mon::OsdMap map = MakeMap(3);
  for (auto& [id, info] : map.osds) {
    info.up = false;
  }
  EXPECT_TRUE(OsdsForObject("obj", map, 3).empty());
}

}  // namespace
}  // namespace mal::osd
