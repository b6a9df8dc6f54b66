// Tests for the object-class subsystem: context staging/effects, registry
// dispatch, script classes, sandboxing, and every builtin class — with a
// deep dive on cls_zlog (the CORFU storage interface).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/cls/builtin.h"
#include "src/cls/registry.h"

namespace mal::cls {
namespace {

// Harness: executes a class method against an in-memory object the way the
// OSD does — staged delta view, recorded effects, commit on success.
class ClsHarness {
 public:
  ClsHarness() { RegisterBuiltinClasses(&registry); }

  mal::Result<mal::Buffer> Call(const std::string& cls, const std::string& method,
                                const mal::Buffer& input) {
    osd::TxnObject staged(object.has_value() ? &*object : nullptr);
    std::vector<osd::Op> effects;
    ClsContext ctx("test-obj", &staged, &effects);
    auto out = registry.Execute(cls, method, ctx, input);
    if (out.ok()) {
      object = staged.Materialize();  // commit
      last_effects = std::move(effects);
    }
    return out;
  }

  ClassRegistry registry;
  std::optional<osd::Object> object;
  std::vector<osd::Op> last_effects;
};

// ---- cls zlog (CORFU storage interface) -------------------------------------

TEST(ClsZlogTest, WriteOnceSemantics) {
  ClsHarness h;
  auto w1 = h.Call("zlog", "write", ZlogOps::MakeWrite(0, 0, mal::Buffer::FromString("a")));
  ASSERT_TRUE(w1.ok()) << w1.status();
  auto w2 = h.Call("zlog", "write", ZlogOps::MakeWrite(0, 0, mal::Buffer::FromString("b")));
  EXPECT_EQ(w2.status().code(), mal::Code::kReadOnly);

  auto r = h.Call("zlog", "read", ZlogOps::MakeRead(0, 0));
  ASSERT_TRUE(r.ok());
  mal::Decoder dec(r.value());
  EXPECT_EQ(dec.GetU8(), static_cast<uint8_t>(ZlogEntryState::kWritten));
  EXPECT_EQ(dec.GetString(), "a");
}

TEST(ClsZlogTest, ReadUnwrittenReportsNotWritten) {
  ClsHarness h;
  h.Call("zlog", "write", ZlogOps::MakeWrite(0, 0, mal::Buffer::FromString("x")));
  auto r = h.Call("zlog", "read", ZlogOps::MakeRead(0, 5));
  EXPECT_EQ(r.status().code(), mal::Code::kNotWritten);
}

TEST(ClsZlogTest, SealInstallsEpochAndReturnsMaxPos) {
  ClsHarness h;
  for (uint64_t pos : {0, 1, 2}) {
    ASSERT_TRUE(
        h.Call("zlog", "write", ZlogOps::MakeWrite(0, pos, mal::Buffer::FromString("e")))
            .ok());
  }
  auto seal = h.Call("zlog", "seal", ZlogOps::MakeSeal(1));
  ASSERT_TRUE(seal.ok());
  mal::Decoder dec(seal.value());
  EXPECT_EQ(dec.GetU64(), 3u);  // tail after 3 writes
}

TEST(ClsZlogTest, StaleEpochRejectedAfterSeal) {
  ClsHarness h;
  ASSERT_TRUE(h.Call("zlog", "seal", ZlogOps::MakeSeal(2)).ok());
  // Old-epoch operations bounce with kStaleEpoch (CORFU invalidation).
  EXPECT_EQ(h.Call("zlog", "write",
                   ZlogOps::MakeWrite(1, 0, mal::Buffer::FromString("late")))
                .status()
                .code(),
            mal::Code::kStaleEpoch);
  EXPECT_EQ(h.Call("zlog", "read", ZlogOps::MakeRead(1, 0)).status().code(),
            mal::Code::kStaleEpoch);
  EXPECT_EQ(h.Call("zlog", "fill", ZlogOps::MakeFill(0, 0)).status().code(),
            mal::Code::kStaleEpoch);
  // Current-epoch operations proceed.
  EXPECT_TRUE(
      h.Call("zlog", "write", ZlogOps::MakeWrite(2, 0, mal::Buffer::FromString("ok"))).ok());
}

TEST(ClsZlogTest, SealMustIncreaseEpoch) {
  ClsHarness h;
  ASSERT_TRUE(h.Call("zlog", "seal", ZlogOps::MakeSeal(3)).ok());
  EXPECT_EQ(h.Call("zlog", "seal", ZlogOps::MakeSeal(3)).status().code(),
            mal::Code::kStaleEpoch);
  EXPECT_EQ(h.Call("zlog", "seal", ZlogOps::MakeSeal(2)).status().code(),
            mal::Code::kStaleEpoch);
  EXPECT_TRUE(h.Call("zlog", "seal", ZlogOps::MakeSeal(4)).ok());
}

TEST(ClsZlogTest, FillMarksJunkAndProtectsWritten) {
  ClsHarness h;
  ASSERT_TRUE(
      h.Call("zlog", "write", ZlogOps::MakeWrite(0, 1, mal::Buffer::FromString("v"))).ok());
  // Fill an unwritten hole.
  ASSERT_TRUE(h.Call("zlog", "fill", ZlogOps::MakeFill(0, 0)).ok());
  auto r = h.Call("zlog", "read", ZlogOps::MakeRead(0, 0));
  ASSERT_TRUE(r.ok());
  mal::Decoder dec(r.value());
  EXPECT_EQ(dec.GetU8(), static_cast<uint8_t>(ZlogEntryState::kFilled));
  // Filling a written position fails; filling a filled one is idempotent.
  EXPECT_EQ(h.Call("zlog", "fill", ZlogOps::MakeFill(0, 1)).status().code(),
            mal::Code::kReadOnly);
  EXPECT_TRUE(h.Call("zlog", "fill", ZlogOps::MakeFill(0, 0)).ok());
}

TEST(ClsZlogTest, TrimAllowsGarbageCollection) {
  ClsHarness h;
  ASSERT_TRUE(
      h.Call("zlog", "write", ZlogOps::MakeWrite(0, 0, mal::Buffer::FromString("old"))).ok());
  ASSERT_TRUE(h.Call("zlog", "trim", ZlogOps::MakeTrim(0, 0)).ok());
  auto r = h.Call("zlog", "read", ZlogOps::MakeRead(0, 0));
  ASSERT_TRUE(r.ok());
  mal::Decoder dec(r.value());
  EXPECT_EQ(dec.GetU8(), static_cast<uint8_t>(ZlogEntryState::kTrimmed));
}

TEST(ClsZlogTest, MaxPosTracksTail) {
  ClsHarness h;
  auto mp0 = h.Call("zlog", "max_pos", ZlogOps::MakeMaxPos(0));
  ASSERT_TRUE(mp0.ok());
  {
    mal::Decoder dec(mp0.value());
    EXPECT_EQ(dec.GetU64(), 0u);
  }
  // Sparse write at position 41 moves the tail to 42.
  ASSERT_TRUE(
      h.Call("zlog", "write", ZlogOps::MakeWrite(0, 41, mal::Buffer::FromString("x"))).ok());
  auto mp = h.Call("zlog", "max_pos", ZlogOps::MakeMaxPos(0));
  ASSERT_TRUE(mp.ok());
  mal::Decoder dec(mp.value());
  EXPECT_EQ(dec.GetU64(), 42u);
}

// Sequencer-recovery protocol shape: seal all, take max of max_pos.
TEST(ClsZlogTest, RecoveryProtocolComputesTail) {
  ClsHarness dev_a;
  ClsHarness dev_b;
  ASSERT_TRUE(dev_a.Call("zlog", "write", ZlogOps::MakeWrite(0, 10, mal::Buffer())).ok());
  ASSERT_TRUE(dev_b.Call("zlog", "write", ZlogOps::MakeWrite(0, 7, mal::Buffer())).ok());

  uint64_t tail = 0;
  for (ClsHarness* dev : {&dev_a, &dev_b}) {
    auto sealed = dev->Call("zlog", "seal", ZlogOps::MakeSeal(1));
    ASSERT_TRUE(sealed.ok());
    mal::Decoder dec(sealed.value());
    tail = std::max(tail, dec.GetU64());
  }
  EXPECT_EQ(tail, 11u);
  // Old-epoch client is now fenced on both devices.
  EXPECT_EQ(dev_a.Call("zlog", "write", ZlogOps::MakeWrite(0, 11, mal::Buffer()))
                .status()
                .code(),
            mal::Code::kStaleEpoch);
}

// ---- other builtins ------------------------------------------------------------

TEST(ClsZlogTest, EntryKeysAreCompactAndSortLikePositions) {
  std::vector<uint64_t> positions = {0,         1,          63,         64,
                                     4095,      4096,       1ULL << 32, (1ULL << 32) + 1,
                                     1ULL << 63, UINT64_MAX - 1, UINT64_MAX};
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    positions.push_back(x >> (x % 64));  // spread over every magnitude
  }
  for (uint64_t a : positions) {
    std::string key_a = ZlogOps::EntryKey(a);
    EXPECT_LE(key_a.size(), 15u) << a;  // fits libstdc++'s short-string buffer
    for (uint64_t b : {positions[0], positions[3], positions[6], positions[10], x, a + 1}) {
      std::string key_b = ZlogOps::EntryKey(b);
      EXPECT_EQ(key_a < key_b, a < b) << a << " vs " << b;
      EXPECT_EQ(key_a == key_b, a == b) << a << " vs " << b;
    }
  }
  for (size_t i = 1; i < positions.size(); ++i) {
    uint64_t a = positions[i - 1];
    uint64_t b = positions[i];
    EXPECT_EQ(ZlogOps::EntryKey(a) < ZlogOps::EntryKey(b), a < b) << a << " vs " << b;
  }
}

TEST(ClsLockTest, AcquireReleaseCycle) {
  ClsHarness h;
  ASSERT_TRUE(h.Call("lock", "acquire", mal::Buffer::FromString("alice")).ok());
  // Re-entrant for the same owner.
  EXPECT_TRUE(h.Call("lock", "acquire", mal::Buffer::FromString("alice")).ok());
  // Others bounce.
  EXPECT_EQ(h.Call("lock", "acquire", mal::Buffer::FromString("bob")).status().code(),
            mal::Code::kPermissionDenied);
  EXPECT_EQ(h.Call("lock", "release", mal::Buffer::FromString("bob")).status().code(),
            mal::Code::kPermissionDenied);
  auto info = h.Call("lock", "info", mal::Buffer());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().ToString(), "alice");
  ASSERT_TRUE(h.Call("lock", "release", mal::Buffer::FromString("alice")).ok());
  EXPECT_TRUE(h.Call("lock", "acquire", mal::Buffer::FromString("bob")).ok());
}

TEST(ClsLogTest, AppendsSequencedRecords) {
  ClsHarness h;
  for (const char* rec : {"one", "two", "three"}) {
    ASSERT_TRUE(h.Call("log", "add", mal::Buffer::FromString(rec)).ok());
  }
  auto list = h.Call("log", "list", mal::Buffer());
  ASSERT_TRUE(list.ok());
  auto records = mal::Decode<std::map<std::string, std::string>>(list.value()).value();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.begin()->second, "one");  // keys sort by sequence
}

TEST(ClsZlogTest, HugeWriteBatchResultCountIsCorruptionNotAnAllocation) {
  // A result count of 2^61 codes is more than a vector can hold (max_size()
  // is below 2^61 for 4-byte codes): the parse must fail, not throw.
  ASSERT_GT(uint64_t{1} << 61, std::vector<mal::Code>().max_size());
  mal::Buffer out = mal::Encode([](mal::Encoder* enc) {
    enc->PutVarU64(uint64_t{1} << 61);
    enc->PutU32(static_cast<uint32_t>(mal::Code::kOk));
  });
  auto codes = ZlogOps::ParseWriteBatchResult(out);
  EXPECT_EQ(codes.status().code(), mal::Code::kCorruption);
}

TEST(ClsRefcountTest, CountsUpAndDown) {
  ClsHarness h;
  h.Call("refcount", "inc", mal::Buffer());
  h.Call("refcount", "inc", mal::Buffer());
  auto get = h.Call("refcount", "get", mal::Buffer());
  ASSERT_TRUE(get.ok());
  {
    mal::Decoder dec(get.value());
    EXPECT_EQ(dec.GetU64(), 2u);
  }
  h.Call("refcount", "dec", mal::Buffer());
  h.Call("refcount", "dec", mal::Buffer());
  EXPECT_EQ(h.Call("refcount", "dec", mal::Buffer()).status().code(),
            mal::Code::kOutOfRange);
}

TEST(ClsChecksumTest, ComputesAndCaches) {
  ClsHarness h;
  h.object.emplace();
  h.object->data = mal::Buffer::FromString("checksum me please");
  mal::Buffer input;
  mal::Encoder enc(&input);
  enc.PutU64(0);
  enc.PutU64(8);
  auto first = h.Call("checksum", "compute", input);
  ASSERT_TRUE(first.ok());
  auto second = h.Call("checksum", "compute", input);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().ToString(), second.value().ToString());
  EXPECT_TRUE(h.object->xattrs.Find("cksum.0.8").has_value());  // cached server-side
}

TEST(ClsEcTest, CheckStampPassesOnlyWhileTheStampIsUnchanged) {
  auto stamp = [](uint64_t v) {
    return mal::Encode([v](mal::Encoder* enc) { enc->PutU64(v); });
  };
  ClsHarness h;
  // Absent: only a gather that saw no shard (0) may fill it.
  EXPECT_TRUE(h.Call("ec", "check_stamp", stamp(0)).ok());
  EXPECT_EQ(h.Call("ec", "check_stamp", stamp(42)).status().code(), mal::Code::kAborted);
  // Created by a seal alone: sealed but unstamped, still a hole.
  ASSERT_TRUE(h.Call("ec", "seal", stamp(7)).ok());
  EXPECT_TRUE(h.Call("ec", "check_stamp", stamp(0)).ok());
  // Stamped: passes only for the stamp the gather saw.
  h.object->xattrs.Set("ec.stamp", "42");
  EXPECT_TRUE(h.Call("ec", "check_stamp", stamp(42)).ok());
  EXPECT_EQ(h.Call("ec", "check_stamp", stamp(0)).status().code(), mal::Code::kAborted);
  EXPECT_EQ(h.Call("ec", "check_stamp", stamp(41)).status().code(), mal::Code::kAborted);
}

TEST(ClsKvIndexTest, AtomicRecordPlusIndex) {
  ClsHarness h;
  auto put = [&](const std::string& k, const std::string& v) {
    mal::Buffer input;
    mal::Encoder enc(&input);
    enc.PutString(k);
    enc.PutString(v);
    return h.Call("kvindex", "put", input);
  };
  ASSERT_TRUE(put("row1", "matrix-row-one").ok());
  ASSERT_TRUE(put("row2", "matrix-row-two!").ok());
  auto got = h.Call("kvindex", "get", mal::Buffer::FromString("row2"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().ToString(), "matrix-row-two!");
  EXPECT_EQ(h.Call("kvindex", "get", mal::Buffer::FromString("nope")).status().code(),
            mal::Code::kNotFound);
}

// ---- context semantics -----------------------------------------------------------

TEST(ClsContextTest, EffectsMirrorMutations) {
  ClsHarness h;
  // Every ClsContext mutation, run on an absent object so Create records.
  h.registry.RegisterNative(
      "test", "mutate_all", Category::kOther,
      [](ClsContext& ctx, const mal::Buffer&) -> mal::Result<mal::Buffer> {
        for (const mal::Status& s :
             {ctx.Create(false), ctx.WriteFull(mal::Buffer::FromString("0123456789")),
              ctx.Write(4, mal::Buffer::FromString("ab")),
              ctx.Append(mal::Buffer::FromString("-tail")), ctx.OmapSet("k1", "v1"),
              ctx.OmapSet("k2", "v2"), ctx.OmapDel("k1"), ctx.XattrSet("x", "y")}) {
          if (!s.ok()) {
            return s;
          }
        }
        return mal::Buffer();
      });
  struct Call {
    std::string cls;
    std::string method;
    mal::Buffer input;
    size_t distinct_op_types;  // in the recorded effects
  };
  const std::vector<Call> calls = {
      {"test", "mutate_all", mal::Buffer(), 7},
      {"zlog", "write", ZlogOps::MakeWrite(0, 0, mal::Buffer::FromString("e")), 2},
  };
  for (const Call& call : calls) {
    SCOPED_TRACE(call.cls + "." + call.method);
    std::optional<osd::Object> before = h.object;
    ASSERT_TRUE(h.Call(call.cls, call.method, call.input).ok());
    // Effects are primitive ops replayable on a replica: applied to the
    // object as it was before the call, they rebuild what the method staged.
    std::set<osd::Op::Type> types;
    osd::TxnObject replay(before.has_value() ? &*before : nullptr);
    for (const osd::Op& op : h.last_effects) {
      types.insert(op.type);
      osd::OpResult result;
      ASSERT_TRUE(osd::ObjectStore::ApplyOp("test-obj", op, &replay, &result).ok());
    }
    EXPECT_EQ(types.size(), call.distinct_op_types);
    std::optional<osd::Object> replica = replay.Materialize();
    ASSERT_TRUE(replica.has_value());
    EXPECT_EQ(replica->data.ToString(), h.object->data.ToString());
    EXPECT_EQ(replica->omap, h.object->omap);
    EXPECT_EQ(replica->xattrs, h.object->xattrs);
    EXPECT_EQ(replica->snapshots.size(), h.object->snapshots.size());
    EXPECT_EQ(replica->version, h.object->version);
  }
  EXPECT_EQ(h.object->data.ToString(), "0123ab6789-tail");
}

TEST(ClsContextTest, AbsentObjectErrorsNameTheOidAndRecordNothing) {
  osd::TxnObject staged(nullptr);
  std::vector<osd::Op> effects;
  ClsContext ctx("test-obj", &staged, &effects);
  mal::Status del = ctx.OmapDel("k");
  EXPECT_EQ(del.code(), mal::Code::kNotFound);
  EXPECT_EQ(del.message(), "object test-obj");
  EXPECT_TRUE(effects.empty());
  // Creating an existing object records no effect; an exclusive create fails.
  ASSERT_TRUE(ctx.Create(/*excl=*/false).ok());
  ASSERT_EQ(effects.size(), 1u);
  EXPECT_TRUE(ctx.Create(/*excl=*/false).ok());
  mal::Status excl = ctx.Create(/*excl=*/true);
  EXPECT_EQ(excl.code(), mal::Code::kAlreadyExists);
  EXPECT_EQ(excl.message(), "object test-obj");
  EXPECT_EQ(effects.size(), 1u);
}

TEST(ClsContextTest, FailedMethodLeavesObjectUntouched) {
  ClsHarness h;
  ASSERT_TRUE(h.Call("lock", "acquire", mal::Buffer::FromString("alice")).ok());
  auto before = h.object;
  EXPECT_FALSE(h.Call("lock", "acquire", mal::Buffer::FromString("bob")).ok());
  EXPECT_EQ(h.object->xattrs, before->xattrs);
}

// ---- script classes -----------------------------------------------------------------

constexpr char kCounterScript[] = R"(
function inc(input)
  local v = tonumber(cls_xattr_get("count")) or 0
  local step = tonumber(input) or 1
  cls_create(false)
  cls_xattr_set("count", tostring(v + step))
  return tostring(v + step)
end

function get(input)
  return cls_xattr_get("count") or "0"
end
)";

TEST(ScriptClassTest, InstallAndExecute) {
  ClsHarness h;
  ASSERT_TRUE(h.registry.InstallScript("counter", "v1", kCounterScript).ok());
  EXPECT_EQ(h.registry.ScriptVersion("counter"), "v1");
  EXPECT_TRUE(h.registry.HasMethod("counter", "inc"));
  EXPECT_TRUE(h.registry.HasMethod("counter", "get"));
  EXPECT_FALSE(h.registry.HasMethod("counter", "nope"));

  auto r1 = h.Call("counter", "inc", mal::Buffer::FromString("5"));
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(r1.value().ToString(), "5");
  auto r2 = h.Call("counter", "inc", mal::Buffer::FromString("2"));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().ToString(), "7");
  auto got = h.Call("counter", "get", mal::Buffer());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().ToString(), "7");
}

TEST(ScriptClassTest, VersionUpgradeReplacesBehavior) {
  ClsHarness h;
  ASSERT_TRUE(h.registry.InstallScript("greet", "v1",
                                       "function hello(input) return 'v1:' .. input end")
                  .ok());
  EXPECT_EQ(h.Call("greet", "hello", mal::Buffer::FromString("x")).value().ToString(),
            "v1:x");
  ASSERT_TRUE(h.registry.InstallScript("greet", "v2",
                                       "function hello(input) return 'v2:' .. input end")
                  .ok());
  EXPECT_EQ(h.registry.ScriptVersion("greet"), "v2");
  EXPECT_EQ(h.Call("greet", "hello", mal::Buffer::FromString("x")).value().ToString(),
            "v2:x");
}

TEST(ScriptClassTest, CompileErrorRejectedAtInstall) {
  ClassRegistry registry;
  EXPECT_FALSE(registry.InstallScript("bad", "v1", "function broken( end").ok());
  EXPECT_EQ(registry.ScriptVersion("bad"), "");
}

TEST(ScriptClassTest, OverLargeScriptRejectedAtInstall) {
  // 60,001 live locals in one function: past the bytecode compiler's
  // register limit.
  std::string source = "function big(input)\n";
  for (int i = 0; i <= 60000; ++i) {
    source += "local v" + std::to_string(i) + " = 0\n";
  }
  source += "return input\nend";
  ClassRegistry registry;
  mal::Status s = registry.InstallScript("big", "v1", source);
  EXPECT_EQ(s.code(), mal::Code::kInvalidArgument);
  EXPECT_EQ(s.message().rfind("bytecode compile: ", 0), 0u) << s.ToString();
  EXPECT_EQ(registry.ScriptVersion("big"), "");
  EXPECT_FALSE(registry.HasMethod("big", "big"));
}

TEST(ScriptClassTest, TypedErrorsPropagate) {
  ClsHarness h;
  ASSERT_TRUE(h.registry
                  .InstallScript("strict", "v1", R"(
function check(input)
  if input == "old" then
    cls_error("STALE_EPOCH", "client is behind")
  end
  return "fresh"
end
)")
                  .ok());
  EXPECT_EQ(h.Call("strict", "check", mal::Buffer::FromString("old")).status().code(),
            mal::Code::kStaleEpoch);
  EXPECT_TRUE(h.Call("strict", "check", mal::Buffer::FromString("new")).ok());
}

TEST(ScriptClassTest, RunawayScriptSandboxed) {
  ClsHarness h;
  ASSERT_TRUE(h.registry
                  .InstallScript("spin", "v1",
                                 "function loop(input) while true do end end")
                  .ok());
  EXPECT_EQ(h.Call("spin", "loop", mal::Buffer()).status().code(), mal::Code::kAborted);
}

TEST(ScriptClassTest, ScriptZlogMatchesNativeSemantics) {
  // A MalScript re-implementation of the zlog write/read path — the paper's
  // point that interfaces land in "an order of magnitude less code".
  constexpr char kScriptZlog[] = R"(
function swrite(input)
  -- input: "<pos>:<data>"
  local sep = string.find(input, ":")
  local pos = string.sub(input, 1, sep - 1)
  local data = string.sub(input, sep + 1)
  local key = "entry." .. pos
  if cls_omap_get(key) ~= nil then
    cls_error("READ_ONLY", "position already written")
  end
  cls_create(false)
  cls_omap_set(key, data)
  return ""
end

function sread(input)
  local v = cls_omap_get("entry." .. input)
  if v == nil then
    cls_error("NOT_WRITTEN", "position not written")
  end
  return v
end
)";
  ClsHarness h;
  ASSERT_TRUE(h.registry.InstallScript("szlog", "v1", kScriptZlog).ok());
  ASSERT_TRUE(h.Call("szlog", "swrite", mal::Buffer::FromString("0:hello")).ok());
  EXPECT_EQ(h.Call("szlog", "swrite", mal::Buffer::FromString("0:again")).status().code(),
            mal::Code::kReadOnly);
  EXPECT_EQ(h.Call("szlog", "sread", mal::Buffer::FromString("0")).value().ToString(),
            "hello");
  EXPECT_EQ(h.Call("szlog", "sread", mal::Buffer::FromString("1")).status().code(),
            mal::Code::kNotWritten);
}

// ---- census (Fig 2 / Table 1 machinery) -----------------------------------------

TEST(RegistryCensusTest, CountsClassesAndMethods) {
  ClassRegistry registry;
  RegisterBuiltinClasses(&registry);
  EXPECT_EQ(registry.NumClasses(), 7u);
  auto methods = registry.ListMethods();
  EXPECT_EQ(methods.size(), 21u);

  auto by_category = registry.MethodCountByCategory();
  EXPECT_EQ(by_category[Category::kLogging], 9u);   // zlog(7) + log(2)
  EXPECT_EQ(by_category[Category::kLocking], 3u);
  EXPECT_EQ(by_category[Category::kMetadata], 2u);
  EXPECT_EQ(by_category[Category::kManagement], 4u);  // checksum(1) + ec(3)
  EXPECT_EQ(by_category[Category::kOther], 3u);
}

TEST(RegistryCensusTest, ScriptClassesJoinCensus) {
  ClassRegistry registry;
  ASSERT_TRUE(registry
                  .InstallScript("custom", "v1",
                                 "function a(i) return i end\nfunction b(i) return i end",
                                 Category::kMetadata)
                  .ok());
  EXPECT_EQ(registry.NumClasses(), 1u);
  EXPECT_EQ(registry.MethodCountByCategory()[Category::kMetadata], 2u);
  auto methods = registry.ListMethods();
  ASSERT_EQ(methods.size(), 2u);
  EXPECT_TRUE(methods[0].is_script);
}

}  // namespace
}  // namespace mal::cls
