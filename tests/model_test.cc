// Model-based property tests: random operation sequences run against both
// the real implementation and a trivially-correct in-memory reference
// model; any divergence is a bug.
//
//  - ObjectStore vs a reference object (bytestream/omap/xattr/snapshots)
//  - MalScript tables vs std::map under random insert/erase/length
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/osd/messages.h"
#include "src/osd/object_store.h"
#include "src/script/interpreter.h"
#include "tests/wire_samples.h"

namespace mal {
namespace {

// ---- ObjectStore vs reference model --------------------------------------------

struct RefObject {
  std::string data;
  std::map<std::string, std::string> omap;
  std::map<std::string, std::string> xattrs;
  std::map<std::string, std::string> snapshots;
};

// Omap contents in iteration order, so a representation that lost its
// ordering cannot compare equal to the reference std::map.
std::vector<std::pair<std::string, std::string>> Entries(const osd::Omap& omap) {
  std::vector<std::pair<std::string, std::string>> out;
  for (auto [k, v] : omap) {
    out.emplace_back(k, v);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> Entries(
    const std::map<std::string, std::string>& map) {
  return {map.begin(), map.end()};
}

class StoreModelTest : public ::testing::TestWithParam<int> {};

TEST_P(StoreModelTest, RandomOpsMatchReferenceModel) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 17);
  osd::ObjectStore store;
  std::optional<RefObject> ref;

  auto random_key = [&rng] { return "k" + std::to_string(rng.NextBelow(6)); };
  auto random_data = [&rng] {
    return std::string(rng.NextBelow(32), static_cast<char>('a' + rng.NextBelow(26)));
  };
  // A wider key space for the omap churn ops, so the index grows past a
  // handful of records and inserts land in its middle as well as its tail.
  auto random_omap_key = [&rng] { return "m" + std::to_string(rng.NextBelow(48)); };

  std::vector<osd::OpResult> results;
  for (int step = 0; step < 400; ++step) {
    osd::Op op;
    switch (rng.NextBelow(15)) {
      case 0: {  // write full
        op.type = osd::Op::Type::kWriteFull;
        op.data = Buffer::FromString(random_data());
        ASSERT_TRUE(store.ApplyTransaction("obj", {op}, &results).ok());
        if (!ref.has_value()) {
          ref.emplace();
        }
        ref->data = op.data.ToString();
        break;
      }
      case 1: {  // append
        op.type = osd::Op::Type::kAppend;
        op.data = Buffer::FromString(random_data());
        ASSERT_TRUE(store.ApplyTransaction("obj", {op}, &results).ok());
        if (!ref.has_value()) {
          ref.emplace();
        }
        ref->data += op.data.ToString();
        break;
      }
      case 2: {  // offset write
        op.type = osd::Op::Type::kWrite;
        op.offset = rng.NextBelow(48);
        op.data = Buffer::FromString(random_data());
        ASSERT_TRUE(store.ApplyTransaction("obj", {op}, &results).ok());
        if (!ref.has_value()) {
          ref.emplace();
        }
        if (op.offset + op.data.size() > ref->data.size()) {
          ref->data.resize(op.offset + op.data.size(), '\0');
        }
        ref->data.replace(op.offset, op.data.size(), op.data.ToString());
        break;
      }
      case 3: {  // read & compare
        op.type = osd::Op::Type::kRead;
        Status s = store.ApplyTransaction("obj", {op}, &results);
        if (!ref.has_value()) {
          EXPECT_EQ(s.code(), Code::kNotFound);
        } else {
          ASSERT_TRUE(s.ok());
          EXPECT_EQ(results[0].out.ToString(), ref->data) << "step " << step;
        }
        break;
      }
      case 4: {  // omap set
        op.type = osd::Op::Type::kOmapSet;
        op.key = random_key();
        op.value = random_data();
        ASSERT_TRUE(store.ApplyTransaction("obj", {op}, &results).ok());
        if (!ref.has_value()) {
          ref.emplace();
        }
        ref->omap[op.key] = op.value;
        break;
      }
      case 5: {  // omap get & compare
        op.type = osd::Op::Type::kOmapGet;
        op.key = random_key();
        Status s = store.ApplyTransaction("obj", {op}, &results);
        if (!ref.has_value() || ref->omap.count(op.key) == 0) {
          EXPECT_EQ(s.code(), Code::kNotFound) << "step " << step;
        } else {
          ASSERT_TRUE(s.ok());
          EXPECT_EQ(results[0].out.ToString(), ref->omap.at(op.key));
        }
        break;
      }
      case 6: {  // omap del
        if (!ref.has_value()) {
          break;
        }
        op.type = osd::Op::Type::kOmapDel;
        op.key = random_key();
        ASSERT_TRUE(store.ApplyTransaction("obj", {op}, &results).ok());
        ref->omap.erase(op.key);
        break;
      }
      case 7: {  // xattr set
        op.type = osd::Op::Type::kXattrSet;
        op.key = random_key();
        op.value = random_data();
        ASSERT_TRUE(store.ApplyTransaction("obj", {op}, &results).ok());
        if (!ref.has_value()) {
          ref.emplace();
        }
        ref->xattrs[op.key] = op.value;
        break;
      }
      case 8: {  // snapshot create
        if (!ref.has_value()) {
          break;
        }
        op.type = osd::Op::Type::kSnapCreate;
        op.key = "snap" + std::to_string(rng.NextBelow(3));
        Status s = store.ApplyTransaction("obj", {op}, &results);
        if (ref->snapshots.count(op.key) != 0) {
          EXPECT_EQ(s.code(), Code::kAlreadyExists);
        } else {
          ASSERT_TRUE(s.ok());
          ref->snapshots[op.key] = ref->data;
        }
        break;
      }
      case 9: {  // snapshot read & compare
        if (!ref.has_value()) {
          break;
        }
        op.type = osd::Op::Type::kSnapRead;
        op.key = "snap" + std::to_string(rng.NextBelow(3));
        Status s = store.ApplyTransaction("obj", {op}, &results);
        if (ref->snapshots.count(op.key) == 0) {
          EXPECT_EQ(s.code(), Code::kNotFound);
        } else {
          ASSERT_TRUE(s.ok());
          EXPECT_EQ(results[0].out.ToString(), ref->snapshots.at(op.key));
        }
        break;
      }
      case 10: {  // remove
        if (rng.NextBelow(10) != 0) {
          break;  // rare
        }
        op.type = osd::Op::Type::kRemove;
        Status s = store.ApplyTransaction("obj", {op}, &results);
        if (!ref.has_value()) {
          EXPECT_EQ(s.code(), Code::kNotFound);
        } else {
          ASSERT_TRUE(s.ok());
          ref.reset();
        }
        break;
      }
      case 11: {  // failing guard leaves both untouched
        if (!ref.has_value()) {
          break;
        }
        osd::Op guard;
        guard.type = osd::Op::Type::kCmpXattr;
        guard.key = "never-set-key";
        guard.value = "x";
        osd::Op mutate;
        mutate.type = osd::Op::Type::kWriteFull;
        mutate.data = Buffer::FromString("must-not-appear");
        EXPECT_FALSE(store.ApplyTransaction("obj", {mutate, guard}, &results).ok());
        // reference unchanged by construction
        break;
      }
      case 12: {  // overwrite an existing omap key with a value of another size
        if (!ref.has_value() || ref->omap.empty()) {
          break;
        }
        auto it = ref->omap.begin();
        std::advance(it, rng.NextBelow(ref->omap.size()));
        op.type = osd::Op::Type::kOmapSet;
        op.key = it->first;
        op.value = std::string(it->second.size() + 1 + rng.NextBelow(40), 'o');
        if (rng.NextBelow(2) == 0 && !it->second.empty()) {
          op.value.resize(rng.NextBelow(it->second.size()));  // shrink instead
        }
        ASSERT_TRUE(store.ApplyTransaction("obj", {op}, &results).ok());
        it->second = op.value;
        break;
      }
      case 13: {  // delete then re-set one key, in one transaction or in two
        if (!ref.has_value()) {
          break;
        }
        osd::Op del;
        del.type = osd::Op::Type::kOmapDel;
        del.key = random_omap_key();
        op.type = osd::Op::Type::kOmapSet;
        op.key = del.key;
        op.value = random_data();
        if (rng.NextBelow(2) == 0) {
          ASSERT_TRUE(store.ApplyTransaction("obj", {del, op}, &results).ok());
        } else {
          ASSERT_TRUE(store.ApplyTransaction("obj", {del}, &results).ok());
          ASSERT_TRUE(store.ApplyTransaction("obj", {op}, &results).ok());
        }
        ref->omap[op.key] = op.value;
        break;
      }
      case 14: {  // several sets and deletes of the wider key space at once
        std::vector<osd::Op> ops;
        for (uint64_t i = 0, n = 1 + rng.NextBelow(8); i < n; ++i) {
          osd::Op churn;
          churn.key = random_omap_key();
          if (ref.has_value() && rng.NextBelow(3) == 0) {
            churn.type = osd::Op::Type::kOmapDel;
          } else {
            churn.type = osd::Op::Type::kOmapSet;
            churn.value = random_data();
          }
          ops.push_back(churn);
        }
        ASSERT_TRUE(store.ApplyTransaction("obj", ops, &results).ok());
        if (!ref.has_value()) {
          ref.emplace();
        }
        for (const osd::Op& churn : ops) {
          if (churn.type == osd::Op::Type::kOmapDel) {
            ref->omap.erase(churn.key);
          } else {
            ref->omap[churn.key] = churn.value;
          }
        }
        break;
      }
    }
    EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed()) << "step " << step;
    // Full-state comparison after every step.
    if (!ref.has_value()) {
      EXPECT_FALSE(store.Exists("obj"));
      continue;
    }
    ASSERT_TRUE(store.Exists("obj"));
    const osd::Object* object = store.Get("obj").value();
    EXPECT_EQ(object->data.ToString(), ref->data) << "step " << step;
    ASSERT_EQ(Entries(object->omap), Entries(ref->omap)) << "step " << step;
    for (const auto& [k, v] : ref->omap) {
      EXPECT_EQ(object->omap.Find(k), std::optional<std::string_view>(v)) << "step " << step;
    }
    EXPECT_EQ(Entries(object->xattrs), Entries(ref->xattrs)) << "step " << step;
    ASSERT_EQ(object->snapshots.size(), ref->snapshots.size());
    for (const auto& [name, snap] : ref->snapshots) {
      EXPECT_EQ(object->snapshots.at(name).ToString(), snap);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelTest, ::testing::Range(0, 25));

// ---- MalScript tables vs std::map -----------------------------------------------

class ScriptTableModelTest : public ::testing::TestWithParam<int> {};

TEST_P(ScriptTableModelTest, RandomTableOpsMatchStdMap) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 40503 + 5);
  script::Interpreter interp;
  ASSERT_TRUE(interp.RunSource("t = {}").ok());
  std::map<std::string, double> ref;

  for (int step = 0; step < 200; ++step) {
    std::string key = "f" + std::to_string(rng.NextBelow(8));
    switch (rng.NextBelow(3)) {
      case 0: {  // set
        double value = static_cast<double>(rng.NextBelow(1000));
        ASSERT_TRUE(interp.RunSource("t." + key + " = " + std::to_string(value)).ok());
        ref[key] = value;
        break;
      }
      case 1: {  // erase (assign nil)
        ASSERT_TRUE(interp.RunSource("t." + key + " = nil").ok());
        ref.erase(key);
        break;
      }
      case 2: {  // lookup & compare
        ASSERT_TRUE(interp.RunSource("probe = t." + key).ok());
        script::Value probe = interp.GetGlobal("probe");
        if (ref.count(key) == 0) {
          EXPECT_TRUE(probe.is_nil()) << "step " << step << " key " << key;
        } else {
          ASSERT_TRUE(probe.is_number());
          EXPECT_DOUBLE_EQ(probe.as_number(), ref.at(key));
        }
        break;
      }
    }
  }
  // Final sweep: count entries via pairs().
  ASSERT_TRUE(interp.RunSource("n = 0\nfor k, v in pairs(t) do n = n + 1 end").ok());
  EXPECT_DOUBLE_EQ(interp.GetGlobal("n").as_number(), static_cast<double>(ref.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScriptTableModelTest, ::testing::Range(0, 15));

// ---- decoder robustness: arbitrary bytes never crash a decoder ---------------------

class FuzzDecodeTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDecodeTest, RandomBytesNeverCrashDecoders) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6151 + 11);
  std::string junk(rng.NextBelow(512), '\0');
  for (char& c : junk) {
    c = static_cast<char>(rng.NextBelow(256));
  }
  Buffer buffer = Buffer::FromString(junk);
  {
    // Every daemon-facing decoder must handle adversarial input gracefully:
    // return garbage values or a failed state, never crash or loop.
    Decoder dec(buffer);
    (void)dec.GetVarU64();
    (void)dec.GetString();
    (void)dec.GetU64();
    std::map<std::string, std::string> map;
    dec(map);
    (void)dec.Finish();
  }
  // Every wire type, through the one entry point daemons decode with.
  wire_samples::ForEachWireSample([&](const char*, const auto& sample, const std::string&) {
    (void)Decode<std::decay_t<decltype(sample)>>(buffer);
  });
  {
    // The partly decoded value too is bounded by input size, not a huge alloc.
    Decoder dec(buffer);
    osd::OsdOpRequest req;
    dec(req);
    EXPECT_LE(req.ops.size(), 600u);
    EXPECT_LE(req.ops.capacity(), 1024u);
    (void)Decode<osd::OsdOpRequest>(buffer);
  }
}

// Every wire type's valid encoding with random bytes flipped and its tail
// cut: each decode either fails with kCorruption or returns a value.
TEST_P(FuzzDecodeTest, MutatedSamplesOfEveryWireTypeNeverCrashDecoders) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 5);
  wire_samples::ForEachWireSample([&](const char* name, const auto& sample,
                                      const std::string&) {
    SCOPED_TRACE(name);
    using Msg = std::decay_t<decltype(sample)>;
    std::string wire = Encode(sample).ToString();
    for (int round = 0; round < 8; ++round) {
      std::string mutated = wire;
      for (uint64_t flips = 1 + rng.NextBelow(3); flips > 0 && !mutated.empty(); --flips) {
        mutated[rng.NextBelow(mutated.size())] ^= static_cast<char>(1 << rng.NextBelow(8));
      }
      if (rng.NextBelow(2) == 0) {
        mutated.resize(rng.NextBelow(mutated.size() + 1));
      }
      auto decoded = Decode<Msg>(Buffer::FromString(mutated));
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), Code::kCorruption);
      }
    }
  });
}

// A valid segmented message with random front bytes flipped and its segments
// dropped, cut, stretched, swapped or duplicated: every decoder either
// fails or returns values, and the unharmed message still round-trips.
TEST_P(FuzzDecodeTest, MutatedSegmentedMessagesNeverCrashDecoders) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  auto bytes = [&](size_t max) {
    std::string s(rng.NextBelow(max), '\0');
    for (char& c : s) {
      c = static_cast<char>('a' + rng.NextBelow(26));
    }
    return Buffer::FromString(s);
  };
  osd::OsdOpRequest req;
  req.oid = "obj";
  for (uint64_t i = 0, n = 1 + rng.NextBelow(4); i < n; ++i) {
    osd::Op op;
    op.type = osd::Op::Type::kWrite;
    op.offset = rng.NextBelow(1 << 20);
    op.data = bytes(3 * kSegmentMinBytes);
    op.key = "k";
    req.ops.push_back(std::move(op));
  }
  osd::Object object;
  object.data = bytes(3 * kSegmentMinBytes);
  object.snapshots["s"] = bytes(3 * kSegmentMinBytes);
  object.omap.Set("key", "value");

  for (const Payload& wire : {EncodeSegmented(req), EncodeSegmented(object)}) {
    {
      (void)Decode<osd::OsdOpRequest>(wire);
      (void)Decode<osd::Object>(wire);
    }
    for (int round = 0; round < 16; ++round) {
      Buffer front = wire.front();
      for (uint64_t flips = rng.NextBelow(3); flips > 0 && !front.empty(); --flips) {
        size_t at = rng.NextBelow(front.size());
        char c = static_cast<char>(front.data()[at] ^ (1 << rng.NextBelow(8)));
        front.Write(at, &c, 1);
      }
      std::vector<Buffer> segments = wire.segments();
      switch (rng.NextBelow(5)) {
        case 0:
          if (!segments.empty()) {
            segments.erase(segments.begin() +
                           static_cast<ptrdiff_t>(rng.NextBelow(segments.size())));
          }
          break;
        case 1:
          if (!segments.empty()) {
            Buffer& s = segments[rng.NextBelow(segments.size())];
            s = s.Read(0, rng.NextBelow(s.size()));
          }
          break;
        case 2:
          if (!segments.empty()) {
            segments[rng.NextBelow(segments.size())].Append("x");
          }
          break;
        case 3:
          if (segments.size() > 1) {
            std::swap(segments.front(), segments.back());
          }
          break;
        default:
          if (!segments.empty()) {
            segments.push_back(segments.front());
          }
          break;
      }
      Payload mutated(front, segments);
      Decoder a(mutated);
      osd::OsdOpRequest decoded;
      a(decoded);
      EXPECT_LE(decoded.ops.size(), 600u);
      EXPECT_LE(decoded.ops.capacity(), 1024u);
      (void)Decode<osd::OsdOpRequest>(mutated);
      (void)Decode<osd::Object>(mutated);
      (void)Decode<osd::OsdOpReply>(mutated);
    }
  }
  (void)Decode<osd::OsdOpRequest>(EncodeSegmented(req).front());  // the front alone is flat

  Payload wire = EncodeSegmented(req);
  auto round_trip = Decode<osd::OsdOpRequest>(wire);
  ASSERT_TRUE(round_trip.ok());
  EXPECT_EQ(Encode(round_trip.value()), Encode(req));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecodeTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace mal
