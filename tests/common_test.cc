// Unit tests for src/common: status/result, buffer encoding (including the
// exact-size codec over every wire message family and segmented messages),
// rng, stats.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string_view>
#include <type_traits>

#include "src/common/buffer.h"
#include "src/common/log.h"
#include "src/common/perf.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/trace.h"
#include "src/consensus/paxos.h"
#include "src/mds/types.h"
#include "src/mon/messages.h"
#include "src/osd/messages.h"
#include "src/sim/network.h"
#include "src/telemetry/series.h"
#include "tests/wire_samples.h"

namespace mal {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("object foo");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: object foo");
}

TEST(StatusTest, AllFactoryCodesDistinct) {
  EXPECT_EQ(Status::StaleEpoch().code(), Code::kStaleEpoch);
  EXPECT_EQ(Status::ReadOnly().code(), Code::kReadOnly);
  EXPECT_EQ(Status::NotWritten().code(), Code::kNotWritten);
  EXPECT_EQ(Status::Unavailable().code(), Code::kUnavailable);
  EXPECT_EQ(Status::Aborted().code(), Code::kAborted);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::TimedOut("slow"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kTimedOut);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(BufferTest, AppendAndRead) {
  Buffer b;
  b.Append("hello", 5);
  b.Append(std::string_view(" world"));
  EXPECT_EQ(b.size(), 11u);
  EXPECT_EQ(b.Read(0, 5).ToString(), "hello");
  EXPECT_EQ(b.Read(6, 100).ToString(), "world");
  EXPECT_EQ(b.Read(20, 5).size(), 0u);
}

TEST(BufferTest, WriteExtendsWithZeroFill) {
  Buffer b;
  b.Write(4, "xy", 2);
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(b.ToString().substr(0, 4), std::string(4, '\0'));
  EXPECT_EQ(b.Read(4, 2).ToString(), "xy");
}

TEST(BufferTest, WriteOverlapsExisting) {
  Buffer b(std::string("abcdef"));
  b.Write(2, "XY", 2);
  EXPECT_EQ(b.ToString(), "abXYef");
}

TEST(BufferCowTest, ReadAliasesUntilMutation) {
  Buffer b(std::string("hello world"));
  Buffer slice = b.Read(6, 5);
  EXPECT_TRUE(slice.SharesStorageWith(b));  // O(1) alias, no copy
  EXPECT_EQ(slice.ToString(), "world");

  // Appending to the slice may extend shared storage in place (the slice
  // ends at the storage tail, so new bytes land past every other view) or
  // detach; either way no other view's bytes change.
  slice.Append("!", 1);
  EXPECT_EQ(slice.ToString(), "world!");
  EXPECT_EQ(b.ToString(), "hello world");

  // Overwriting bytes inside a shared view always detaches first.
  Buffer alias = b;
  ASSERT_TRUE(alias.SharesStorageWith(b));
  alias.Write(0, "H", 1);
  EXPECT_FALSE(alias.SharesStorageWith(b));
  EXPECT_EQ(alias.ToString(), "Hello world");
  EXPECT_EQ(b.ToString(), "hello world");
}

TEST(BufferCowTest, CopyIsSharedAndWriteDetaches) {
  Buffer b(std::string("abcdef"));
  Buffer c = b;
  EXPECT_TRUE(c.SharesStorageWith(b));
  c.Write(0, "XY", 2);
  EXPECT_FALSE(c.SharesStorageWith(b));
  EXPECT_EQ(c.ToString(), "XYcdef");
  EXPECT_EQ(b.ToString(), "abcdef");
}

TEST(BufferCowTest, AppendNeverDisturbsLiveViews) {
  Buffer b(std::string("snapshot"));
  Buffer snap = b;                       // e.g. kSnapCreate: O(1) alias
  const char* snap_bytes = snap.data();  // raw pointer into shared storage
  // Later appends to the origin — whether they extend storage in place or
  // detach — must leave every existing view's bytes intact (invariant 2:
  // shared storage is never reallocated).
  for (int i = 0; i < 64; ++i) {
    b.Append(std::string_view("xxxxxxxxxxxxxxxx"));
  }
  EXPECT_EQ(snap.ToString(), "snapshot");
  EXPECT_EQ(snap.data(), snap_bytes);
  EXPECT_EQ(b.size(), 8u + 64 * 16);
}

TEST(BufferCowTest, SelfAppendIsSafe) {
  Buffer b(std::string("ab"));
  Buffer tail = b.Read(1, 1);
  b.Append(tail);  // appending a slice of our own storage
  EXPECT_EQ(b.ToString(), "abb");
  b.Append(b);
  EXPECT_EQ(b.ToString(), "abbabb");
}

TEST(BufferCowTest, ResizeShrinkIsViewTruncation) {
  Buffer b(std::string("abcdef"));
  Buffer c = b;
  c.Resize(3);  // O(1): shrinks the view, storage still shared
  EXPECT_TRUE(c.SharesStorageWith(b));
  EXPECT_EQ(c.ToString(), "abc");
  EXPECT_EQ(b.ToString(), "abcdef");
  c.Resize(5);  // growing shared storage detaches (zero fill)
  EXPECT_FALSE(c.SharesStorageWith(b));
  EXPECT_EQ(c.ToString(), std::string("abc\0\0", 5));
}

TEST(BufferCowTest, AppendEmptyBufferAliases) {
  Buffer src(std::string("payload"));
  Buffer dst;
  dst.Append(src);  // append into empty buffer = O(1) alias
  EXPECT_TRUE(dst.SharesStorageWith(src));
  EXPECT_EQ(dst.ToString(), "payload");
}

TEST(DecoderCowTest, GetBufferAliasesInput) {
  Buffer wire;
  Encoder enc(&wire);
  enc.PutU32(7);
  enc.PutBuffer(Buffer::FromString("entry-payload"));
  enc.PutString("trailer");

  Decoder dec(wire);
  EXPECT_EQ(dec.GetU32(), 7u);
  Buffer payload = dec.GetBuffer();
  EXPECT_EQ(payload.ToString(), "entry-payload");
  EXPECT_TRUE(payload.SharesStorageWith(wire));  // zero-copy decode
  EXPECT_EQ(dec.GetString(), "trailer");
  EXPECT_TRUE(dec.Finish().ok());
}

TEST(DecoderCowTest, DecodedPayloadSurvivesArenaReuse) {
  Buffer wire;
  Encoder enc(&wire);
  enc.PutBuffer(Buffer::FromString("first"));

  Decoder dec(wire);
  Buffer payload = dec.GetBuffer();
  ASSERT_TRUE(payload.SharesStorageWith(wire));

  // The producer clears and reuses its arena; the decoded slice holds a
  // reference to the old storage and must keep its bytes.
  wire.clear();
  Encoder enc2(&wire);
  enc2.PutBuffer(Buffer::FromString("second-................................"));
  EXPECT_EQ(payload.ToString(), "first");
  EXPECT_FALSE(payload.SharesStorageWith(wire));
}

TEST(DecoderCowTest, ViewDecoderFallsBackToCopy) {
  Buffer wire;
  Encoder enc(&wire);
  enc.PutBuffer(Buffer::FromString("data"));
  Decoder dec(wire.View());  // no Buffer to alias
  Buffer payload = dec.GetBuffer();
  EXPECT_EQ(payload.ToString(), "data");
  EXPECT_FALSE(payload.SharesStorageWith(wire));
}

TEST(EncodingTest, FixedWidthRoundTrip) {
  Buffer b;
  Encoder enc(&b);
  enc.PutU8(0xab);
  enc.PutU16(0x1234);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutI64(-7);
  enc.PutF64(3.14159);
  enc.PutBool(true);

  Decoder dec(b);
  EXPECT_EQ(dec.GetU8(), 0xab);
  EXPECT_EQ(dec.GetU16(), 0x1234);
  EXPECT_EQ(dec.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(dec.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(dec.GetI64(), -7);
  EXPECT_DOUBLE_EQ(dec.GetF64(), 3.14159);
  EXPECT_TRUE(dec.GetBool());
  EXPECT_TRUE(dec.ok());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(EncodingTest, VarintRoundTrip) {
  Buffer b;
  Encoder enc(&b);
  const uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384, (1ULL << 32), ~0ULL};
  for (uint64_t v : values) {
    enc.PutVarU64(v);
  }
  Decoder dec(b);
  for (uint64_t v : values) {
    EXPECT_EQ(dec.GetVarU64(), v);
  }
  EXPECT_TRUE(dec.Finish().ok());
}

TEST(EncodingTest, StringsAndMaps) {
  Buffer b;
  Encoder enc(&b);
  enc.PutString(std::string_view("with\0null", 9));  // embedded NUL survives
  std::map<std::string, std::string> m = {{"a", "1"}, {"b", "2"}};
  enc(m);

  Decoder dec(b);
  EXPECT_EQ(dec.GetString().size(), 9u);
  std::map<std::string, std::string> decoded;
  dec(decoded);
  EXPECT_EQ(decoded, m);
  EXPECT_TRUE(dec.ok());
}

TEST(EncodingTest, DecodePastEndFails) {
  Buffer b;
  Encoder enc(&b);
  enc.PutU32(7);
  Decoder dec(b);
  dec.GetU64();  // reads past end
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.Finish().code(), Code::kCorruption);
  EXPECT_EQ(dec.GetU32(), 0u);  // subsequent reads are safe
}

TEST(EncodingTest, TruncatedStringFails) {
  Buffer b;
  Encoder enc(&b);
  enc.PutVarU64(100);  // declares 100 bytes, provides none
  Decoder dec(b);
  EXPECT_EQ(dec.GetString(), "");
  EXPECT_FALSE(dec.ok());
}

TEST(EncodingTest, LengthThatWrapsThePositionFails) {
  Buffer b;
  Encoder enc(&b);
  enc.PutVarU64(~0ULL);  // position + length wraps around to a small number
  enc.PutString("trailing bytes");
  Decoder strings(b);
  EXPECT_EQ(strings.GetString(), "");
  EXPECT_FALSE(strings.ok());
  Decoder buffers(b);
  EXPECT_TRUE(buffers.GetBuffer().empty());
  EXPECT_FALSE(buffers.ok());
}

TEST(EncodingTest, FixedWidthIsLittleEndianOnTheWire) {
  Buffer b;
  Encoder enc(&b);
  enc.PutU16(0x0102);
  enc.PutU32(0x03040506);
  enc.PutU64(0x0708090a0b0c0d0eULL);
  const char kWire[] = "\x02\x01\x06\x05\x04\x03\x0e\x0d\x0c\x0b\x0a\x09\x08\x07";
  EXPECT_EQ(b.ToString(), std::string(kWire, sizeof(kWire) - 1));
  Decoder dec(b);
  EXPECT_EQ(dec.GetU16(), 0x0102u);
  EXPECT_EQ(dec.GetU32(), 0x03040506u);
  EXPECT_EQ(dec.GetU64(), 0x0708090a0b0c0d0eULL);
  EXPECT_TRUE(dec.Finish().ok());
}

TEST(ExactEncodeTest, CallableFormSizesThenWritesOnce) {
  Buffer payload = Buffer::FromString(std::string(100, 'x'));
  auto put = [&](Encoder* enc) {
    enc->PutU64(7);
    enc->PutBuffer(payload);
    enc->PutString("tail");
  };
  EXPECT_EQ(EncodedSize(put), 8u + 1 + 100 + 1 + 4);
  Buffer wire = Encode(put);
  EXPECT_EQ(wire.size(), EncodedSize(put));
  EXPECT_EQ(wire.capacity(), wire.size());
  EXPECT_FALSE(wire.SharesStorageWith(payload));  // one copy, not an alias
}

// A message whose writing pass puts `drift` bytes more than its sizing pass.
struct DriftingMessage {
  int drift = 0;
  mutable int passes = 0;
  template <class Ar>
  void Fields(Ar& ar) {
    int n = 8 + (passes++ == 0 ? 0 : drift);
    for (int i = 0; i < n; ++i) {
      ar(uint8_t{0});
    }
  }
};

TEST(ExactEncodeDeathTest, PassesThatDisagreeAbort) {
  // Disagreeing passes are a bug in the message: fail loudly instead of
  // truncating the payload or growing past the sized allocation.
  EXPECT_DEATH(Encode(DriftingMessage{+1}), "overruns");
  EXPECT_DEATH(Encode(DriftingMessage{-8}), "wrote 0 of 8");
}

// One row of the wire-codec table: a sample of one wire type, the bytes the
// hand-written encoders put for it, and mal::Decode for its type. Every
// field is on the wire, so identical re-encoded bytes mean the decoded
// message equals the original.
struct CodecCase {
  std::string name;
  std::function<void(Encoder*)> encode;
  std::function<Status(const Payload&)> decode;
  std::function<Buffer(const Buffer&)> reencode;
  std::string hex;
};

std::vector<CodecCase> CodecTable() {
  std::vector<CodecCase> table;
  wire_samples::ForEachWireSample([&table](const char* name, const auto& sample,
                                           std::string hex) {
    using Msg = std::decay_t<decltype(sample)>;
    auto held = std::make_shared<const Msg>(sample);
    table.push_back({name, [held](Encoder* enc) { enc->PutField(*held); },
                     [](const Payload& wire) { return Decode<Msg>(wire).status(); },
                     [](const Buffer& wire) {
                       auto decoded = Decode<Msg>(wire);
                       return decoded.ok() ? Encode(decoded.value()) : Buffer();
                     },
                     std::move(hex)});
  });
  return table;
}

TEST(ExactEncodeTest, MessageCodecTable) {
  for (const CodecCase& c : CodecTable()) {
    SCOPED_TRACE(c.name);
    Buffer appended;  // the incremental append path must put the same bytes
    Encoder append_enc(&appended);
    c.encode(&append_enc);

    Buffer exact = Encode(c.encode);
    EXPECT_EQ(EncodedSize(c.encode), exact.size());
    EXPECT_EQ(exact, appended);
    if (exact.size() > 15) {  // longer than the in-object short-string buffer
      EXPECT_EQ(exact.capacity(), exact.size());
    }
    EXPECT_EQ(c.reencode(exact), exact);
    // The field list puts exactly the bytes the hand-written encoder did.
    EXPECT_EQ(wire_samples::ToHex(exact.View()), c.hex);
    // Every strict prefix runs past the end, and one byte more is left over.
    for (size_t n = 0; n < exact.size(); ++n) {
      ASSERT_EQ(c.decode(exact.Read(0, n)).code(), Code::kCorruption) << "prefix " << n;
    }
    Buffer longer = Buffer::FromString(exact.ToString() + '\0');
    EXPECT_EQ(c.decode(longer).code(), Code::kCorruption);
  }
}

// A segmented message is read only through a Decoder over the Payload, and
// never through a temporary one whose segments would dangle.
static_assert(!std::is_constructible_v<std::string_view, const Payload&>);
static_assert(!std::is_constructible_v<Buffer, const Payload&>);
static_assert(!std::is_constructible_v<Decoder, Payload&&>);
static_assert(std::is_constructible_v<Decoder, const Payload&>);

// Decodes a segmented payload and re-encodes it flat; empty on a failed or
// partial decode.
template <typename Msg>
Buffer FlatAfterSegmentedDecode(const Payload& payload) {
  auto decoded = Decode<Msg>(payload);
  return decoded.ok() ? Encode(decoded.value()) : Buffer();
}

osd::Object SampleObject() {
  osd::Object object;
  object.data = Buffer::FromString(std::string(8192, 'd'));
  object.omap.Set("k", "v");
  object.xattrs.Set("ec.cksum", "123");
  object.snapshots["small"] = Buffer::FromString("snap");
  object.snapshots["big"] = Buffer::FromString(std::string(3000, 's'));
  object.version = 7;
  return object;
}

TEST(SegmentTest, RoundTripMatchesTheFlatEncoding) {
  osd::OsdOpRequest request;
  request.oid = "obj";
  osd::Op write;
  write.type = osd::Op::Type::kWriteFull;
  write.data = Buffer::FromString(std::string(4096, 'w'));
  request.ops.push_back(write);
  osd::Op append;
  append.type = osd::Op::Type::kAppend;
  append.data = Buffer::FromString(std::string(kSegmentMinBytes - 1, 'a'));  // stays in front
  request.ops.push_back(append);
  osd::OsdOpReply reply;
  reply.map_epoch = 3;
  reply.results.push_back({Status::Ok(), Buffer(std::string(kSegmentMinBytes, 'r'))});
  reply.results.push_back({Status::NotFound("x"), Buffer(std::string(1400, 'q'))});
  osd::Object object = SampleObject();

  struct Case {
    std::string name;
    Payload segmented;
    Buffer flat;
    size_t segments;
    Buffer decoded_flat;
  };
  Payload request_wire = EncodeSegmented(request);
  Payload reply_wire = EncodeSegmented(reply);
  Payload object_wire = EncodeSegmented(object);
  std::vector<Case> cases = {
      {"OsdOpRequest", request_wire, Encode(request), 1,
       FlatAfterSegmentedDecode<osd::OsdOpRequest>(request_wire)},
      {"OsdOpReply", reply_wire, Encode(reply), 1,
       FlatAfterSegmentedDecode<osd::OsdOpReply>(reply_wire)},
      {"Object", object_wire, Encode(object), 2,
       FlatAfterSegmentedDecode<osd::Object>(object_wire)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_TRUE(c.segmented.segmented());
    EXPECT_EQ(c.segmented.segments().size(), c.segments);
    EXPECT_EQ(c.segmented.size(), c.flat.size());
    sim::Envelope segmented_envelope;
    segmented_envelope.payload = c.segmented;
    sim::Envelope flat_envelope;
    flat_envelope.payload = c.flat;
    EXPECT_EQ(segmented_envelope.WireSize(), flat_envelope.WireSize());
    EXPECT_EQ(c.decoded_flat, c.flat);
    // The front is exact-size too: no spare capacity behind decoded slices.
    EXPECT_EQ(c.segmented.front().capacity(), c.segmented.front().size());
  }
  // Whole-allocation buffers travel by reference, and decode to the same
  // storage on the far side.
  EXPECT_TRUE(request_wire.segments()[0].SharesStorageWith(write.data));
  auto decoded_or = Decode<osd::OsdOpRequest>(request_wire);
  ASSERT_TRUE(decoded_or.ok());
  const osd::OsdOpRequest& decoded = decoded_or.value();
  EXPECT_TRUE(decoded.ops[0].data.SharesStorageWith(write.data));
  EXPECT_FALSE(decoded.ops[1].data.SharesStorageWith(append.data));
  EXPECT_TRUE(object_wire.segments()[0].SharesStorageWith(object.data));
  // A flat payload decodes through the same constructor.
  Payload flat = Encode(request);
  EXPECT_FALSE(flat.segmented());
  EXPECT_EQ(FlatAfterSegmentedDecode<osd::OsdOpRequest>(flat), Encode(request));
}

TEST(SegmentTest, SlicesAndSpareCapacityArriveAsExactSizeSegments) {
  Buffer backing = Buffer::FromString(std::string(16384, 'b'));
  Buffer slice = backing.Read(100, 4096);
  std::string roomy(4096, 'c');
  roomy.reserve(8192);
  Buffer spare = Buffer::FromString(std::move(roomy));
  ASSERT_GT(spare.capacity(), spare.size());
  Buffer whole = Buffer::FromString(std::string(4096, 'w'));

  Payload wire = EncodeSegmented([&](Encoder* enc) {
    enc->PutBuffer(slice);
    enc->PutBuffer(spare);
    enc->PutBuffer(whole);
  });
  ASSERT_EQ(wire.segments().size(), 3u);
  EXPECT_FALSE(wire.segments()[0].SharesStorageWith(backing));
  EXPECT_FALSE(wire.segments()[1].SharesStorageWith(spare));
  EXPECT_TRUE(wire.segments()[2].SharesStorageWith(whole));
  for (const Buffer& segment : wire.segments()) {
    EXPECT_EQ(segment.size(), 4096u);
    EXPECT_LT(segment.capacity() - segment.size(), 256u);
  }
  Decoder dec(wire);
  EXPECT_EQ(dec.GetBuffer(), slice);
  EXPECT_EQ(dec.GetBuffer(), spare);
  EXPECT_EQ(dec.GetBuffer(), whole);
  EXPECT_TRUE(dec.Finish().ok());
}

TEST(SegmentTest, MissingOrShortSegmentFailsDecode) {
  osd::Object object = SampleObject();
  Payload wire = EncodeSegmented(object);
  ASSERT_EQ(wire.segments().size(), 2u);
  Buffer data = wire.segments()[0];
  Buffer snapshot = wire.segments()[1];
  Buffer longer = snapshot;
  longer.Append("x");
  // Both missing, one missing, out of order, short, long.
  std::vector<std::vector<Buffer>> broken = {
      {}, {data}, {snapshot, data}, {data.Read(0, 8191), snapshot}, {data, longer}};
  for (size_t i = 0; i < broken.size(); ++i) {
    SCOPED_TRACE(i);
    Payload bad(wire.front(), broken[i]);
    EXPECT_EQ(Decode<osd::Object>(bad).status().code(), Code::kCorruption);
  }
  // The front alone, read as a flat message, is short as well.
  EXPECT_EQ(Decode<osd::Object>(wire.front()).status().code(), Code::kCorruption);
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(RngTest, ZipfSkewsTowardLowIndices) {
  Rng rng(13);
  ZipfGenerator zipf(100, 0.99);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = zipf.Next(&rng);
    ASSERT_LT(v, 100u);
    counts[v]++;
  }
  // Rank 0 should be sampled far more often than rank 50.
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(HistogramTest, QuantilesOnKnownData) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Add(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
  EXPECT_NEAR(h.Quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(h.Quantile(0.99), 99.01, 0.1);
}

TEST(HistogramTest, CdfIsMonotonic) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    h.Add(rng.LogNormal(1.0, 0.5));
  }
  auto cdf = h.Cdf(50);
  ASSERT_EQ(cdf.size(), 50u);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a;
  Histogram b;
  a.Add(1);
  b.Add(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(ThroughputSeriesTest, WindowsAndRates) {
  ThroughputSeries ts(1'000'000'000);  // 1s windows
  ts.Record(100'000'000);              // t=0.1s
  ts.Record(200'000'000);
  ts.Record(1'500'000'000);  // t=1.5s
  auto series = ts.Series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].second, 2.0);
  EXPECT_DOUBLE_EQ(series[1].second, 1.0);
  EXPECT_EQ(ts.total(), 3u);
  EXPECT_DOUBLE_EQ(ts.MeanRate(0, 2'000'000'000), 1.5);
}

TEST(ThroughputSeriesTest, GapsAreZero) {
  ThroughputSeries ts(1'000'000'000);
  ts.Record(0);
  ts.Record(3'200'000'000);
  auto series = ts.Series();
  ASSERT_EQ(series.size(), 4u);
  EXPECT_DOUBLE_EQ(series[1].second, 0.0);
  EXPECT_DOUBLE_EQ(series[2].second, 0.0);
}

TEST(ThroughputSeriesTest, ExtendToEmitsTrailingZeroWindows) {
  ThroughputSeries ts(1'000'000'000);
  ts.Record(500'000'000);  // one op at t=0.5s
  // Without extension the series ends at the last event's window.
  ASSERT_EQ(ts.Series().size(), 1u);
  // The run actually lasted 4.2s with a trailing stall: the stall must show
  // up as explicit zero-rate windows, not a silently truncated series.
  ts.ExtendTo(4'200'000'000);
  auto series = ts.Series();
  ASSERT_EQ(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series[0].second, 1.0);
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(series[i].second, 0.0);
  }
  // Extending backwards is a no-op.
  ts.ExtendTo(1'000'000'000);
  EXPECT_EQ(ts.Series().size(), 5u);
}

TEST(HistogramTest, QuantileEdgeCases) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev(), 0.0);

  Histogram single;
  single.Add(42.0);
  EXPECT_DOUBLE_EQ(single.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(single.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(single.Quantile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(single.stddev(), 0.0);

  Histogram h;
  for (int i = 1; i <= 10; ++i) {
    h.Add(i);
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);
  // Out-of-range q clamps instead of indexing out of bounds.
  EXPECT_DOUBLE_EQ(h.Quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.5), 10.0);
}

TEST(HistogramTest, MergeEdgeCases) {
  Histogram a;
  Histogram empty;
  a.Add(5);
  a.Add(1);
  a.Merge(empty);  // merging empty: no-op
  EXPECT_EQ(a.count(), 2u);
  empty.Merge(a);  // merging into empty: copies
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.min(), 1.0);
  Histogram b;
  b.Add(3);
  a.Merge(b);
  // Quantiles re-sort even though b's sample lands between a's.
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(a.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(a.Quantile(1.0), 5.0);
}

TEST(BoundedHistogramTest, DecimatesDeterministicallyAtCap) {
  BoundedHistogram h(64);
  for (int i = 0; i < 10'000; ++i) {
    h.Observe(i);
  }
  EXPECT_EQ(h.observed(), 10'000u);
  EXPECT_LE(h.samples().size(), 64u);
  EXPECT_GE(h.samples().size(), 16u);
  // No RNG: an identical observation stream yields identical survivors.
  BoundedHistogram h2(64);
  for (int i = 0; i < 10'000; ++i) {
    h2.Observe(i);
  }
  EXPECT_EQ(h.samples(), h2.samples());
  // Survivors stay an evenly spaced subsequence, so summary statistics of
  // the uniform stream survive decimation.
  Histogram summary = h.ToHistogram();
  EXPECT_NEAR(summary.mean(), 5'000.0, 800.0);
  EXPECT_NEAR(summary.Quantile(0.5), 5'000.0, 800.0);
}

TEST(BoundedHistogramTest, BelowCapKeepsEverySample) {
  BoundedHistogram h(1024);
  for (int i = 0; i < 100; ++i) {
    h.Observe(i);
  }
  EXPECT_EQ(h.observed(), 100u);
  EXPECT_EQ(h.samples().size(), 100u);
}

TEST(PerfRegistryTest, CountersGaugesHistograms) {
  PerfRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.Inc("ops");
  reg.Inc("ops", 4);
  reg.Set("depth", 3.5);
  reg.Observe("lat_us", 10);
  reg.Observe("lat_us", 30);
  EXPECT_FALSE(reg.empty());
  EXPECT_EQ(reg.counter("ops"), 5u);
  EXPECT_EQ(reg.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("depth"), 3.5);
  ASSERT_NE(reg.histogram("lat_us"), nullptr);
  EXPECT_EQ(reg.histogram("lat_us")->observed(), 2u);
  EXPECT_EQ(reg.histogram("missing"), nullptr);

  PerfSnapshot snap = reg.Snapshot("osd.0", 123);
  EXPECT_EQ(snap.entity, "osd.0");
  EXPECT_EQ(snap.time_ns, 123u);
  EXPECT_EQ(snap.counters.at("ops"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("depth"), 3.5);
  ASSERT_EQ(snap.histograms.at("lat_us").samples.size(), 2u);
}

TEST(PerfSnapshotTest, EncodeDecodeRoundTrip) {
  PerfRegistry reg;
  reg.Inc("mon.paxos.commits", 7);
  reg.Set("mon.osdmap_epoch", 4);
  reg.Observe("queue_us", 1.5);
  reg.Observe("queue_us", 2.5);
  PerfSnapshot snap = reg.Snapshot("mon.0", 42);

  Buffer wire = Encode(snap);
  auto decoded_or = Decode<PerfSnapshot>(wire);
  ASSERT_TRUE(decoded_or.ok());
  const PerfSnapshot& decoded = decoded_or.value();
  EXPECT_EQ(decoded.entity, "mon.0");
  EXPECT_EQ(decoded.time_ns, 42u);
  EXPECT_EQ(decoded.counters, snap.counters);
  EXPECT_EQ(decoded.gauges, snap.gauges);
  ASSERT_EQ(decoded.histograms.at("queue_us").samples.size(), 2u);
  EXPECT_EQ(decoded.histograms.at("queue_us").observed, 2u);

  // Truncated wire data fails cleanly instead of reading junk.
  Buffer truncated = Buffer::FromString(wire.ToString().substr(0, wire.size() / 2));
  EXPECT_FALSE(Decode<PerfSnapshot>(truncated).ok());
}

TEST(PerfSnapshotTest, HugeSampleCountIsCorruptionNotAnAllocation) {
  // One histogram whose sample count reads 2^61: more doubles than a vector
  // can hold (max_size() is below 2^60), so sizing the vector from the count
  // would throw instead of failing the decode.
  ASSERT_GT(uint64_t{1} << 61, std::vector<double>().max_size());
  Buffer wire = Encode([](Encoder* enc) {
    enc->PutString("osd.0");
    enc->PutU64(1);
    enc->PutVarU64(0);  // counters
    enc->PutVarU64(0);  // gauges
    enc->PutVarU64(1);  // histograms
    enc->PutString("lat");
    enc->PutU64(2);
    enc->PutF64(1.0);
    enc->PutF64(2.0);
    enc->PutVarU64(uint64_t{1} << 61);
    enc->PutF64(1.5);
  });
  EXPECT_EQ(Decode<PerfSnapshot>(wire).status().code(), Code::kCorruption);
}

TEST(PerfSnapshotTest, AggregateSumsCountersMergesHistsDropsGauges) {
  PerfRegistry a;
  a.Inc("ops", 2);
  a.Set("epoch", 3);
  a.Observe("lat", 1);
  PerfRegistry b;
  b.Inc("ops", 5);
  b.Inc("aborts", 1);
  b.Set("epoch", 4);
  b.Observe("lat", 9);

  PerfSnapshot agg =
      AggregateSnapshots({a.Snapshot("osd.0", 10), b.Snapshot("osd.1", 20)});
  EXPECT_EQ(agg.entity, "cluster");
  EXPECT_EQ(agg.time_ns, 20u);
  EXPECT_EQ(agg.counters.at("ops"), 7u);
  EXPECT_EQ(agg.counters.at("aborts"), 1u);
  // Gauges are point-in-time per entity; a cross-entity sum is meaningless.
  EXPECT_TRUE(agg.gauges.empty());
  EXPECT_EQ(agg.histograms.at("lat").samples.size(), 2u);
  EXPECT_EQ(agg.histograms.at("lat").observed, 2u);
}

TEST(PerfDumpTest, JsonContainsEntitiesAndClusterAggregate) {
  PerfRegistry reg;
  reg.Inc("osd.op.write.count", 3);
  std::string json = PerfDumpToJson({reg.Snapshot("osd.0", 5)}, 9);
  EXPECT_NE(json.find("\"time_ns\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"osd.0\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"osd.op.write.count\": 3"), std::string::npos);
}

TEST(TraceCollectorTest, SpanTreeAndHopStats) {
  trace::TraceCollector collector;
  trace::TraceContext root = collector.StartSpan("zlog.AppendBatch", "client.0", 100);
  EXPECT_TRUE(root.valid());
  trace::TraceContext seq =
      collector.StartSpan("rpc:mds.0:mds.seq_next", "client.0", 200, root);
  EXPECT_EQ(seq.trace_id, root.trace_id);
  EXPECT_EQ(seq.parent_span_id, root.span_id);
  collector.EndSpan(seq, 700);
  trace::TraceContext osd =
      collector.StartSpan("rpc:osd.1:osd.op", "client.0", 700, root);
  collector.EndSpan(osd, 1'900);
  collector.EndSpan(root, 1'900);

  auto roots = collector.Roots(root.trace_id);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->name, "zlog.AppendBatch");
  auto children = collector.ChildrenOf(root.span_id);
  ASSERT_EQ(children.size(), 2u);

  // EndSpan is idempotent: a late duplicate close keeps the first end time.
  collector.EndSpan(seq, 5'000);
  EXPECT_EQ(collector.Find(seq.span_id)->end_ns, 700u);

  auto hops = collector.HopStats(root.trace_id);
  EXPECT_EQ(hops.at("rpc:mds.0:mds.seq_next").count, 1u);
  EXPECT_EQ(hops.at("rpc:mds.0:mds.seq_next").total_ns, 500u);
  EXPECT_EQ(hops.at("rpc:osd.1:osd.op").total_ns, 1'200u);

  std::string tree = collector.RenderTree(root.trace_id);
  EXPECT_NE(tree.find("zlog.AppendBatch"), std::string::npos);
  EXPECT_NE(tree.find("rpc:osd.1:osd.op"), std::string::npos);
}

TEST(TraceCollectorTest, FreshTraceWhenParentInvalid) {
  trace::TraceCollector collector;
  trace::TraceContext a = collector.StartSpan("a", "x", 0);
  trace::TraceContext b = collector.StartSpan("b", "x", 0);
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_EQ(collector.Roots(a.trace_id).size(), 1u);
  EXPECT_EQ(collector.Roots(b.trace_id).size(), 1u);
}

TEST(LogLevelTest, ComponentOverridesAndContextStamp) {
  LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);

  // Exact component override wins over the global threshold.
  SetComponentLogLevel("osd.3", LogLevel::kDebug);
  testing::internal::CaptureStderr();
  MAL_DEBUG("osd.3") << "debug line";
  MAL_DEBUG("osd.4") << "suppressed";
  std::string out = testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("debug line"), std::string::npos);
  EXPECT_EQ(out.find("suppressed"), std::string::npos);

  // Daemon-type prefix ("mds") covers every rank without an exact entry.
  SetComponentLogLevel("mds", LogLevel::kOff);
  testing::internal::CaptureStderr();
  MAL_ERROR("mds.7") << "silenced error";
  out = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.find("silenced error"), std::string::npos);

  // Ambient context stamps the simulated clock and node onto the line.
  {
    ScopedLogContext ctx(1'500'000'000, "osd.3");
    testing::internal::CaptureStderr();
    MAL_DEBUG("osd.3") << "stamped";
    out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("[1.500000s osd.3]"), std::string::npos);
  }
  testing::internal::CaptureStderr();
  MAL_WARN("osd.3") << "unstamped";
  out = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.find("1.500000s"), std::string::npos);

  ClearComponentLogLevels();
  SetLogLevel(saved);
}

}  // namespace
}  // namespace mal
