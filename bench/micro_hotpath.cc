// Substrate hot-path microbench: proves the data-plane costs that the
// simulated clock cannot see.
//
// The ZLog append path lands every entry in one ever-growing stripe object
// (paper §5.2). Before the zero-copy data plane, ObjectStore staged a full
// copy of the target object per transaction, so a single append cost
// O(object size) — quadratic wall-clock over the life of a stripe. With COW
// buffers and delta staging a transaction costs O(bytes it touches).
//
// This bench sweeps the stripe-object size 64 KiB -> 16 MiB and measures
// host wall-clock per operation for the hot operations:
//   - bytestream append (64 B entry) through ApplyTransaction
//   - omap set (zlog's entry.<pos> index writes) on a populated omap
//   - omap get of a key of that populated omap
//   - snapshot create (kSnapCreate: now an O(1) buffer alias)
// Shape checks assert the per-op cost stays flat (within 2x) across the
// sweep; simulated metrics are not involved, so this file is free to use
// host clocks.
//
// It also measures the omap's space cost: the heap bytes one zlog-shaped
// record (12 B key, 65 B value) costs once 64 stripe objects hold 7,300
// records each, as glibc's mallinfo2() reports it.
//
// Last, the EC kernels every shard write, read, pull and scrub runs: the
// shard checksum (mal::Checksum) of a 1,366-byte shard (one k=3 shard of a
// 4 KiB object), ec::Encode of 4 KiB at k=3, and ec::Decode with one data
// shard missing. Each is timed min-of-N, interleaved with the byte-at-a-time
// kernel it replaced (FNV-1a, which osd::StableHash still is, and the byte
// loop XOR kept below), and checked by its speedup within this one run.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "bench/bench_util.h"
#include "src/common/checksum.h"
#include "src/ec/codec.h"
#include "src/osd/object_store.h"
#include "src/osd/placement.h"

namespace {

using namespace mal;
using namespace mal::bench;

constexpr size_t kEntryBytes = 64;
constexpr int kAppendIters = 4000;
constexpr int kOmapIters = 2000;
constexpr int kSnapIters = 64;
// The space measurement's shape: malbench zlog_append (8 logs x 4 stripe
// objects x 2 replicas) ends with about this many records per object copy.
constexpr int kSpaceObjects = 64;
constexpr int kSpaceRecordsPerObject = 7300;

osd::Op AppendOp(const Buffer& entry) {
  osd::Op op;
  op.type = osd::Op::Type::kAppend;
  op.data = entry;
  return op;
}

// One-op transaction helper; aborts the bench on unexpected failure.
void MustApply(osd::ObjectStore* store, const std::string& oid, osd::Op op) {
  std::vector<osd::Op> ops;
  ops.push_back(std::move(op));
  std::vector<osd::OpResult> results;
  mal::Status s = store->ApplyTransaction(oid, ops, &results);
  if (!s.ok()) {
    std::fprintf(stderr, "micro_hotpath: transaction failed: %s\n", s.ToString().c_str());
    std::abort();
  }
}

struct SizeResult {
  double append_ns = 0;    // per 64 B bytestream append
  double omap_set_ns = 0;  // per omap key write
  double omap_get_ns = 0;  // per omap key read
  double snap_ns = 0;      // per snapshot create+remove pair
};

SizeResult RunAtSize(size_t object_bytes) {
  osd::ObjectStore store;
  const std::string oid = "stripe";

  // Grow the stripe to the target size, and give it an omap index shaped
  // like cls_zlog's (one entry.<pos> key per appended entry).
  osd::Op seed;
  seed.type = osd::Op::Type::kWriteFull;
  seed.data = Buffer::FromString(std::string(object_bytes, 's'));
  MustApply(&store, oid, std::move(seed));
  size_t index_entries = object_bytes / 1024;  // keep omap proportional to object
  for (size_t i = 0; i < index_entries; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "entry.%020zu", i);
    osd::Op op;
    op.type = osd::Op::Type::kOmapSet;
    op.key = key;
    op.value = "1";
    MustApply(&store, oid, std::move(op));
  }

  SizeResult result;
  Buffer entry = Buffer::FromString(std::string(kEntryBytes, 'x'));

  // Warmup: the first append after WriteFull triggers the one capacity
  // doubling (a single O(object) copy amortized over the next `object/64`
  // appends). Take it before the timer so the loop measures the steady
  // state — the seed code paid a full-object copy on EVERY append, so it
  // stays O(object) here no matter the warmup.
  for (int i = 0; i < 16; ++i) {
    MustApply(&store, oid, AppendOp(entry));
  }

  WallTimer timer;
  for (int i = 0; i < kAppendIters; ++i) {
    MustApply(&store, oid, AppendOp(entry));
  }
  result.append_ns = timer.Seconds() * 1e9 / kAppendIters;

  timer.Reset();
  for (int i = 0; i < kOmapIters; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "entry.%020d", 1000000 + i);
    osd::Op op;
    op.type = osd::Op::Type::kOmapSet;
    op.key = key;
    op.value = "1";
    MustApply(&store, oid, std::move(op));
  }
  result.omap_set_ns = timer.Seconds() * 1e9 / kOmapIters;

  timer.Reset();
  for (int i = 0; i < kOmapIters; ++i) {
    char key[32];
    size_t pos = static_cast<size_t>(i) * 7919 % index_entries;  // spread over the index
    std::snprintf(key, sizeof(key), "entry.%020zu", pos);
    osd::Op op;
    op.type = osd::Op::Type::kOmapGet;
    op.key = key;
    MustApply(&store, oid, std::move(op));
  }
  result.omap_get_ns = timer.Seconds() * 1e9 / kOmapIters;

  timer.Reset();
  for (int i = 0; i < kSnapIters; ++i) {
    osd::Op snap;
    snap.type = osd::Op::Type::kSnapCreate;
    snap.key = "s";
    MustApply(&store, oid, std::move(snap));
    osd::Op drop;
    drop.type = osd::Op::Type::kSnapRemove;
    drop.key = "s";
    MustApply(&store, oid, std::move(drop));
  }
  result.snap_ns = timer.Seconds() * 1e9 / kSnapIters;

  if (store.bytes_used() != store.RecomputeBytesUsed()) {
    std::fprintf(stderr, "micro_hotpath: bytes_used drift (%" PRIu64 " vs %" PRIu64 ")\n",
                 store.bytes_used(), store.RecomputeBytesUsed());
    std::abort();
  }
  return result;
}

// Heap bytes glibc has handed out: small-chunk arenas plus mmap'd blocks.
size_t HeapInUse() {
  struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

struct SpaceResult {
  double heap_bytes_per_record = 0;
  double kv_bytes_per_record = 0;
};

// Fills 64 objects with 7,300 zlog-shaped records each ("e" + 11-digit
// position keys, 65 B values), striping positions across the objects as
// ZLog does, and divides the heap growth by the record count.
SpaceResult MeasureOmapSpace() {
  const std::string value(65, 'v');
  osd::ObjectStore store;
  size_t before = HeapInUse();
  for (int pos = 0; pos < kSpaceObjects * kSpaceRecordsPerObject; ++pos) {
    char key[16];
    std::snprintf(key, sizeof(key), "e%011d", pos);
    osd::Op op;
    op.type = osd::Op::Type::kOmapSet;
    op.key = key;
    op.value = value;
    MustApply(&store, "stripe." + std::to_string(pos % kSpaceObjects), std::move(op));
  }
  size_t after = HeapInUse();
  double records = static_cast<double>(kSpaceObjects) * kSpaceRecordsPerObject;
  SpaceResult result;
  result.heap_bytes_per_record =
      after > before ? static_cast<double>(after - before) / records : 0;
  result.kv_bytes_per_record = static_cast<double>(store.bytes_used()) / records;
  return result;
}

// The EC kernels' byte-at-a-time predecessors: the reference each EC row is
// timed against. Encode and Decode here index each shard byte by byte into
// a zero-filled string, as ec::Encode and ec::Decode did.
std::vector<Buffer> ByteLoopEncode(const Buffer& data, uint32_t k) {
  uint64_t shard_len = (data.size() + k - 1) / k;
  std::vector<Buffer> shards;
  for (uint32_t i = 0; i < k; ++i) {
    Buffer shard = data.Read(static_cast<uint64_t>(i) * shard_len, shard_len);
    shard.Resize(shard_len);
    shards.push_back(std::move(shard));
  }
  std::string parity(shard_len, '\0');
  for (uint32_t i = 0; i < k; ++i) {
    for (uint64_t b = 0; b < shard_len; ++b) {
      parity[b] = static_cast<char>(parity[b] ^ shards[i].data()[b]);
    }
  }
  shards.push_back(Buffer::FromString(std::move(parity)));
  return shards;
}

Buffer ByteLoopDecode(const std::vector<std::optional<Buffer>>& shards, uint64_t size) {
  size_t missing = shards.size();
  uint64_t shard_len = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].has_value()) {
      shard_len = shards[i]->size();
    } else {
      missing = i;
    }
  }
  std::string reconstructed(shard_len, '\0');
  for (size_t i = 0; missing < shards.size() && i < shards.size(); ++i) {
    for (uint64_t b = 0; i != missing && b < shard_len; ++b) {
      reconstructed[b] = static_cast<char>(reconstructed[b] ^ shards[i]->data()[b]);
    }
  }
  Buffer out;
  for (size_t i = 0; i + 1 < shards.size(); ++i) {
    if (i == missing) {
      out.Append(reconstructed.data(), shard_len);
    } else {
      out.Append(*shards[i]);
    }
  }
  out.Resize(size);
  return out;
}

// Keeps `value` and every write before it from being optimized away, and
// the next call from being hoisted out of a timing loop.
template <typename T>
void KeepAlive(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

constexpr int kEcReps = 15;
constexpr int kEcCalls = 2000;

struct KernelTiming {
  double word_ns = 0;  // the word-wide kernel, per call
  double byte_ns = 0;  // its byte-at-a-time reference, per call
  double speedup() const { return byte_ns / word_ns; }
};

// Min-of-kEcReps wall time per call of each kernel, their batches
// interleaved so both see the same machine state.
template <typename Word, typename Byte>
KernelTiming TimeKernels(Word word, Byte byte) {
  double word_best = 1e30;
  double byte_best = 1e30;
  for (int rep = 0; rep < kEcReps; ++rep) {
    WallTimer timer;
    for (int i = 0; i < kEcCalls; ++i) {
      KeepAlive(word());
    }
    word_best = std::min(word_best, timer.Seconds());
    timer.Reset();
    for (int i = 0; i < kEcCalls; ++i) {
      KeepAlive(byte());
    }
    byte_best = std::min(byte_best, timer.Seconds());
  }
  return {word_best * 1e9 / kEcCalls, byte_best * 1e9 / kEcCalls};
}

struct EcKernelResult {
  KernelTiming checksum;
  KernelTiming encode;
  KernelTiming decode;
};

// Aborts unless both kernels produce the same bytes, so the rows time equal
// work.
EcKernelResult MeasureEcKernels() {
  constexpr uint32_t kK = 3;
  std::string bytes(4096, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 131 + 7);
  }
  const Buffer object = Buffer::FromString(bytes);
  const std::vector<Buffer> shards = ec::Encode(object, kK);
  std::vector<std::optional<Buffer>> degraded(shards.begin(), shards.end());
  degraded[1] = std::nullopt;
  auto decoded = ec::Decode(degraded, object.size());
  if (ByteLoopEncode(object, kK) != shards || !decoded.ok() || decoded.value() != object ||
      ByteLoopDecode(degraded, object.size()) != object) {
    std::fprintf(stderr, "micro_hotpath: EC kernels disagree with the byte reference\n");
    std::abort();
  }
  const std::string_view shard = shards[0].View();  // 1,366 bytes
  EcKernelResult result;
  result.checksum = TimeKernels([&] { return mal::Checksum(shard); },
                                [&] { return osd::StableHash(shard); });
  result.encode = TimeKernels([&] { return ec::Encode(object, kK).back().data()[0]; },
                              [&] { return ByteLoopEncode(object, kK).back().data()[0]; });
  result.decode =
      TimeKernels([&] { return ec::Decode(degraded, object.size()).value().data()[0]; },
                  [&] { return ByteLoopDecode(degraded, object.size()).data()[0]; });
  return result;
}

}  // namespace

int main() {
  PrintHeader("Data-plane hot path: per-op wall cost vs stripe object size",
              "ApplyTransaction cost for append / omap set / omap get / snapshot "
              "as the target object grows 64 KiB -> 16 MiB. Flat curves = O(bytes "
              "touched) staging; rising curves = O(object) copies.");
  PrintColumns({"object_size", "append_ns", "omap_set_ns", "omap_get_ns", "snap_create_ns"});

  const std::vector<std::pair<std::string, size_t>> kSweep = {
      {"64KiB", 64ull << 10},  {"256KiB", 256ull << 10}, {"1MiB", 1ull << 20},
      {"4MiB", 4ull << 20},    {"16MiB", 16ull << 20},
  };

  JsonReporter json("micro_hotpath");
  std::vector<SizeResult> results;
  for (const auto& [label, bytes] : kSweep) {
    SizeResult r = RunAtSize(bytes);
    results.push_back(r);
    std::printf("%s\t%.0f\t%.0f\t%.0f\t%.0f\n", label.c_str(), r.append_ns, r.omap_set_ns,
                r.omap_get_ns, r.snap_ns);
    json.Add(label,
             {
                 {"object_bytes", static_cast<double>(bytes)},
                 {"append_ns", r.append_ns},
                 {"omap_set_ns", r.omap_set_ns},
                 {"omap_get_ns", r.omap_get_ns},
                 {"snap_create_ns", r.snap_ns},
             },
             /*events=*/kAppendIters + 2.0 * kOmapIters + 2.0 * kSnapIters);
  }

  PrintSection("omap space: 64 objects x 7,300 zlog-shaped records");
  PrintColumns({"heap_bytes_per_record", "key_value_bytes_per_record"});
  SpaceResult space = MeasureOmapSpace();
  std::printf("%.1f\t%.1f\n", space.heap_bytes_per_record, space.kv_bytes_per_record);
  json.Add("omap_space",
           {
               {"heap_bytes_per_record", space.heap_bytes_per_record},
               {"kv_bytes_per_record", space.kv_bytes_per_record},
           },
           /*events=*/static_cast<double>(kSpaceObjects) * kSpaceRecordsPerObject);

  PrintSection("EC kernels: word-wide vs byte-at-a-time, ns per call (min of 15)");
  PrintColumns({"kernel", "word_ns", "byte_ns", "speedup"});
  EcKernelResult ec_kernels = MeasureEcKernels();
  const std::vector<std::pair<std::string, const KernelTiming*>> kernel_rows = {
      {"checksum_1366B", &ec_kernels.checksum},
      {"encode_4KiB_k3", &ec_kernels.encode},
      {"decode_4KiB_k3_one_missing", &ec_kernels.decode},
  };
  std::vector<std::pair<std::string, double>> kernel_metrics;
  for (const auto& [label, timing] : kernel_rows) {
    std::printf("%s\t%.0f\t%.0f\t%.1f\n", label.c_str(), timing->word_ns, timing->byte_ns,
                timing->speedup());
    kernel_metrics.emplace_back(label + "_word_ns", timing->word_ns);
    kernel_metrics.emplace_back(label + "_byte_ns", timing->byte_ns);
    kernel_metrics.emplace_back(label + "_speedup", timing->speedup());
  }
  json.Add("ec_kernels", std::move(kernel_metrics),
           /*events=*/2.0 * kEcReps * kEcCalls * kernel_rows.size());

  PrintSection("shape checks");
  const SizeResult& small = results.front();
  const SizeResult& large = results.back();
  bool ok = true;
  ok &= ShapeCheck("append cost flat 64KiB->16MiB (within 2x)",
                   large.append_ns <= 2.0 * small.append_ns);
  ok &= ShapeCheck("omap set cost flat 64KiB->16MiB (within 2x)",
                   large.omap_set_ns <= 2.0 * small.omap_set_ns);
  ok &= ShapeCheck("snapshot create flat 64KiB->16MiB (within 2x)",
                   large.snap_ns <= 2.0 * small.snap_ns);
  // A zero reading means mallinfo2() did not see the allocations (another
  // allocator, such as a sanitizer's), which must not pass.
  ok &= ShapeCheck("omap heap bytes per record <= 1.5x key+value bytes",
                   space.heap_bytes_per_record > 0 &&
                       space.heap_bytes_per_record <= 1.5 * space.kv_bytes_per_record);
  ok &= ShapeCheck("shard checksum >= 4x faster than byte-serial FNV-1a",
                   ec_kernels.checksum.speedup() >= 4.0);
  ok &= ShapeCheck("EC encode >= 4x faster than the byte-loop XOR",
                   ec_kernels.encode.speedup() >= 4.0);
  json.Write();
  return ok ? 0 : 1;
}
