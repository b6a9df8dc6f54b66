#include "src/cls/builtin.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/osd/placement.h"

namespace mal::cls {
namespace {

constexpr char kZlogMaxPosXattr[] = "zlog.max_pos";
constexpr char kLockOwnerXattr[] = "lock.owner";
constexpr char kRefcountXattr[] = "refcount";

// -- small helpers -------------------------------------------------------------

uint64_t ParseU64(const std::string& s, uint64_t fallback = 0) {
  if (s.empty()) {
    return fallback;
  }
  return std::strtoull(s.c_str(), nullptr, 10);
}

std::string U64ToString(uint64_t v) { return std::to_string(v); }

mal::Buffer U64Out(uint64_t v) { return mal::Encode(v); }

// The u64 in xattr `key`, or 0 when the object or the xattr is absent.
uint64_t XattrU64(ClsContext& ctx, const char* key) {
  if (!ctx.Exists()) {
    return 0;
  }
  auto v = ctx.XattrGet(key);
  return v.ok() ? ParseU64(v.value()) : 0;
}

// Reads the stored epoch (0 if never sealed) and rejects stale requests.
mal::Result<uint64_t> CheckEpoch(ClsContext& ctx, uint64_t request_epoch) {
  uint64_t stored = XattrU64(ctx, ZlogOps::kEpochXattr);
  if (request_epoch < stored) {
    return mal::Status::StaleEpoch("request epoch " + U64ToString(request_epoch) +
                                   " < sealed epoch " + U64ToString(stored));
  }
  return stored;
}

uint64_t MaxPos(ClsContext& ctx) {
  return XattrU64(ctx, kZlogMaxPosXattr);
}

// -- cls zlog ------------------------------------------------------------------

mal::Result<mal::Buffer> ZlogSeal(ClsContext& ctx, const mal::Buffer& input) {
  mal::Decoder dec(input);
  uint64_t epoch = dec.GetU64();
  if (!dec.ok()) {
    return mal::Status::InvalidArgument("bad seal input");
  }
  uint64_t stored = XattrU64(ctx, ZlogOps::kEpochXattr);
  if (epoch <= stored) {
    return mal::Status::StaleEpoch("seal epoch " + U64ToString(epoch) +
                                   " <= sealed epoch " + U64ToString(stored));
  }
  mal::Status s = ctx.Create(false);
  if (!s.ok()) {
    return s;
  }
  s = ctx.XattrSet(ZlogOps::kEpochXattr, U64ToString(epoch));
  if (!s.ok()) {
    return s;
  }
  return U64Out(MaxPos(ctx));
}

mal::Result<mal::Buffer> ZlogWrite(ClsContext& ctx, const mal::Buffer& input) {
  mal::Decoder dec(input);
  uint64_t epoch = dec.GetU64();
  uint64_t pos = dec.GetU64();
  mal::Buffer data = dec.GetBuffer();
  if (!dec.ok()) {
    return mal::Status::InvalidArgument("bad write input");
  }
  auto stored = CheckEpoch(ctx, epoch);
  if (!stored.ok()) {
    return stored.status();
  }
  mal::Status s = ctx.Create(false);
  if (!s.ok()) {
    return s;
  }
  std::string key = ZlogOps::EntryKey(pos);
  if (ctx.OmapGet(key).ok()) {
    return mal::Status::ReadOnly("position " + U64ToString(pos) + " already written");
  }
  std::string record;
  record.push_back(static_cast<char>(ZlogEntryState::kWritten));
  record.append(data.data(), data.size());
  s = ctx.OmapSet(key, record);
  if (!s.ok()) {
    return s;
  }
  if (pos + 1 > MaxPos(ctx)) {
    s = ctx.XattrSet(kZlogMaxPosXattr, U64ToString(pos + 1));
    if (!s.ok()) {
      return s;
    }
  }
  return mal::Buffer();
}

mal::Result<mal::Buffer> ZlogWriteBatch(ClsContext& ctx, const mal::Buffer& input) {
  mal::Decoder dec(input);
  uint64_t epoch = dec.GetU64();
  uint64_t count = dec.GetVarU64();
  if (!dec.ok()) {
    return mal::Status::InvalidArgument("bad write_batch input");
  }
  auto stored = CheckEpoch(ctx, epoch);
  if (!stored.ok()) {
    return stored.status();
  }
  mal::Status s = ctx.Create(false);
  if (!s.ok()) {
    return s;
  }
  mal::Buffer out;
  mal::Encoder enc(&out);
  enc.PutVarU64(count);
  uint64_t max_pos = MaxPos(ctx);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t pos = dec.GetU64();
    mal::Buffer data = dec.GetBuffer();
    if (!dec.ok()) {
      return mal::Status::InvalidArgument("truncated write_batch entry");
    }
    std::string key = ZlogOps::EntryKey(pos);
    if (ctx.OmapGet(key).ok()) {
      // Write-once collision invalidates only this slot; the rest of the
      // batch commits (per-entry retry happens client-side).
      enc.PutU32(static_cast<uint32_t>(mal::Code::kReadOnly));
      continue;
    }
    std::string record;
    record.reserve(1 + data.size());
    record.push_back(static_cast<char>(ZlogEntryState::kWritten));
    record.append(data.data(), data.size());
    s = ctx.OmapSet(key, record);
    if (!s.ok()) {
      return s;
    }
    max_pos = std::max(max_pos, pos + 1);
    enc.PutU32(static_cast<uint32_t>(mal::Code::kOk));
  }
  if (max_pos > MaxPos(ctx)) {
    s = ctx.XattrSet(kZlogMaxPosXattr, U64ToString(max_pos));
    if (!s.ok()) {
      return s;
    }
  }
  return out;
}

mal::Result<mal::Buffer> ZlogRead(ClsContext& ctx, const mal::Buffer& input) {
  mal::Decoder dec(input);
  uint64_t epoch = dec.GetU64();
  uint64_t pos = dec.GetU64();
  if (!dec.ok()) {
    return mal::Status::InvalidArgument("bad read input");
  }
  auto stored = CheckEpoch(ctx, epoch);
  if (!stored.ok()) {
    return stored.status();
  }
  auto record = ctx.OmapGet(ZlogOps::EntryKey(pos));
  if (!record.ok()) {
    return mal::Status::NotWritten("position " + U64ToString(pos));
  }
  std::string_view stored_record = record.value();
  return mal::Encode(
      ZlogEntryView{static_cast<ZlogEntryState>(stored_record[0]), stored_record.substr(1)});
}

mal::Result<mal::Buffer> ZlogFill(ClsContext& ctx, const mal::Buffer& input) {
  mal::Decoder dec(input);
  uint64_t epoch = dec.GetU64();
  uint64_t pos = dec.GetU64();
  if (!dec.ok()) {
    return mal::Status::InvalidArgument("bad fill input");
  }
  auto stored = CheckEpoch(ctx, epoch);
  if (!stored.ok()) {
    return stored.status();
  }
  mal::Status s = ctx.Create(false);
  if (!s.ok()) {
    return s;
  }
  std::string key = ZlogOps::EntryKey(pos);
  auto existing = ctx.OmapGet(key);
  if (existing.ok()) {
    auto state = static_cast<ZlogEntryState>(existing.value()[0]);
    if (state == ZlogEntryState::kWritten) {
      return mal::Status::ReadOnly("cannot fill written position " + U64ToString(pos));
    }
    return mal::Buffer();  // idempotent
  }
  std::string record(1, static_cast<char>(ZlogEntryState::kFilled));
  s = ctx.OmapSet(key, record);
  if (!s.ok()) {
    return s;
  }
  if (pos + 1 > MaxPos(ctx)) {
    s = ctx.XattrSet(kZlogMaxPosXattr, U64ToString(pos + 1));
    if (!s.ok()) {
      return s;
    }
  }
  return mal::Buffer();
}

mal::Result<mal::Buffer> ZlogTrim(ClsContext& ctx, const mal::Buffer& input) {
  mal::Decoder dec(input);
  uint64_t epoch = dec.GetU64();
  uint64_t pos = dec.GetU64();
  if (!dec.ok()) {
    return mal::Status::InvalidArgument("bad trim input");
  }
  auto stored = CheckEpoch(ctx, epoch);
  if (!stored.ok()) {
    return stored.status();
  }
  mal::Status s = ctx.Create(false);
  if (!s.ok()) {
    return s;
  }
  // Trim is allowed on any position, written or not.
  std::string record(1, static_cast<char>(ZlogEntryState::kTrimmed));
  s = ctx.OmapSet(ZlogOps::EntryKey(pos), record);
  if (!s.ok()) {
    return s;
  }
  if (pos + 1 > MaxPos(ctx)) {
    s = ctx.XattrSet(kZlogMaxPosXattr, U64ToString(pos + 1));
    if (!s.ok()) {
      return s;
    }
  }
  return mal::Buffer();
}

mal::Result<mal::Buffer> ZlogMaxPos(ClsContext& ctx, const mal::Buffer& input) {
  mal::Decoder dec(input);
  uint64_t epoch = dec.GetU64();
  if (!dec.ok()) {
    return mal::Status::InvalidArgument("bad max_pos input");
  }
  auto stored = CheckEpoch(ctx, epoch);
  if (!stored.ok()) {
    return stored.status();
  }
  return U64Out(MaxPos(ctx));
}

// -- cls lock ------------------------------------------------------------------

mal::Result<mal::Buffer> LockAcquire(ClsContext& ctx, const mal::Buffer& input) {
  std::string owner = input.ToString();
  if (owner.empty()) {
    return mal::Status::InvalidArgument("lock owner required");
  }
  auto current = ctx.Exists() ? ctx.XattrGet(kLockOwnerXattr)
                              : mal::Result<std::string>(mal::Status::NotFound());
  if (current.ok() && !current.value().empty() && current.value() != owner) {
    return mal::Status::PermissionDenied("locked by " + current.value());
  }
  mal::Status s = ctx.Create(false);
  if (!s.ok()) {
    return s;
  }
  s = ctx.XattrSet(kLockOwnerXattr, owner);
  if (!s.ok()) {
    return s;
  }
  return mal::Buffer();
}

mal::Result<mal::Buffer> LockRelease(ClsContext& ctx, const mal::Buffer& input) {
  std::string owner = input.ToString();
  auto current = ctx.XattrGet(kLockOwnerXattr);
  if (!current.ok() || current.value().empty()) {
    return mal::Status::NotFound("not locked");
  }
  if (current.value() != owner) {
    return mal::Status::PermissionDenied("locked by " + current.value());
  }
  mal::Status s = ctx.XattrSet(kLockOwnerXattr, "");
  if (!s.ok()) {
    return s;
  }
  return mal::Buffer();
}

mal::Result<mal::Buffer> LockInfo(ClsContext& ctx, const mal::Buffer&) {
  auto current = ctx.Exists() ? ctx.XattrGet(kLockOwnerXattr)
                              : mal::Result<std::string>(mal::Status::NotFound());
  return mal::Buffer::FromString(current.ok() ? current.value() : "");
}

// -- cls log (append-only records) ----------------------------------------------

mal::Result<mal::Buffer> LogAdd(ClsContext& ctx, const mal::Buffer& input) {
  mal::Status s = ctx.Create(false);
  if (!s.ok()) {
    return s;
  }
  uint64_t seq = 0;
  auto head = ctx.XattrGet("log.seq");
  if (head.ok()) {
    seq = ParseU64(head.value());
  }
  char key[32];
  std::snprintf(key, sizeof(key), "rec.%020" PRIu64, seq);
  s = ctx.OmapSet(key, input.ToString());
  if (!s.ok()) {
    return s;
  }
  s = ctx.XattrSet("log.seq", U64ToString(seq + 1));
  if (!s.ok()) {
    return s;
  }
  return U64Out(seq);
}

mal::Result<mal::Buffer> LogList(ClsContext& ctx, const mal::Buffer&) {
  auto entries = ctx.OmapList("rec.");
  if (!entries.ok()) {
    return entries.status();
  }
  return mal::Encode(entries.value());
}

// -- cls refcount -----------------------------------------------------------------

mal::Result<mal::Buffer> RefcountInc(ClsContext& ctx, const mal::Buffer&) {
  mal::Status s = ctx.Create(false);
  if (!s.ok()) {
    return s;
  }
  uint64_t count = 0;
  auto v = ctx.XattrGet(kRefcountXattr);
  if (v.ok()) {
    count = ParseU64(v.value());
  }
  s = ctx.XattrSet(kRefcountXattr, U64ToString(count + 1));
  if (!s.ok()) {
    return s;
  }
  return U64Out(count + 1);
}

mal::Result<mal::Buffer> RefcountDec(ClsContext& ctx, const mal::Buffer&) {
  auto v = ctx.XattrGet(kRefcountXattr);
  if (!v.ok()) {
    return mal::Status::NotFound("no refcount");
  }
  uint64_t count = ParseU64(v.value());
  if (count == 0) {
    return mal::Status::OutOfRange("refcount already zero");
  }
  mal::Status s = ctx.XattrSet(kRefcountXattr, U64ToString(count - 1));
  if (!s.ok()) {
    return s;
  }
  return U64Out(count - 1);
}

mal::Result<mal::Buffer> RefcountGet(ClsContext& ctx, const mal::Buffer&) {
  uint64_t count = 0;
  if (ctx.Exists()) {
    auto v = ctx.XattrGet(kRefcountXattr);
    if (v.ok()) {
      count = ParseU64(v.value());
    }
  }
  return U64Out(count);
}

// -- cls checksum -------------------------------------------------------------------
// The §2 example: "remotely computing and caching the checksum of an object
// extent". Input: u64 offset, u64 length. Output: u64 checksum. The result
// is cached in an xattr keyed by extent and version.

mal::Result<mal::Buffer> ChecksumCompute(ClsContext& ctx, const mal::Buffer& input) {
  mal::Decoder dec(input);
  uint64_t offset = dec.GetU64();
  uint64_t length = dec.GetU64();
  if (!dec.ok()) {
    return mal::Status::InvalidArgument("bad checksum input");
  }
  auto data = ctx.Read(offset, length);
  if (!data.ok()) {
    return data.status();
  }
  char cache_key[64];
  std::snprintf(cache_key, sizeof(cache_key), "cksum.%" PRIu64 ".%" PRIu64, offset, length);
  uint64_t h = osd::StableHash(data.value().View());  // FNV-1a over the extent
  mal::Status s = ctx.XattrSet(cache_key, U64ToString(h));
  if (!s.ok()) {
    return s;
  }
  return U64Out(h);
}

// -- cls kvindex --------------------------------------------------------------------
// The §4.2 example: "an interface that atomically updates a matrix stored
// in the bytestream and an index of the matrix stored in the key-value
// database". put appends the record to the bytestream and indexes
// (key -> offset:length) in the omap; get resolves through the index.

mal::Result<mal::Buffer> KvIndexPut(ClsContext& ctx, const mal::Buffer& input) {
  mal::Decoder dec(input);
  std::string key = dec.GetString();
  std::string value = dec.GetString();
  if (!dec.ok() || key.empty()) {
    return mal::Status::InvalidArgument("bad kvindex.put input");
  }
  mal::Status s = ctx.Create(false);
  if (!s.ok()) {
    return s;
  }
  auto size = ctx.Size();
  if (!size.ok()) {
    return size.status();
  }
  uint64_t offset = size.value();
  s = ctx.Append(mal::Buffer::FromString(value));
  if (!s.ok()) {
    return s;
  }
  s = ctx.OmapSet("idx." + key, U64ToString(offset) + ":" + U64ToString(value.size()));
  if (!s.ok()) {
    return s;
  }
  return mal::Buffer();
}

mal::Result<mal::Buffer> KvIndexGet(ClsContext& ctx, const mal::Buffer& input) {
  std::string key = input.ToString();
  auto entry = ctx.OmapGet("idx." + key);
  if (!entry.ok()) {
    return entry.status();
  }
  size_t colon = entry.value().find(':');
  if (colon == std::string::npos) {
    return mal::Status::Corruption("bad index entry");
  }
  uint64_t offset = ParseU64(entry.value().substr(0, colon));
  uint64_t length = ParseU64(entry.value().substr(colon + 1));
  auto data = ctx.Read(offset, length);
  if (!data.ok()) {
    return data.status();
  }
  return data.value();
}

// -- cls ec -------------------------------------------------------------------
// Epoch guard for erasure-coded shard objects: the same seal protocol zlog
// stripe objects use, applied per shard so a client holding a stale pool
// epoch cannot write a shard generation that scrub would then have to
// arbitrate. check_epoch rides as a guard op inside each shard write
// transaction; seal bumps the stored epoch (and creates the shard if it
// does not exist yet, so sealing an unwritten shard still fences it).
// check_stamp is the scrub repair's guard: it passes only while the shard's
// ec.stamp still equals the one the repair's gather saw (0: the shard is
// absent or unstamped, as one only a seal created is), so a repair fills
// holes but never overwrites a write that landed after its gather.

constexpr char kEcEpochXattr[] = "ec.epoch";
constexpr char kEcStampXattr[] = "ec.stamp";

mal::Result<mal::Buffer> EcCheckEpoch(ClsContext& ctx, const mal::Buffer& input) {
  mal::Decoder dec(input);
  uint64_t epoch = dec.GetU64();
  if (!dec.ok()) {
    return mal::Status::InvalidArgument("bad ec.check_epoch input");
  }
  uint64_t stored = XattrU64(ctx, kEcEpochXattr);
  if (epoch < stored) {
    return mal::Status::StaleEpoch("shard epoch " + U64ToString(epoch) +
                                   " < sealed epoch " + U64ToString(stored));
  }
  return mal::Buffer();
}

mal::Result<mal::Buffer> EcCheckStamp(ClsContext& ctx, const mal::Buffer& input) {
  mal::Decoder dec(input);
  uint64_t seen = dec.GetU64();
  if (!dec.ok()) {
    return mal::Status::InvalidArgument("bad ec.check_stamp input");
  }
  uint64_t stored = XattrU64(ctx, kEcStampXattr);
  if (stored != seen) {
    return mal::Status::Aborted("shard stamp " + U64ToString(stored) + " != seen " +
                                U64ToString(seen));
  }
  return mal::Buffer();
}

mal::Result<mal::Buffer> EcSeal(ClsContext& ctx, const mal::Buffer& input) {
  mal::Decoder dec(input);
  uint64_t epoch = dec.GetU64();
  if (!dec.ok()) {
    return mal::Status::InvalidArgument("bad ec.seal input");
  }
  uint64_t stored = XattrU64(ctx, kEcEpochXattr);
  if (epoch <= stored) {
    return mal::Status::StaleEpoch("seal epoch " + U64ToString(epoch) +
                                   " <= sealed epoch " + U64ToString(stored));
  }
  mal::Status s = ctx.Create(false);
  if (!s.ok()) {
    return s;
  }
  s = ctx.XattrSet(kEcEpochXattr, U64ToString(epoch));
  if (!s.ok()) {
    return s;
  }
  return mal::Buffer();
}

}  // namespace

// -- ZlogOps input builders -----------------------------------------------------

mal::Buffer ZlogOps::MakeSeal(uint64_t epoch) { return U64Out(epoch); }

mal::Buffer ZlogOps::MakeWrite(uint64_t epoch, uint64_t pos, const mal::Buffer& data) {
  return mal::Encode([&](mal::Encoder* enc) {
    enc->PutU64(epoch);
    enc->PutU64(pos);
    enc->PutBuffer(data);
  });
}

mal::Buffer ZlogOps::MakeWriteBatch(uint64_t epoch, const std::vector<BatchEntry>& entries) {
  return mal::Encode([&](mal::Encoder* enc) {
    enc->PutU64(epoch);
    enc->PutVarU64(entries.size());
    for (const BatchEntry& entry : entries) {
      enc->PutU64(entry.pos);
      enc->PutBuffer(entry.data);
    }
  });
}

mal::Result<std::vector<mal::Code>> ZlogOps::ParseWriteBatchResult(const mal::Buffer& out) {
  return mal::Decode<std::vector<mal::Code>>(out);
}

mal::Buffer ZlogOps::MakeRead(uint64_t epoch, uint64_t pos) {
  return mal::Encode([=](mal::Encoder* enc) {
    enc->PutU64(epoch);
    enc->PutU64(pos);
  });
}

mal::Buffer ZlogOps::MakeFill(uint64_t epoch, uint64_t pos) { return MakeRead(epoch, pos); }
mal::Buffer ZlogOps::MakeTrim(uint64_t epoch, uint64_t pos) { return MakeRead(epoch, pos); }
mal::Buffer ZlogOps::MakeMaxPos(uint64_t epoch) { return MakeSeal(epoch); }

std::string ZlogOps::EntryKey(uint64_t pos) {
  // Digits in ASCII order, so byte-wise key order is position order.
  static constexpr char kDigits[] =
      "-0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz";
  static_assert(sizeof(kDigits) == 65);
  std::string key(12, 'e');  // 'e' + 11 digits of 6 bits: 66 >= 64 bits
  for (size_t i = key.size() - 1; i > 0; --i) {
    key[i] = kDigits[pos & 63];
    pos >>= 6;
  }
  return key;
}

void RegisterBuiltinClasses(ClassRegistry* registry) {
  registry->RegisterNative("zlog", "seal", Category::kLogging, ZlogSeal);
  registry->RegisterNative("zlog", "write", Category::kLogging, ZlogWrite);
  registry->RegisterNative("zlog", "write_batch", Category::kLogging, ZlogWriteBatch);
  registry->RegisterNative("zlog", "read", Category::kLogging, ZlogRead);
  registry->RegisterNative("zlog", "fill", Category::kLogging, ZlogFill);
  registry->RegisterNative("zlog", "trim", Category::kLogging, ZlogTrim);
  registry->RegisterNative("zlog", "max_pos", Category::kLogging, ZlogMaxPos);

  registry->RegisterNative("lock", "acquire", Category::kLocking, LockAcquire);
  registry->RegisterNative("lock", "release", Category::kLocking, LockRelease);
  registry->RegisterNative("lock", "info", Category::kLocking, LockInfo);

  registry->RegisterNative("log", "add", Category::kLogging, LogAdd);
  registry->RegisterNative("log", "list", Category::kLogging, LogList);

  registry->RegisterNative("refcount", "inc", Category::kOther, RefcountInc);
  registry->RegisterNative("refcount", "dec", Category::kOther, RefcountDec);
  registry->RegisterNative("refcount", "get", Category::kOther, RefcountGet);

  registry->RegisterNative("checksum", "compute", Category::kManagement, ChecksumCompute);

  registry->RegisterNative("kvindex", "put", Category::kMetadata, KvIndexPut);
  registry->RegisterNative("kvindex", "get", Category::kMetadata, KvIndexGet);

  registry->RegisterNative("ec", "check_epoch", Category::kManagement, EcCheckEpoch);
  registry->RegisterNative("ec", "check_stamp", Category::kManagement, EcCheckStamp);
  registry->RegisterNative("ec", "seal", Category::kManagement, EcSeal);
}

}  // namespace mal::cls
