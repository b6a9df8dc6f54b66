// Built-in (native C++) object classes shipped with the system, mirroring
// the co-designed interfaces surveyed in the paper's Table 1:
//
//   zlog      — the CORFU storage-device interface (write-once entries,
//               epoch sealing); the critical piece of the ZLog service.
//   lock      — cooperative object lock via xattrs ("Grants clients
//               exclusive access").
//   log       — append-only records in the omap ("Logging").
//   refcount  — reference counting with delete-on-zero ("Other").
//   checksum  — compute + cache a checksum of an extent (the paper's §2
//               example of a co-designed interface, "Management").
//   kvindex   — atomically update a record in the bytestream and its index
//               in the key-value database (the paper's §4.2 example,
//               "Metadata").
//
// Wire formats of inputs/outputs are documented per method below.
#ifndef MALACOLOGY_CLS_BUILTIN_H_
#define MALACOLOGY_CLS_BUILTIN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/cls/registry.h"

namespace mal::cls {

// Registers all built-in classes into `registry`.
void RegisterBuiltinClasses(ClassRegistry* registry);

// ---- cls zlog: CORFU storage interface helpers ------------------------------
// Entry states stored per log position.
enum class ZlogEntryState : uint8_t { kWritten = 1, kFilled = 2, kTrimmed = 3 };

// The output of a read: the position's state and, if written, its bytes.
// The read method puts the bytes straight from the stored record (a
// ZlogEntryView, encode only); the client reads them as a ZlogEntry whose
// data is a slice of the reply.
template <typename Bytes>
struct BasicZlogEntry {
  ZlogEntryState state = ZlogEntryState::kWritten;
  Bytes data;

  template <class Ar>
  void Fields(Ar& ar) { ar(state, data); }
};
using ZlogEntry = BasicZlogEntry<mal::Buffer>;
using ZlogEntryView = BasicZlogEntry<std::string_view>;

// Input encodings (all little-endian via mal::Encoder):
//   seal:        u64 epoch                 -> out: u64 max_pos (log tail)
//   write:       u64 epoch, u64 pos, buf   -> out: empty
//   write_batch: u64 epoch, varuint n,
//                n x (u64 pos, buf)        -> out: varuint n, n x u32 code
//   read:        u64 epoch, u64 pos        -> out: u8 state, buf data
//   fill:        u64 epoch, u64 pos        -> out: empty
//   trim:        u64 epoch, u64 pos        -> out: empty
//   max_pos:     u64 epoch                 -> out: u64 max_pos
// Any request with epoch < stored epoch fails with kStaleEpoch.
//
// write_batch applies every entry of a batched append in ONE transaction
// on this object. Write-once is preserved per entry: positions already
// occupied report kReadOnly in their result slot while the rest commit, so
// one collision never invalidates the whole stripe transaction (no
// head-of-line blocking for the batched append pipeline). A stale epoch
// still rejects the entire op — sealing must fence every entry at once.
struct ZlogOps {
  // One entry of a batched write: a reserved position and its payload.
  struct BatchEntry {
    uint64_t pos = 0;
    mal::Buffer data;
  };

  static mal::Buffer MakeSeal(uint64_t epoch);
  static mal::Buffer MakeWrite(uint64_t epoch, uint64_t pos, const mal::Buffer& data);
  static mal::Buffer MakeWriteBatch(uint64_t epoch, const std::vector<BatchEntry>& entries);
  static mal::Buffer MakeRead(uint64_t epoch, uint64_t pos);
  static mal::Buffer MakeFill(uint64_t epoch, uint64_t pos);
  static mal::Buffer MakeTrim(uint64_t epoch, uint64_t pos);
  static mal::Buffer MakeMaxPos(uint64_t epoch);

  // Object xattr holding the epoch the object is sealed at (absent = 0).
  static constexpr char kEpochXattr[] = "zlog.epoch";

  // Decodes a write_batch output into per-entry codes (entry order).
  static mal::Result<std::vector<mal::Code>> ParseWriteBatchResult(const mal::Buffer& out);

  // Key of a position inside the log object's omap: "e" plus 11
  // order-preserving base-64 digits. Keys sort like positions, and at 12
  // bytes they fit the short-string buffer (no heap allocation).
  static std::string EntryKey(uint64_t pos);
};

}  // namespace mal::cls

#endif  // MALACOLOGY_CLS_BUILTIN_H_
