// Local object store: the storage engine inside each OSD.
//
// An object is a bytestream plus a sorted key-value map ("omap") plus
// extended attributes — exactly the native interfaces Ceph exposes to
// object classes (paper §4.2: "reading and writing to a byte stream,
// controlling object snapshots and clones, and accessing a sorted
// key-value database"). Operations are grouped into transactions that
// apply atomically: either every op succeeds or the object set is
// untouched. This transactional composition is what lets object classes
// build semantically rich interfaces (e.g. "atomically update a matrix in
// the bytestream and its index in the key-value database").
//
// Transactions stage per-field deltas (TxnObject) instead of cloning the
// whole object: the bytestream is a COW Buffer alias, the omap / xattr /
// snapshot maps are sparse overlays over the committed object, and commit
// replays just the deltas. A transaction therefore costs O(bytes it
// touches), not O(object size) — the difference between O(1) and O(n)
// per append on a CORFU-style stripe object that only grows.
//
// ApplyTransaction is the only loop that stages a transaction, and ApplyOp
// is the only code that mutates a staged object. A class method (kExec)
// runs inside that loop through a caller-supplied resolver: its ClsContext
// turns each mutation into a primitive Op and applies it with ApplyOp, so
// the primary commits the very object the method staged, and the recorded
// ops are what replicas replay.
#ifndef MALACOLOGY_OSD_OBJECT_STORE_H_
#define MALACOLOGY_OSD_OBJECT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"

namespace mal::osd {

// An object's sorted key-value records, laid out for memory: its omap and
// its extended attributes each live in one. Every record
// lives in one append-only byte arena as <varint key length, varint value
// length, key, value>, and a sorted vector of 4-byte arena offsets orders
// the records by key. A std::map spends a tree node plus a value allocation
// (~190 B of heap) per record; here a record costs its bytes, a two-byte
// header for short keys and values, and one offset. That is what keeps a
// ZLog stripe object (one record per log entry) small.
//
// Lookup is a binary search over the index. Set appends a record and
// inserts its offset; ZLog keys arrive nearly in order, so the insert
// lands at or near the tail (a key past the last one skips the
// search). An overwrite or an erase leaves the old record as dead bytes.
// Once dead bytes exceed live bytes the arena is rewritten in index order,
// so compaction is amortized O(1) per mutation and the arena never holds
// more than twice its live records.
class Omap {
 public:
  // Ordered iteration; dereferences to (key, value) views into the arena,
  // valid until the next mutation.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<std::string_view, std::string_view>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    reference operator*() const { return omap_->RecordAt(*pos_); }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator==(const const_iterator& other) const { return pos_ == other.pos_; }

   private:
    friend class Omap;
    const_iterator(const Omap* omap, std::vector<uint32_t>::const_iterator pos)
        : omap_(omap), pos_(pos) {}

    const Omap* omap_;
    std::vector<uint32_t>::const_iterator pos_;
  };

  size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  const_iterator begin() const { return {this, index_.begin()}; }
  const_iterator end() const { return {this, index_.end()}; }
  // First record whose key is >= `key`.
  const_iterator LowerBound(std::string_view key) const {
    return {this, index_.begin() + static_cast<ptrdiff_t>(LowerIndex(key))};
  }

  // The value view is valid until the next mutation.
  std::optional<std::string_view> Find(std::string_view key) const;
  // Neither view may point into this Omap.
  void Set(std::string_view key, std::string_view value);
  // Returns false if the key was absent.
  bool Erase(std::string_view key);

  // Bytes the arena holds, dead records included.
  size_t arena_bytes() const { return arena_.size(); }

  // Equal ordered contents (the layouts may differ).
  bool operator==(const Omap& other) const;

  // Wire form: exactly the bytes of a std::map<std::string, std::string>
  // with the same records. Decoding takes records in wire order; a key not
  // past the previous one falls back to the sorted insert, and the first
  // copy of a duplicate key wins (as for a std::map), so a malformed payload
  // cannot break the index order.
  template <class Ar>
  void Fields(Ar& ar) {
    if constexpr (Ar::kDecoding) {
      uint64_t n = ar.GetCount();
      for (uint64_t i = 0; i < n && ar.ok(); ++i) {
        std::string key = ar.GetString();
        std::string value = ar.GetString();
        if (!Find(key)) {
          Set(key, value);
        }
      }
    } else {
      ar.PutVarU64(size());
      for (auto [key, value] : *this) {
        ar.PutString(key);
        ar.PutString(value);
      }
    }
  }

 private:
  std::pair<std::string_view, std::string_view> RecordAt(uint32_t offset) const;
  // The key alone, for searches: skips decoding the value length.
  std::string_view KeyAt(uint32_t offset) const;
  size_t RecordBytes(uint32_t offset) const;
  // Index position of the first record whose key is >= `key`.
  size_t LowerIndex(std::string_view key) const;
  uint32_t AppendRecord(std::string_view key, std::string_view value);
  // Marks the record at `offset` dead; compacts once dead > live.
  void Release(uint32_t offset);

  std::string arena_;
  std::vector<uint32_t> index_;  // arena offsets, sorted by key
  size_t dead_ = 0;              // arena bytes of overwritten/erased records
};

struct Object {
  mal::Buffer data;
  Omap omap;
  Omap xattrs;
  // Named point-in-time copies of the bytestream ("controlling object
  // snapshots and clones" is one of the native interfaces of §4.2).
  // A snapshot is a COW alias of the bytestream at creation time: O(1) to
  // take, and later appends to `data` never disturb it.
  std::map<std::string, mal::Buffer> snapshots;
  uint64_t version = 0;  // bumped on every mutating transaction

  template <class Ar>
  void Fields(Ar& ar) { ar(data, omap, xattrs, snapshots, version); }
};

// One primitive operation on an object.
struct Op {
  enum class Type : uint8_t {
    kCreate = 0,      // flags: excl -> kAlreadyExists if present
    kRemove = 1,
    kRead = 2,        // offset, length -> out
    kWrite = 3,       // offset, data
    kWriteFull = 4,   // data (replaces bytestream)
    kAppend = 5,      // data
    kTruncate = 6,    // offset = new size
    kStat = 7,        // -> out: u64 size, u64 version
    kOmapGet = 8,     // key -> out (kNotFound if absent)
    kOmapSet = 9,     // key, value
    kOmapDel = 10,    // key
    kOmapList = 11,   // key = prefix -> out: encoded map
    kXattrGet = 12,   // key -> out
    kXattrSet = 13,   // key, value
    kCmpXattr = 14,   // key, value -> kAborted unless equal (guard op)
    kExec = 15,       // cls_name, method, data = input -> out (handled by OSD)
    kSnapCreate = 16, // key = snapshot name (kAlreadyExists if taken)
    kSnapRead = 17,   // key = snapshot name -> out: snapshot bytes
    kSnapRemove = 18, // key = snapshot name
  };

  Type type = Type::kRead;
  bool excl = false;       // kCreate: fail if object exists
  uint64_t offset = 0;
  uint64_t length = 0;
  mal::Buffer data;
  std::string key;
  std::string value;
  std::string cls_name;    // kExec
  std::string method;      // kExec

  template <class Ar>
  void Fields(Ar& ar) { ar(type, excl, offset, length, data, key, value, cls_name, method); }
};

// True for op types that change an object. A transaction commits (and bumps
// the version) only if one of its primitive ops — class-method effects
// included — is mutating.
bool IsMutating(Op::Type type);

struct OpResult {
  mal::Status status;
  mal::Buffer out;

  template <class Ar>
  void Fields(Ar& ar) { ar(status, out); }
};

// A transaction's staged view of one object: a COW alias of the bytestream
// plus sparse overlays (key -> value, or key -> tombstone) over the
// committed object's maps. Reads merge overlay-over-base; writes touch only
// the overlay, so the committed object is untouched until commit and an
// abort simply drops the TxnObject. `base` must outlive the TxnObject and
// is never mutated through it; pass nullptr for a not-yet-existing object.
class TxnObject {
 public:
  explicit TxnObject(const Object* base);

  bool exists() const { return exists_; }
  uint64_t version() const { return version_; }

  // Materializes an empty object if absent (no-op when it exists).
  void Create();
  // Deletes the object: overlays are cleared and the base stops being
  // visible, so a subsequent Create() starts from scratch.
  void Remove();

  const mal::Buffer& data() const { return data_; }
  mal::Buffer* MutableData() { return &data_; }

  // Merged overlay-over-base lookups. Pointers and views are valid until
  // the next mutation of this TxnObject or of its base.
  std::optional<std::string_view> OmapFind(const std::string& key) const;
  std::optional<std::string_view> XattrFind(const std::string& key) const;
  const mal::Buffer* SnapFind(const std::string& name) const;
  Omap OmapList(const std::string& prefix) const;

  void OmapSet(const std::string& key, std::string value);
  void OmapDel(const std::string& key);
  void XattrSet(const std::string& key, std::string value);
  void SnapSet(const std::string& name, mal::Buffer snap);
  // Returns false if the snapshot does not exist (merged view).
  bool SnapRemove(const std::string& name);

  // Full object with overlays folded in (nullopt if the object does not
  // exist). O(base size); used by commit-on-recreate, the cls scratch
  // harness, and tests — the hot commit path applies deltas in place.
  std::optional<Object> Materialize() const;

  // True while reads still see the committed base object underneath the
  // overlays (i.e. the object was not removed during the transaction).
  bool base_visible() const { return base_visible_ && base_ != nullptr; }

  // Commit support: the sparse overlays (value = staged, nullopt = deleted).
  using StringOverlay = std::map<std::string, std::optional<std::string>>;
  using BufferOverlay = std::map<std::string, std::optional<mal::Buffer>>;
  const StringOverlay& omap_overlay() const { return omap_; }
  const StringOverlay& xattr_overlay() const { return xattrs_; }
  const BufferOverlay& snap_overlay() const { return snaps_; }

 private:
  const Object* base_ = nullptr;
  bool base_visible_ = true;
  bool exists_ = false;
  mal::Buffer data_;       // COW alias of base->data until first mutation
  uint64_t version_ = 0;
  StringOverlay omap_;
  StringOverlay xattrs_;
  BufferOverlay snaps_;
};

// The whole-store interface. Thread-free: the simulated OSD serializes all
// access through its CPU model.
class ObjectStore {
 public:
  // Runs one kExec op's class method against the staged object, appending
  // the primitive ops it applied to `effects`; returns the method's output.
  using ExecResolver = std::function<mal::Result<mal::Buffer>(
      const std::string& oid, const Op& op, TxnObject* staged, std::vector<Op>* effects)>;

  // Executes all ops on `oid` atomically. If any op fails (other than
  // per-op reads reporting kNotFound data — those fail the transaction
  // too), no mutation is applied and the failing status is returned.
  // Per-op results land in `results` (sized to ops) for the caller to
  // forward. kExec ops run through `exec`; without one they fail. When
  // `expanded` is non-null it receives the transaction as primitive ops
  // (each kExec replaced by its effects): what a replica replays.
  mal::Status ApplyTransaction(const std::string& oid, const std::vector<Op>& ops,
                               std::vector<OpResult>* results,
                               const ExecResolver& exec = nullptr,
                               std::vector<Op>* expanded = nullptr);

  bool Exists(const std::string& oid) const { return objects_.count(oid) != 0; }
  mal::Result<const Object*> Get(const std::string& oid) const;

  // Direct object install (recovery path: replica push).
  void Put(const std::string& oid, Object object);
  void Remove(const std::string& oid);

  // Fault injection (chaos bit-rot): XORs one bit of the object's
  // bytestream in place without bumping the version — silent corruption,
  // exactly the failure mode checksum scrubbing exists to catch. Returns
  // false when the object is absent or `byte` is past the end.
  bool FlipBit(const std::string& oid, uint64_t byte, uint32_t bit);

  // Drops every object (chaos permanent loss: the disk is gone).
  void Clear();

  // Sorted oids that start with `prefix` (all of them for an empty one).
  std::vector<std::string> List(std::string_view prefix = {}) const;
  size_t size() const { return objects_.size(); }

  // Maintained incrementally on commit/Put/Remove (it is cheap enough to
  // sample from a perf loop); RecomputeBytesUsed is the O(store) recount
  // that tests assert agreement against.
  uint64_t bytes_used() const { return bytes_used_; }
  uint64_t RecomputeBytesUsed() const;

  // Applies one op against `oid`'s staged object view (errors name the
  // oid). Public and static so class methods (ClsContext) stage their
  // mutations through it. kExec is handled by ApplyTransaction, which has
  // the class runtime.
  static mal::Status ApplyOp(const std::string& oid, const Op& op, TxnObject* object,
                             OpResult* result);

 private:
  // Folds the transaction's deltas into the committed object and bumps its
  // version, keeping bytes_used_ in sync.
  void CommitInPlace(Object* object, const TxnObject& staged);
  // data + omap footprint, the definition bytes_used() has always used.
  static uint64_t Footprint(const Object& object);

  std::map<std::string, Object> objects_;
  uint64_t bytes_used_ = 0;
};

}  // namespace mal::osd

#endif  // MALACOLOGY_OSD_OBJECT_STORE_H_
