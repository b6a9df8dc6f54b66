#include "src/osd/object_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace mal::osd {

namespace {

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Reads a varint the arena itself wrote, so no bounds check.
uint64_t GetVarint(const char** p) {
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    auto byte = static_cast<uint8_t>(*(*p)++);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (byte < 0x80) {
      return v;
    }
  }
}

}  // namespace

std::pair<std::string_view, std::string_view> Omap::RecordAt(uint32_t offset) const {
  const char* p = arena_.data() + offset;
  uint64_t key_len = GetVarint(&p);
  uint64_t value_len = GetVarint(&p);
  return {std::string_view(p, key_len), std::string_view(p + key_len, value_len)};
}

size_t Omap::RecordBytes(uint32_t offset) const {
  auto [key, value] = RecordAt(offset);
  return static_cast<size_t>(value.data() + value.size() - (arena_.data() + offset));
}

std::string_view Omap::KeyAt(uint32_t offset) const {
  const char* p = arena_.data() + offset;
  uint64_t key_len = GetVarint(&p);
  while (static_cast<uint8_t>(*p++) >= 0x80) {
    // skip the value length
  }
  return {p, key_len};
}

size_t Omap::LowerIndex(std::string_view key) const {
  if (index_.empty() || KeyAt(index_.back()) < key) {
    return index_.size();  // past the last key: the append case
  }
  auto before = [this](uint32_t at, std::string_view k) { return KeyAt(at) < k; };
  auto it = std::lower_bound(index_.begin(), index_.end(), key, before);
  return static_cast<size_t>(it - index_.begin());
}

uint32_t Omap::AppendRecord(std::string_view key, std::string_view value) {
  size_t offset = arena_.size();
  // Compaction keeps the arena within 2x its live records, so this needs
  // a single object's omap to hold about 2 GiB.
  if (offset + key.size() + value.size() + 20 > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr, "mal::osd::Omap: arena past 4 GiB\n");
    std::abort();
  }
  PutVarint(&arena_, key.size());
  PutVarint(&arena_, value.size());
  arena_.append(key);
  arena_.append(value);
  return static_cast<uint32_t>(offset);
}

void Omap::Release(uint32_t offset) {
  dead_ += RecordBytes(offset);
  if (dead_ <= arena_.size() - dead_) {
    return;
  }
  // Rewrite the live records in index order; the index keeps its order.
  std::string packed;
  packed.reserve(arena_.size() - dead_);
  for (uint32_t& at : index_) {
    size_t bytes = RecordBytes(at);
    size_t moved = packed.size();
    packed.append(arena_, at, bytes);
    at = static_cast<uint32_t>(moved);
  }
  arena_.swap(packed);
  dead_ = 0;
  if (index_.capacity() > 2 * index_.size()) {
    index_.shrink_to_fit();
  }
}

std::optional<std::string_view> Omap::Find(std::string_view key) const {
  size_t i = LowerIndex(key);
  if (i == index_.size()) {
    return std::nullopt;
  }
  auto [k, v] = RecordAt(index_[i]);
  if (k != key) {
    return std::nullopt;
  }
  return v;
}

void Omap::Set(std::string_view key, std::string_view value) {
  size_t i = LowerIndex(key);
  if (i < index_.size() && KeyAt(index_[i]) == key) {
    uint32_t old = index_[i];
    index_[i] = AppendRecord(key, value);
    Release(old);
    return;
  }
  index_.insert(index_.begin() + static_cast<ptrdiff_t>(i), AppendRecord(key, value));
}

bool Omap::Erase(std::string_view key) {
  size_t i = LowerIndex(key);
  if (i == index_.size() || KeyAt(index_[i]) != key) {
    return false;
  }
  uint32_t offset = index_[i];
  index_.erase(index_.begin() + static_cast<ptrdiff_t>(i));
  Release(offset);
  return true;
}

bool Omap::operator==(const Omap& other) const {
  return size() == other.size() && std::equal(begin(), end(), other.begin());
}

bool IsMutating(Op::Type type) {
  switch (type) {
    case Op::Type::kCreate:
    case Op::Type::kRemove:
    case Op::Type::kWrite:
    case Op::Type::kWriteFull:
    case Op::Type::kAppend:
    case Op::Type::kTruncate:
    case Op::Type::kOmapSet:
    case Op::Type::kOmapDel:
    case Op::Type::kXattrSet:
    case Op::Type::kSnapCreate:
    case Op::Type::kSnapRemove:
      return true;
    default:
      return false;
  }
}

TxnObject::TxnObject(const Object* base) : base_(base) {
  if (base_ != nullptr) {
    exists_ = true;
    data_ = base_->data;  // O(1) COW alias; writes detach privately
    version_ = base_->version;
  }
}

void TxnObject::Create() {
  if (!exists_) {
    exists_ = true;
  }
}

void TxnObject::Remove() {
  exists_ = false;
  base_visible_ = false;
  data_.clear();
  version_ = 0;
  omap_.clear();
  xattrs_.clear();
  snaps_.clear();
}

namespace {

// Overlay-over-base lookup shared by the omap and the xattrs.
std::optional<std::string_view> FindStaged(const TxnObject::StringOverlay& overlay,
                                           const Omap* base, const std::string& key) {
  if (auto it = overlay.find(key); it != overlay.end()) {
    if (!it->second) {
      return std::nullopt;
    }
    return std::string_view(*it->second);
  }
  return base != nullptr ? base->Find(key) : std::nullopt;
}

// Folds a staged overlay into committed records.
void FoldOverlay(const TxnObject::StringOverlay& overlay, Omap* records) {
  for (const auto& [k, v] : overlay) {
    if (v) {
      records->Set(k, *v);
    } else {
      records->Erase(k);
    }
  }
}

}  // namespace

std::optional<std::string_view> TxnObject::OmapFind(const std::string& key) const {
  return FindStaged(omap_, base_visible() ? &base_->omap : nullptr, key);
}

std::optional<std::string_view> TxnObject::XattrFind(const std::string& key) const {
  return FindStaged(xattrs_, base_visible() ? &base_->xattrs : nullptr, key);
}

const mal::Buffer* TxnObject::SnapFind(const std::string& name) const {
  if (auto it = snaps_.find(name); it != snaps_.end()) {
    return it->second ? &*it->second : nullptr;
  }
  if (base_visible()) {
    if (auto it = base_->snapshots.find(name); it != base_->snapshots.end()) {
      return &it->second;
    }
  }
  return nullptr;
}

Omap TxnObject::OmapList(const std::string& prefix) const {
  Omap matched;
  if (base_visible()) {
    // Keys sharing a prefix are contiguous in a sorted map.
    for (auto it = base_->omap.LowerBound(prefix); it != base_->omap.end(); ++it) {
      auto [key, value] = *it;
      if (!key.starts_with(prefix)) {
        break;
      }
      matched.Set(key, value);
    }
  }
  for (auto it = omap_.lower_bound(prefix); it != omap_.end(); ++it) {
    if (it->first.rfind(prefix, 0) != 0) {
      break;
    }
    if (it->second) {
      matched.Set(it->first, *it->second);
    } else {
      matched.Erase(it->first);
    }
  }
  return matched;
}

void TxnObject::OmapSet(const std::string& key, std::string value) {
  omap_[key] = std::move(value);
}

void TxnObject::OmapDel(const std::string& key) { omap_[key] = std::nullopt; }

void TxnObject::XattrSet(const std::string& key, std::string value) {
  xattrs_[key] = std::move(value);
}

void TxnObject::SnapSet(const std::string& name, mal::Buffer snap) {
  snaps_[name] = std::move(snap);
}

bool TxnObject::SnapRemove(const std::string& name) {
  if (SnapFind(name) == nullptr) {
    return false;
  }
  snaps_[name] = std::nullopt;
  return true;
}

std::optional<Object> TxnObject::Materialize() const {
  if (!exists_) {
    return std::nullopt;
  }
  Object out;
  out.data = data_;
  out.version = version_;
  if (base_visible()) {
    out.omap = base_->omap;
    out.xattrs = base_->xattrs;
    out.snapshots = base_->snapshots;
  }
  FoldOverlay(omap_, &out.omap);
  FoldOverlay(xattrs_, &out.xattrs);
  for (const auto& [k, v] : snaps_) {
    if (v) {
      out.snapshots[k] = *v;
    } else {
      out.snapshots.erase(k);
    }
  }
  return out;
}

mal::Result<const Object*> ObjectStore::Get(const std::string& oid) const {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return mal::Status::NotFound("object " + oid);
  }
  return &it->second;
}

void ObjectStore::Put(const std::string& oid, Object object) {
  auto it = objects_.find(oid);
  if (it != objects_.end()) {
    bytes_used_ -= Footprint(it->second);
  }
  bytes_used_ += Footprint(object);
  objects_[oid] = std::move(object);
}

void ObjectStore::Remove(const std::string& oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return;
  }
  bytes_used_ -= Footprint(it->second);
  objects_.erase(it);
}

bool ObjectStore::FlipBit(const std::string& oid, uint64_t byte, uint32_t bit) {
  auto it = objects_.find(oid);
  if (it == objects_.end() || byte >= it->second.data.size()) {
    return false;
  }
  char c = it->second.data.data()[byte];
  c = static_cast<char>(c ^ (1u << (bit % 8)));
  it->second.data.Write(byte, &c, 1);
  return true;
}

void ObjectStore::Clear() {
  objects_.clear();
  bytes_used_ = 0;
}

std::vector<std::string> ObjectStore::List(std::string_view prefix) const {
  std::vector<std::string> names;
  for (auto it = objects_.lower_bound(std::string(prefix));
       it != objects_.end() && it->first.starts_with(prefix); ++it) {
    names.push_back(it->first);
  }
  return names;
}

uint64_t ObjectStore::Footprint(const Object& object) {
  uint64_t total = object.data.size();
  for (const auto& [k, v] : object.omap) {
    total += k.size() + v.size();
  }
  return total;
}

uint64_t ObjectStore::RecomputeBytesUsed() const {
  uint64_t total = 0;
  for (const auto& [oid, object] : objects_) {
    total += Footprint(object);
  }
  return total;
}

void ObjectStore::CommitInPlace(Object* object, const TxnObject& staged) {
  bytes_used_ += staged.data().size();
  bytes_used_ -= object->data.size();
  object->data = staged.data();  // O(1): COW assignment
  for (const auto& [k, v] : staged.omap_overlay()) {
    if (std::optional<std::string_view> old = object->omap.Find(k)) {
      bytes_used_ -= k.size() + old->size();
    }
    if (v) {
      bytes_used_ += k.size() + v->size();
      object->omap.Set(k, *v);
    } else {
      object->omap.Erase(k);
    }
  }
  FoldOverlay(staged.xattr_overlay(), &object->xattrs);
  for (const auto& [k, v] : staged.snap_overlay()) {
    if (v) {
      object->snapshots[k] = *v;
    } else {
      object->snapshots.erase(k);
    }
  }
  ++object->version;
}

mal::Status ObjectStore::ApplyTransaction(const std::string& oid, const std::vector<Op>& ops,
                                          std::vector<OpResult>* results,
                                          const ExecResolver& exec, std::vector<Op>* expanded) {
  results->clear();
  results->resize(ops.size());
  if (expanded != nullptr) {
    expanded->clear();
  }

  // Stage: a delta view over the single target object. All ops execute
  // against the staged deltas; commit folds them in only if every op
  // succeeded. The committed object is never touched before commit, so an
  // abort is simply "return" — all-or-nothing without a full-object clone.
  auto target = objects_.find(oid);
  const bool existed = target != objects_.end();
  TxnObject staged(existed ? &target->second : nullptr);
  bool mutated = false;

  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    OpResult& result = (*results)[i];
    if (op.type == Op::Type::kExec) {
      if (!exec) {
        result.status = mal::Status::Internal("kExec must be expanded by the class runtime");
        return result.status;
      }
      std::vector<Op> effects;
      mal::Result<mal::Buffer> out = exec(oid, op, &staged, &effects);
      if (!out.ok()) {
        result.status = out.status();
        return result.status;
      }
      result.out = std::move(out).value();
      for (Op& effect : effects) {
        mutated = mutated || IsMutating(effect.type);
        if (expanded != nullptr) {
          expanded->push_back(std::move(effect));
        }
      }
      continue;
    }
    result.status = ApplyOp(oid, op, &staged, &result);
    if (!result.status.ok()) {
      return result.status;  // abort: nothing applied
    }
    mutated = mutated || IsMutating(op.type);
    if (expanded != nullptr) {
      expanded->push_back(op);
    }
  }

  // Commit.
  if (!mutated) {
    return mal::Status::Ok();  // read-only: no commit, no version bump
  }
  if (!staged.exists()) {
    if (existed) {
      bytes_used_ -= Footprint(target->second);
      objects_.erase(target);
    }
  } else if (existed && staged.base_visible()) {
    CommitInPlace(&target->second, staged);
  } else {
    // New object, or removed-and-recreated within the transaction: the
    // overlays hold the entire state.
    std::optional<Object> built = staged.Materialize();
    ++built->version;
    if (existed) {
      bytes_used_ -= Footprint(target->second);
    }
    bytes_used_ += Footprint(*built);
    objects_[oid] = std::move(*built);
  }
  return mal::Status::Ok();
}

mal::Status ObjectStore::ApplyOp(const std::string& oid, const Op& op, TxnObject* object,
                                 OpResult* result) {
  auto require = [&]() -> mal::Status {
    if (!object->exists()) {
      return mal::Status::NotFound("object " + oid);
    }
    return mal::Status::Ok();
  };

  switch (op.type) {
    case Op::Type::kCreate:
      if (object->exists()) {
        return op.excl ? mal::Status::AlreadyExists("object " + oid) : mal::Status::Ok();
      }
      object->Create();
      return mal::Status::Ok();

    case Op::Type::kRemove: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      object->Remove();
      return mal::Status::Ok();
    }

    case Op::Type::kRead: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      uint64_t len = op.length == 0 ? object->data().size() : op.length;
      result->out = object->data().Read(op.offset, len);
      return mal::Status::Ok();
    }

    case Op::Type::kWrite:
      object->Create();
      object->MutableData()->Write(op.offset, op.data.data(), op.data.size());
      return mal::Status::Ok();

    case Op::Type::kWriteFull:
      object->Create();
      // Exact: a small write rides in its request's front buffer, and an
      // alias would keep the whole request alive for as long as the object.
      *object->MutableData() = op.data.Exact();
      return mal::Status::Ok();

    case Op::Type::kAppend:
      object->Create();
      object->MutableData()->Append(op.data);
      return mal::Status::Ok();

    case Op::Type::kTruncate: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      object->MutableData()->Resize(op.offset);
      return mal::Status::Ok();
    }

    case Op::Type::kStat: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      mal::Encoder enc(&result->out);
      enc.PutU64(object->data().size());
      enc.PutU64(object->version());
      return mal::Status::Ok();
    }

    case Op::Type::kOmapGet: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      std::optional<std::string_view> value = object->OmapFind(op.key);
      if (!value) {
        return mal::Status::NotFound("omap key " + op.key);
      }
      result->out = mal::Buffer::FromString(std::string(*value));
      return mal::Status::Ok();
    }

    case Op::Type::kOmapSet:
      object->Create();
      object->OmapSet(op.key, op.value);
      return mal::Status::Ok();

    case Op::Type::kOmapDel: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      object->OmapDel(op.key);
      return mal::Status::Ok();
    }

    case Op::Type::kOmapList: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      result->out = mal::Encode(object->OmapList(op.key));
      return mal::Status::Ok();
    }

    case Op::Type::kXattrGet: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      std::optional<std::string_view> value = object->XattrFind(op.key);
      if (!value) {
        return mal::Status::NotFound("xattr " + op.key);
      }
      result->out = mal::Buffer::FromString(std::string(*value));
      return mal::Status::Ok();
    }

    case Op::Type::kXattrSet:
      object->Create();
      object->XattrSet(op.key, op.value);
      return mal::Status::Ok();

    case Op::Type::kCmpXattr: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      std::optional<std::string_view> value = object->XattrFind(op.key);
      if (!value || *value != op.value) {
        return mal::Status::Aborted("cmpxattr mismatch on " + op.key);
      }
      return mal::Status::Ok();
    }

    case Op::Type::kSnapCreate: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      if (object->SnapFind(op.key) != nullptr) {
        return mal::Status::AlreadyExists("snapshot " + op.key);
      }
      object->SnapSet(op.key, object->data());  // O(1) COW alias
      return mal::Status::Ok();
    }

    case Op::Type::kSnapRead: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      const mal::Buffer* snap = object->SnapFind(op.key);
      if (snap == nullptr) {
        return mal::Status::NotFound("snapshot " + op.key);
      }
      result->out = *snap;
      return mal::Status::Ok();
    }

    case Op::Type::kSnapRemove: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      if (!object->SnapRemove(op.key)) {
        return mal::Status::NotFound("snapshot " + op.key);
      }
      return mal::Status::Ok();
    }

    case Op::Type::kExec:
      return mal::Status::Internal("handled by caller");
  }
  return mal::Status::Internal("unknown op");
}

}  // namespace mal::osd
