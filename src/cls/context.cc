#include "src/cls/context.h"

namespace mal::cls {

mal::Result<mal::Buffer> ClsContext::Read(uint64_t offset, uint64_t length) const {
  if (!staged_->exists()) {
    return mal::Status::NotFound("object " + oid_);
  }
  uint64_t len = length == 0 ? staged_->data().size() : length;
  return staged_->data().Read(offset, len);  // O(1) aliased slice
}

mal::Result<uint64_t> ClsContext::Size() const {
  if (!staged_->exists()) {
    return mal::Status::NotFound("object " + oid_);
  }
  return static_cast<uint64_t>(staged_->data().size());
}

mal::Result<std::string> ClsContext::OmapGet(const std::string& key) const {
  if (!staged_->exists()) {
    return mal::Status::NotFound("object " + oid_);
  }
  std::optional<std::string_view> value = staged_->OmapFind(key);
  if (!value) {
    return mal::Status::NotFound("omap key " + key);
  }
  return std::string(*value);
}

mal::Result<osd::Omap> ClsContext::OmapList(const std::string& prefix) const {
  if (!staged_->exists()) {
    return mal::Status::NotFound("object " + oid_);
  }
  return staged_->OmapList(prefix);
}

mal::Result<std::string> ClsContext::XattrGet(const std::string& key) const {
  if (!staged_->exists()) {
    return mal::Status::NotFound("object " + oid_);
  }
  std::optional<std::string_view> value = staged_->XattrFind(key);
  if (!value) {
    return mal::Status::NotFound("xattr " + key);
  }
  return std::string(*value);
}

mal::Status ClsContext::ApplyAndRecord(osd::Op op) {
  osd::OpResult result;
  mal::Status s = osd::ObjectStore::ApplyOp(oid_, op, staged_, &result);
  if (s.ok()) {
    effects_->push_back(std::move(op));
  }
  return s;
}

mal::Status ClsContext::Create(bool excl) {
  // An existing object needs no op, so none is recorded.
  if (staged_->exists()) {
    return excl ? mal::Status::AlreadyExists("object " + oid_) : mal::Status::Ok();
  }
  osd::Op op;
  op.type = osd::Op::Type::kCreate;
  return ApplyAndRecord(std::move(op));
}

mal::Status ClsContext::Write(uint64_t offset, const mal::Buffer& data) {
  osd::Op op;
  op.type = osd::Op::Type::kWrite;
  op.offset = offset;
  op.data = data;
  return ApplyAndRecord(std::move(op));
}

mal::Status ClsContext::WriteFull(const mal::Buffer& data) {
  osd::Op op;
  op.type = osd::Op::Type::kWriteFull;
  op.data = data;
  return ApplyAndRecord(std::move(op));
}

mal::Status ClsContext::Append(const mal::Buffer& data) {
  osd::Op op;
  op.type = osd::Op::Type::kAppend;
  op.data = data;
  return ApplyAndRecord(std::move(op));
}

mal::Status ClsContext::OmapSet(const std::string& key, const std::string& value) {
  osd::Op op;
  op.type = osd::Op::Type::kOmapSet;
  op.key = key;
  op.value = value;
  return ApplyAndRecord(std::move(op));
}

mal::Status ClsContext::OmapDel(const std::string& key) {
  osd::Op op;
  op.type = osd::Op::Type::kOmapDel;
  op.key = key;
  return ApplyAndRecord(std::move(op));
}

mal::Status ClsContext::XattrSet(const std::string& key, const std::string& value) {
  osd::Op op;
  op.type = osd::Op::Type::kXattrSet;
  op.key = key;
  op.value = value;
  return ApplyAndRecord(std::move(op));
}

}  // namespace mal::cls
