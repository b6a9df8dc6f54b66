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
  const std::string* value = staged_->XattrFind(key);
  if (value == nullptr) {
    return mal::Status::NotFound("xattr " + key);
  }
  return *value;
}

void ClsContext::RecordAndApply(osd::Op op) { effects_->push_back(std::move(op)); }

mal::Status ClsContext::Create(bool excl) {
  if (staged_->exists()) {
    if (excl) {
      return mal::Status::AlreadyExists("object " + oid_);
    }
    return mal::Status::Ok();
  }
  staged_->Create();
  osd::Op op;
  op.type = osd::Op::Type::kCreate;
  op.excl = false;  // staged check already enforced exclusivity
  RecordAndApply(std::move(op));
  return mal::Status::Ok();
}

mal::Status ClsContext::Write(uint64_t offset, const mal::Buffer& data) {
  staged_->Create();
  staged_->MutableData()->Write(offset, data.data(), data.size());
  osd::Op op;
  op.type = osd::Op::Type::kWrite;
  op.offset = offset;
  op.data = data;
  RecordAndApply(std::move(op));
  return mal::Status::Ok();
}

mal::Status ClsContext::WriteFull(const mal::Buffer& data) {
  staged_->Create();
  *staged_->MutableData() = data;
  osd::Op op;
  op.type = osd::Op::Type::kWriteFull;
  op.data = data;
  RecordAndApply(std::move(op));
  return mal::Status::Ok();
}

mal::Status ClsContext::Append(const mal::Buffer& data) {
  staged_->Create();
  staged_->MutableData()->Append(data);
  osd::Op op;
  op.type = osd::Op::Type::kAppend;
  op.data = data;
  RecordAndApply(std::move(op));
  return mal::Status::Ok();
}

mal::Status ClsContext::OmapSet(const std::string& key, const std::string& value) {
  staged_->Create();
  staged_->OmapSet(key, value);
  osd::Op op;
  op.type = osd::Op::Type::kOmapSet;
  op.key = key;
  op.value = value;
  RecordAndApply(std::move(op));
  return mal::Status::Ok();
}

mal::Status ClsContext::OmapDel(const std::string& key) {
  if (!staged_->exists()) {
    return mal::Status::NotFound("object " + oid_);
  }
  staged_->OmapDel(key);
  osd::Op op;
  op.type = osd::Op::Type::kOmapDel;
  op.key = key;
  RecordAndApply(std::move(op));
  return mal::Status::Ok();
}

mal::Status ClsContext::XattrSet(const std::string& key, const std::string& value) {
  staged_->Create();
  staged_->XattrSet(key, value);
  osd::Op op;
  op.type = osd::Op::Type::kXattrSet;
  op.key = key;
  op.value = value;
  RecordAndApply(std::move(op));
  return mal::Status::Ok();
}

}  // namespace mal::cls
