#include "src/common/buffer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace mal {

std::string* Buffer::Detach(size_t reserve_total) {
  auto fresh = std::make_shared<std::string>();
  fresh->reserve(std::max(reserve_total, length_));
  if (length_ > 0) {
    fresh->assign(storage_->data() + offset_, length_);
  }
  storage_ = std::move(fresh);
  offset_ = 0;
  length_ = storage_->size();
  return storage_.get();
}

void Buffer::Append(const void* p, size_t n) {
  if (n == 0) {
    return;
  }
  if (storage_ == nullptr) {
    storage_ = std::make_shared<std::string>();
    storage_->reserve(n);
  } else if (UniqueFullSpan()) {
    // Sole owner of the whole storage: append in place, reallocation is
    // allowed because no other view can be dangled by it.
  } else if (AtTail() && storage_->size() + n <= storage_->capacity()) {
    // Shared storage, but this view ends at the storage tail and there is
    // spare capacity: the new bytes land past every existing view without
    // reallocating, so aliases (and decoders) stay valid. This is what
    // keeps repeated appends to a snapshotted/shipped buffer O(1) amortized.
  } else {
    // Shared and either not at the tail or out of capacity: take a private
    // copy with geometric growth so append chains stay amortized O(1).
    Detach(std::max(length_ + n, 2 * length_));
  }
  storage_->append(static_cast<const char*>(p), n);
  length_ += n;
}

void Buffer::Append(const Buffer& other) {
  if (other.length_ == 0) {
    return;
  }
  if (storage_ == nullptr) {
    *this = other;  // O(1): alias the source; COW protects both sides
    return;
  }
  if (other.storage_ == storage_) {
    // Self-alias: materialize the source first so appending (which may
    // extend our shared storage in place) cannot shift it under us.
    std::string tmp(other.View());
    Append(tmp.data(), tmp.size());
    return;
  }
  Append(other.data(), other.length_);
}

void Buffer::Resize(size_t n) {
  if (n == length_) {
    return;
  }
  if (n < length_) {
    length_ = n;  // O(1) truncate: the view shrinks, storage is untouched
    return;
  }
  if (storage_ == nullptr) {
    storage_ = std::make_shared<std::string>(n, '\0');
    length_ = n;
    return;
  }
  size_t extra = n - length_;
  if (UniqueFullSpan()) {
    storage_->resize(n, '\0');
  } else if (AtTail() && storage_->size() + extra <= storage_->capacity()) {
    storage_->resize(storage_->size() + extra, '\0');
  } else {
    Detach(std::max(n, 2 * length_));
    storage_->resize(n, '\0');
  }
  length_ = n;
}

void Buffer::Write(size_t offset, const void* p, size_t n) {
  size_t end = offset + n;
  if (!UniqueFullSpan()) {
    // Overwrites bytes other views may alias: copy-on-write.
    Detach(std::max(end, length_));
  }
  if (end > storage_->size()) {
    storage_->resize(end, '\0');
  }
  if (n > 0) {
    std::memcpy(storage_->data() + offset, p, n);
  }
  length_ = storage_->size();
}

Buffer Buffer::Read(size_t offset, size_t n) const {
  if (offset >= length_) {
    return Buffer();
  }
  size_t take = std::min(n, length_ - offset);
  return Buffer(storage_, offset_ + offset, take);
}

Buffer Buffer::Exact() const {
  if (storage_ == nullptr || (offset_ == 0 && length_ == storage_->capacity())) {
    return *this;
  }
  return Buffer(std::string(View()));
}

void Encoder::CheckFilled() const {
  if (size_ != limit_) {
    std::fprintf(stderr, "mal::Encoder: wrote %zu of %zu sized bytes\n", size_, limit_);
    std::abort();
  }
}

void Encoder::Overrun(size_t n) const {
  std::fprintf(stderr, "mal::Encoder: put of %zu bytes at %zu overruns %zu sized bytes\n", n,
               size_, limit_);
  std::abort();
}

uint8_t Decoder::GetU8() {
  if (pos_ >= data_.size()) {
    Fail();
    return 0;
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

uint64_t Decoder::GetVarU64() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (shift > 63) {
      Fail();
      return 0;
    }
    uint8_t byte = GetU8();
    if (!ok_) {
      return 0;
    }
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
}

std::string Decoder::GetString() {
  uint64_t n = GetVarU64();
  if (!ok_ || n > data_.size() - pos_) {
    Fail();
    return std::string();
  }
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

Buffer Decoder::GetBuffer() {
  uint64_t n = GetVarU64();
  if (ok_ && segments_ != nullptr && n >= kSegmentMinBytes) {
    if (next_segment_ >= segments_->size() || (*segments_)[next_segment_].size() != n) {
      Fail();
      return Buffer();
    }
    return (*segments_)[next_segment_++];
  }
  if (!ok_ || n > data_.size() - pos_) {
    Fail();
    return Buffer();
  }
  Buffer out;
  if (n > 0) {
    std::string_view backing = buffer_.View();
    if (backing.data() == data_.data() && backing.size() == data_.size()) {
      // Buffer-backed decode: alias the input instead of copying. The slice
      // keeps the whole input allocation alive. Messages are encoded
      // exact-size (mal::Encode), so that is the message itself — the
      // payload plus its few header and sibling-field bytes — with no spare
      // capacity behind it; see docs/data_plane.md.
      out = buffer_.Read(pos_, static_cast<size_t>(n));
    } else {
      // View-backed decode: nothing refcounted to alias, copy out.
      out = Buffer(std::string(data_.substr(pos_, n)));
    }
  }
  pos_ += n;
  return out;
}

}  // namespace mal
