// Byte buffer and wire-format encoding, modeled on Ceph's bufferlist and
// encode/decode framework. Every message that crosses the simulated network
// and every object payload persisted by the object store round-trips through
// this encoding, so the whole stack continuously exercises it.
//
// Buffer is a refcounted copy-on-write slice (shared storage + offset/length
// view), like Ceph's bufferptr over a raw_buffer. Copying a Buffer, slicing
// one with Read(), and handing payloads across the simulated wire are all
// O(1) refcount bumps; mutation detaches a private copy only when the bytes
// are actually shared. Two invariants make aliasing safe:
//   1. Bytes inside any live view are never overwritten through a different
//      Buffer — mutation of shared bytes detaches first.
//   2. Shared storage is never reallocated: appends extend shared storage in
//      place only while spare capacity lasts (new bytes land past every
//      existing view), so raw pointers from data()/View() stay valid until
//      the Buffer they came from is itself mutated.
//
// Every wire type lists its fields once, in wire order, in one function:
//
//   template <class Ar> void Fields(Ar& ar) { ar(epoch, pg_count, osds); }
//
// and the codec below runs that list in every direction, like Ceph's denc:
// mal::Encode(msg) sizes then writes it, mal::EncodeSegmented(msg) does the
// same into a Payload, and mal::Decode<T>(payload) reads it back, checked.
// mal::Encode fills one allocation of exactly the message's size, so a
// slice decoded out of it pins nothing bigger than the message. Bulk-data
// messages are encoded with mal::EncodeSegmented(msg) into a Payload, Ceph's
// front-plus-data-segments message layout: every Buffer field of at least
// kSegmentMinBytes rides as its own segment, by reference, so a stored
// object and the messages that carried it share one storage.
//
// Wire format, chosen by each field's C++ type:
//   - bool: one byte; an enum: its underlying type
//   - other fixed-width integers: little-endian, at their own width
//   - double: its IEEE-754 bits as a little-endian u64
//   - std::string, Buffer: varuint (LEB128) length + raw bytes (a segmented
//     bulk Buffer keeps its length in the front and its bytes in the next
//     segment); a std::string_view encodes like a std::string and does not
//     decode
//   - std::vector, std::map: varuint count + elements (a map element is its
//     key then its value)
//   - a type with a Fields member: its fields, in order
#ifndef MALACOLOGY_COMMON_BUFFER_H_
#define MALACOLOGY_COMMON_BUFFER_H_

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/status.h"

namespace mal {

// A refcounted, contiguous byte buffer with copy-on-write sharing. Each
// Buffer is one contiguous run, which keeps decoding simple; a message's
// bulk fields travel as separate Buffers (Payload segments), the role iovec
// chains play in a production messenger.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::string data)
      : storage_(std::make_shared<std::string>(std::move(data))),
        length_(storage_->size()) {}
  static Buffer FromString(std::string s) { return Buffer(std::move(s)); }

  const char* data() const { return storage_ ? storage_->data() + offset_ : ""; }
  size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }
  void clear() {
    storage_.reset();
    offset_ = 0;
    length_ = 0;
  }

  void Append(const void* p, size_t n);
  void Append(const Buffer& other);
  void Append(std::string_view sv) { Append(sv.data(), sv.size()); }

  // Zero-fill or truncate to exactly n bytes. Truncating a shared buffer is
  // O(1): the view shrinks, the storage is untouched.
  void Resize(size_t n);

  // Bytes from the start of this view to the end of its storage's
  // allocation: what an aliased slice keeps alive beyond its own size.
  size_t capacity() const { return storage_ ? storage_->capacity() - offset_ : 0; }

  // This buffer if it views its storage's whole allocation, else an
  // exact-size copy of the viewed bytes: what a message may hold by
  // reference without pinning bytes beyond its own.
  Buffer Exact() const;

  // Overwrite [offset, offset+n) growing the buffer (zero-padded) if needed.
  void Write(size_t offset, const void* p, size_t n);

  // Alias [offset, offset+n), clamped to the buffer end: O(1), shares
  // storage. Mutating either buffer afterwards copies-on-write.
  Buffer Read(size_t offset, size_t n) const;

  std::string ToString() const { return std::string(View()); }
  std::string_view View() const {
    return storage_ ? std::string_view(storage_->data() + offset_, length_)
                    : std::string_view();
  }

  bool operator==(const Buffer& other) const { return View() == other.View(); }

  // True if both buffers alias the same underlying storage (regardless of
  // the slice each views). Exposed for COW-semantics tests and asserts.
  bool SharesStorageWith(const Buffer& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

 private:
  Buffer(std::shared_ptr<std::string> storage, size_t offset, size_t length)
      : storage_(std::move(storage)), offset_(offset), length_(length) {}

  bool UniqueFullSpan() const {
    return storage_ && storage_.use_count() == 1 && offset_ == 0 &&
           length_ == storage_->size();
  }
  bool AtTail() const { return storage_ && offset_ + length_ == storage_->size(); }

  // Replaces shared storage with a private copy of the viewed slice,
  // reserving `reserve_total` bytes (clamped up to the current length).
  // Returns the private string; afterwards the buffer is unique+full-span.
  std::string* Detach(size_t reserve_total);

  std::shared_ptr<std::string> storage_;  // null = empty buffer
  size_t offset_ = 0;
  size_t length_ = 0;
};

// Buffer fields at least this large travel as data segments in a segmented
// message. It sits above a ZLog write_batch input (~1.2 KB) and an EC k=3
// shard of a 4 KiB object (1,366 B), which stay in the front.
inline constexpr size_t kSegmentMinBytes = 2048;

// Writes wire-encoded values. One interface, three sinks, so a message's
// field list serves all of them:
//   - sizing  (Encoder()): counts bytes, writes nothing;
//   - writing (Encoder(dst, n)): fills exactly n caller-owned bytes and
//     aborts the process rather than overrun them;
//   - append  (Encoder(Buffer*)): appends to a Buffer, for outputs built
//     incrementally whose size is not known up front.
// mal::Encode below runs the first two. mal::EncodeSegmented runs them in
// segmented form, where a PutBuffer of at least kSegmentMinBytes puts only
// its length and the writing pass hands the bytes to a segment list.
class Encoder {
 public:
  Encoder() = default;
  Encoder(char* dst, size_t n) : dst_(dst), limit_(n) {}
  explicit Encoder(Buffer* out) : out_(out) {}
  // Segmented: front bytes to exactly n bytes at dst, and each bulk field
  // appended to `segments`; both null for the sizing pass.
  Encoder(char* dst, size_t n, std::vector<Buffer>* segments)
      : dst_(dst), limit_(n), segmented_(true), segments_(segments) {}

  // Field lists run on an Encoder or a Decoder; this tells them which.
  static constexpr bool kDecoding = false;

  // Bytes put so far.
  size_t size() const { return size_; }

  // Puts each field by its type (see the wire format above).
  template <typename... Ts>
  void operator()(const Ts&... fields) { (PutField(fields), ...); }
  template <typename T>
  void PutField(const T& value);

  // Aborts unless a writing encoder filled its destination exactly: a
  // message whose two passes disagree is a bug, never a short message.
  void CheckFilled() const;

  void PutU8(uint8_t v) { Put(&v, 1); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }
  void PutF64(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed(bits);
  }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutVarU64(uint64_t v) {
    char bytes[10];
    size_t n = 0;
    while (v >= 0x80) {
      bytes[n++] = static_cast<char>(v | 0x80);
      v >>= 7;
    }
    bytes[n++] = static_cast<char>(v);
    Put(bytes, n);
  }

  void PutString(std::string_view s) {
    PutVarU64(s.size());
    Put(s.data(), s.size());
  }
  void PutBuffer(const Buffer& b) {
    PutVarU64(b.size());
    if (segmented_ && b.size() >= kSegmentMinBytes) {
      if (segments_ != nullptr) {
        segments_->push_back(b.Exact());
      }
      return;
    }
    if (out_ != nullptr) {
      out_->Append(b);  // handles b aliasing out_'s own storage
      size_ += b.size();
    } else {
      Put(b.data(), b.size());
    }
  }

 private:
  void Put(const void* p, size_t n) {
    if (dst_ != nullptr) {
      if (n > limit_ - size_) {
        Overrun(n);
      }
      if (n > 0) {
        std::memcpy(dst_ + size_, p, n);
      }
    } else if (out_ != nullptr) {
      out_->Append(p, n);
    }
    size_ += n;
  }

  template <typename T>
  void PutFixed(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      Put(&v, sizeof(T));
    } else {
      char bytes[sizeof(T)];
      for (size_t i = 0; i < sizeof(T); ++i) {
        bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
      }
      Put(bytes, sizeof(T));
    }
  }

  [[noreturn]] void Overrun(size_t n) const;

  char* dst_ = nullptr;  // writing: destination of exactly limit_ bytes
  size_t limit_ = 0;
  Buffer* out_ = nullptr;  // append
  bool segmented_ = false;
  std::vector<Buffer>* segments_ = nullptr;  // segmented writing
  size_t size_ = 0;
};

// Sizing pass: the exact number of bytes `fn` puts.
template <typename Fn>
  requires std::invocable<Fn&, Encoder*>
size_t EncodedSize(Fn&& fn) {
  Encoder sizer;
  fn(&sizer);
  return sizer.size();
}

// The single entry point for wire payloads: `fn` runs twice, once to size
// and once to write into one allocation of exactly that many bytes, so
// every byte is copied once and the result has no spare capacity. `fn` must
// put the same bytes both times; if it does not, the process aborts.
template <typename Fn>
  requires std::invocable<Fn&, Encoder*>
Buffer Encode(Fn&& fn) {
  std::string bytes(EncodedSize(fn), '\0');
  Encoder writer(bytes.data(), bytes.size());
  fn(&writer);
  writer.CheckFilled();
  return Buffer(std::move(bytes));
}

// A message as it crosses the simulated wire, in Ceph's layout: the front
// holds the encoded fields, and each bulk Buffer field of a segmented
// message rides as one data segment held by reference. A Buffer converts to
// an unsegmented payload (the flat encoding, no segments). There is
// deliberately no flat view of a whole payload: a segmented message can only
// be read by a Decoder over the Payload itself.
class Payload {
 public:
  Payload() = default;
  Payload(Buffer front) : front_(std::move(front)) {}  // NOLINT(google-explicit-constructor)
  Payload(Buffer front, std::vector<Buffer> segments)
      : front_(std::move(front)), segments_(std::move(segments)), segmented_(true) {}

  const Buffer& front() const { return front_; }
  const std::vector<Buffer>& segments() const { return segments_; }
  // True when built by EncodeSegmented: bulk fields live in segments.
  bool segmented() const { return segmented_; }
  // Front plus every segment: exactly the size of the flat encoding.
  size_t size() const {
    size_t n = front_.size();
    for (const Buffer& segment : segments_) {
      n += segment.size();
    }
    return n;
  }

 private:
  Buffer front_;
  std::vector<Buffer> segments_;
  bool segmented_ = false;
};

// The entry point for bulk-data messages: like Encode, but every PutBuffer
// of at least kSegmentMinBytes becomes a data segment instead of front
// bytes. A segment is the caller's Buffer itself (O(1)) when that views a
// whole allocation, and an exact-size copy when it is a slice of larger
// storage or has spare capacity, so no segment pins more than its own
// bytes. The front plus the segments is as many bytes as Encode would put.
template <typename Fn>
  requires std::invocable<Fn&, Encoder*>
Payload EncodeSegmented(Fn&& fn) {
  Encoder sizer(nullptr, 0, nullptr);
  fn(&sizer);
  std::string front(sizer.size(), '\0');
  std::vector<Buffer> segments;
  Encoder writer(front.data(), front.size(), &segments);
  fn(&writer);
  writer.CheckFilled();
  return Payload(Buffer(std::move(front)), std::move(segments));
}

// Reads wire-encoded values from a Buffer. All getters are checked: reading
// past the end flips the decoder into a failed state, and subsequent reads
// return zero values. Messages are read with mal::Decode<T>, which checks
// once at the end; a hand-rolled reader checks `ok()` or `Finish()`.
//
// A decoder constructed from a Buffer shares its storage (keeping it alive
// for the decoder's lifetime), and GetBuffer() returns an aliased O(1)
// slice of the input instead of a copy; the slice pins the input's whole
// allocation, which for an exact-size message is just the message. A
// decoder over a bare string_view cannot alias and falls back to copying.
// A decoder over a segmented Payload reads the front and takes each
// GetBuffer of at least kSegmentMinBytes from the next segment; a missing
// segment, or one whose size differs from its length, fails the decode.
class Decoder {
 public:
  explicit Decoder(const Buffer& in) : buffer_(in), data_(buffer_.View()) {}
  explicit Decoder(std::string_view in) : data_(in) {}
  // The payload must outlive the decoder (its segments are not copied).
  explicit Decoder(const Payload& in)
      : buffer_(in.front()),
        data_(buffer_.View()),
        segments_(in.segmented() ? &in.segments() : nullptr) {}
  explicit Decoder(const Payload&&) = delete;

  static constexpr bool kDecoding = true;

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }
  // Every front byte and every data segment has been read.
  bool AtEnd() const {
    return remaining() == 0 && (segments_ == nullptr || next_segment_ == segments_->size());
  }

  // Gets each field by its type (see the wire format above).
  template <typename... Ts>
  void operator()(Ts&... fields) { (GetField(fields), ...); }
  template <typename T>
  void GetField(T& value);

  // A container's element count. Every element takes at least one front
  // byte, so a count above remaining() fails the decode. Containers grow
  // as their elements decode; no count read here sizes an allocation.
  uint64_t GetCount() {
    uint64_t n = GetVarU64();
    if (n > remaining()) {
      Fail();
      return 0;
    }
    return n;
  }

  uint8_t GetU8();
  uint16_t GetU16() { return GetFixed<uint16_t>(); }
  uint32_t GetU32() { return GetFixed<uint32_t>(); }
  uint64_t GetU64() { return GetFixed<uint64_t>(); }
  int64_t GetI64() { return static_cast<int64_t>(GetFixed<uint64_t>()); }
  double GetF64() {
    uint64_t bits = GetFixed<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool GetBool() { return GetU8() != 0; }

  uint64_t GetVarU64();

  std::string GetString();
  Buffer GetBuffer();

  Status Finish() const {
    if (!ok_) {
      return Status::Corruption("decode past end of buffer");
    }
    return Status::Ok();
  }

 private:
  template <typename T>
  T GetFixed() {
    if (sizeof(T) > data_.size() - pos_) {
      Fail();
      pos_ = data_.size();
      return 0;
    }
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_.data() + pos_, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
      }
    }
    pos_ += sizeof(T);
    return v;
  }
  void Fail() { ok_ = false; }

  Buffer buffer_;  // shares the input's storage; empty when view-constructed
  std::string_view data_;
  size_t pos_ = 0;
  const std::vector<Buffer>* segments_ = nullptr;  // null unless segmented
  size_t next_segment_ = 0;
  bool ok_ = true;
};

// ---- The codec: one field list, run by Encoder and Decoder alike ---------

namespace codec_internal {
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T, typename A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;
template <typename T>
inline constexpr bool kIsMap = false;
template <typename K, typename V, typename C, typename A>
inline constexpr bool kIsMap<std::map<K, V, C, A>> = true;
}  // namespace codec_internal

// A type that lists its own fields. A type whose wire form is not a plain
// list of its members instead supplies one overload
//   template <class Ar> void Fields(Ar& ar, T& value)
// found by argument-dependent lookup and run in both directions.
template <typename T>
concept HasFieldList = requires(T& value, Encoder& enc) { value.Fields(enc); };

// Field lists take their object by non-const reference so the one function
// serves decoding too; encoding only ever reads through it.
template <typename T>
void Encoder::PutField(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    PutBool(value);
  } else if constexpr (std::is_enum_v<T>) {
    PutField(static_cast<std::underlying_type_t<T>>(value));
  } else if constexpr (std::is_integral_v<T>) {
    PutFixed(static_cast<std::make_unsigned_t<T>>(value));
  } else if constexpr (std::is_same_v<T, double>) {
    PutF64(value);
  } else if constexpr (std::is_same_v<T, std::string> ||
                       std::is_same_v<T, std::string_view>) {
    PutString(value);
  } else if constexpr (std::is_same_v<T, Buffer>) {
    PutBuffer(value);
  } else if constexpr (codec_internal::kIsVector<T>) {
    PutVarU64(value.size());
    for (const auto& element : value) {
      PutField(element);
    }
  } else if constexpr (codec_internal::kIsMap<T>) {
    PutVarU64(value.size());
    for (const auto& [key, mapped] : value) {
      PutField(key);
      PutField(mapped);
    }
  } else if constexpr (HasFieldList<T>) {
    const_cast<T&>(value).Fields(*this);
  } else {
    Fields(*this, const_cast<T&>(value));
  }
}

// A map keeps the first copy of a duplicate key, so a malformed payload
// cannot overwrite an entry it already delivered.
template <typename T>
void Decoder::GetField(T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    value = GetBool();
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> raw{};
    GetField(raw);
    value = static_cast<T>(raw);
  } else if constexpr (std::is_integral_v<T>) {
    value = static_cast<T>(GetFixed<std::make_unsigned_t<T>>());
  } else if constexpr (std::is_same_v<T, double>) {
    value = GetF64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    value = GetString();
  } else if constexpr (std::is_same_v<T, Buffer>) {
    value = GetBuffer();
  } else if constexpr (codec_internal::kIsVector<T>) {
    uint64_t n = GetCount();
    value.clear();
    for (uint64_t i = 0; i < n && ok_; ++i) {
      GetField(value.emplace_back());
    }
  } else if constexpr (codec_internal::kIsMap<T>) {
    uint64_t n = GetCount();
    value.clear();
    for (uint64_t i = 0; i < n && ok_; ++i) {
      typename T::key_type key{};
      typename T::mapped_type mapped{};
      GetField(key);
      GetField(mapped);
      value.emplace(std::move(key), std::move(mapped));
    }
  } else if constexpr (HasFieldList<T>) {
    value.Fields(*this);
  } else {
    Fields(*this, value);
  }
}

// A status travels as its code and message; an Ok status decodes to a
// plain Ok, whatever message rode with it.
template <class Ar>
void Fields(Ar& ar, Status& status) {
  if constexpr (Ar::kDecoding) {
    Code code{};
    std::string message;
    ar(code, message);
    status = code == Code::kOk ? Status::Ok() : Status(code, std::move(message));
  } else {
    ar(status.code(), status.message());
  }
}

template <typename T>
  requires(!std::invocable<const T&, Encoder*>)
Buffer Encode(const T& value) {
  return Encode([&value](Encoder* enc) { enc->PutField(value); });
}

template <typename T>
  requires(!std::invocable<const T&, Encoder*>)
Payload EncodeSegmented(const T& value) {
  return EncodeSegmented([&value](Encoder* enc) { enc->PutField(value); });
}

// The one way a payload becomes a value: runs T's field list over `in` and
// returns kCorruption if that reads past the end, meets a count larger than
// the bytes left, or leaves front bytes or data segments unread.
template <typename T>
Result<T> Decode(const Payload& in) {
  Decoder dec(in);
  T value{};
  dec.GetField(value);
  if (!dec.ok()) {
    return Status::Corruption("decode past end of buffer");
  }
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after message");
  }
  return value;
}

// What a reply carries: `status` if the request failed, else `payload`
// decoded as T.
template <typename T>
Result<T> DecodeReply(const Status& status, const Payload& payload) {
  if (!status.ok()) {
    return status;
  }
  return Decode<T>(payload);
}

}  // namespace mal

#endif  // MALACOLOGY_COMMON_BUFFER_H_
