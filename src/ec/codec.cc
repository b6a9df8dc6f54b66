#include "src/ec/codec.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

namespace mal::ec {
namespace {

// dst[0, n) ^= src[0, n), eight bytes at a time. XOR is bytewise, so the
// host's byte order does not matter.
void XorInto(char* dst, const char* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t a;
    uint64_t b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<char>(dst[i] ^ src[i]);
  }
}

}  // namespace

std::vector<mal::Buffer> Encode(const mal::Buffer& data, uint32_t k) {
  uint64_t shard_len = k == 0 ? 0 : (data.size() + k - 1) / k;
  std::vector<mal::Buffer> shards;
  shards.reserve(k + 1);
  for (uint32_t i = 0; i < k; ++i) {
    mal::Buffer shard = data.Read(static_cast<uint64_t>(i) * shard_len, shard_len);
    shard.Resize(shard_len);  // zero-pad the tail shard
    shards.push_back(std::move(shard));
  }
  std::string parity = k == 0 ? std::string() : std::string(shards[0].View());
  for (uint32_t i = 1; i < k; ++i) {
    XorInto(parity.data(), shards[i].data(), shard_len);
  }
  shards.push_back(mal::Buffer(std::move(parity)));
  return shards;
}

mal::Result<mal::Buffer> Decode(const std::vector<std::optional<mal::Buffer>>& shards,
                                uint64_t size) {
  if (shards.size() < 2) {
    return mal::Status::InvalidArgument("need at least one data + one parity shard");
  }
  const size_t k = shards.size() - 1;
  size_t missing = shards.size();  // none
  uint64_t shard_len = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (!shards[i].has_value()) {
      if (missing < shards.size()) {
        return mal::Status::DataLoss("more than one shard lost (m=1 code)");
      }
      missing = i;
    } else {
      shard_len = shards[i]->size();
    }
  }
  // Verify consistent shard lengths.
  for (const auto& shard : shards) {
    if (shard.has_value() && shard->size() != shard_len) {
      return mal::Status::Corruption("inconsistent shard lengths");
    }
  }
  // The first `size` bytes of the data shards, built once; a lost data
  // shard is the XOR of every survivor, parity included.
  std::string out;
  out.reserve(std::min<uint64_t>(size, k * shard_len));
  for (size_t i = 0; i < k && out.size() < size; ++i) {
    size_t take = std::min<uint64_t>(shard_len, size - out.size());
    if (i != missing) {
      out.append(shards[i]->data(), take);
      continue;
    }
    size_t at = out.size();
    size_t first = missing == 0 ? 1 : 0;
    out.append(shards[first]->data(), take);
    for (size_t j = first + 1; j < shards.size(); ++j) {
      if (j != missing) {
        XorInto(out.data() + at, shards[j]->data(), take);
      }
    }
  }
  out.resize(size);  // a size past the shards reads as zero padding
  return mal::Buffer(std::move(out));
}

}  // namespace mal::ec
