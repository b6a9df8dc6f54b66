#include "src/ec/codec.h"

#include <string>
#include <utility>

#include "src/osd/placement.h"

namespace mal::ec {

std::vector<mal::Buffer> Encode(const mal::Buffer& data, uint32_t k) {
  uint64_t shard_len = k == 0 ? 0 : (data.size() + k - 1) / k;
  std::vector<mal::Buffer> shards;
  shards.reserve(k + 1);
  for (uint32_t i = 0; i < k; ++i) {
    mal::Buffer shard = data.Read(static_cast<uint64_t>(i) * shard_len, shard_len);
    shard.Resize(shard_len);  // zero-pad the tail shard
    shards.push_back(std::move(shard));
  }
  std::string parity(shard_len, '\0');
  for (uint32_t i = 0; i < k; ++i) {
    for (uint64_t b = 0; b < shard_len; ++b) {
      parity[b] = static_cast<char>(parity[b] ^ shards[i].data()[b]);
    }
  }
  shards.push_back(mal::Buffer::FromString(std::move(parity)));
  return shards;
}

mal::Result<mal::Buffer> Decode(const std::vector<std::optional<mal::Buffer>>& shards,
                                uint64_t size) {
  if (shards.size() < 2) {
    return mal::Status::InvalidArgument("need at least one data + one parity shard");
  }
  uint32_t k = static_cast<uint32_t>(shards.size()) - 1;
  int missing = -1;
  uint64_t shard_len = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (!shards[i].has_value()) {
      if (missing >= 0) {
        return mal::Status::DataLoss("more than one shard lost (m=1 code)");
      }
      missing = static_cast<int>(i);
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
  std::string reconstructed(shard_len, '\0');
  if (missing >= 0) {
    for (size_t i = 0; i < shards.size(); ++i) {
      if (static_cast<int>(i) == missing) {
        continue;
      }
      for (uint64_t b = 0; b < shard_len; ++b) {
        reconstructed[b] = static_cast<char>(reconstructed[b] ^ shards[i]->data()[b]);
      }
    }
  }
  mal::Buffer out;
  for (uint32_t i = 0; i < k; ++i) {
    if (static_cast<int>(i) == missing) {
      out.Append(reconstructed.data(), shard_len);
    } else {
      out.Append(*shards[i]);
    }
  }
  out.Resize(size);  // strip padding
  return out;
}

uint64_t Checksum(const mal::Buffer& data) {
  return osd::StableHash(data.View());
}

}  // namespace mal::ec
