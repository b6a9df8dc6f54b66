#include "src/mon/maps.h"

#include "src/mon/messages.h"

namespace mal::mon {

uint32_t OsdMap::NumUp() const {
  uint32_t n = 0;
  for (const auto& [id, info] : osds) {
    if (info.up) {
      ++n;
    }
  }
  return n;
}

uint32_t MdsMap::NumActive() const {
  uint32_t n = 0;
  for (const auto& [id, info] : mds) {
    if (info.state == MdsState::kActive) {
      ++n;
    }
  }
  return n;
}

Epoch EpochOf(const MapUpdate& update) {
  return mal::Decoder(update.map_payload).GetU64();
}

std::string PoolLayout::Format() const {
  return (kind == Kind::kErasure ? "ec:" : "replicated:") + std::to_string(width);
}

std::optional<PoolLayout> PoolLayout::Parse(const std::string& s) {
  size_t colon = s.find(':');
  if (colon == std::string::npos || colon + 1 >= s.size()) {
    return std::nullopt;
  }
  PoolLayout layout;
  std::string kind = s.substr(0, colon);
  if (kind == "replicated") {
    layout.kind = Kind::kReplicated;
  } else if (kind == "ec") {
    layout.kind = Kind::kErasure;
  } else {
    return std::nullopt;
  }
  uint32_t width = 0;
  for (size_t i = colon + 1; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') {
      return std::nullopt;
    }
    width = width * 10 + static_cast<uint32_t>(s[i] - '0');
  }
  if (width == 0) {
    return std::nullopt;
  }
  layout.width = width;
  return layout;
}

std::optional<PoolLayout> PoolLayoutOf(const OsdMap& map, const std::string& pool) {
  auto it = map.service_metadata.find(PoolKey(pool));
  if (it == map.service_metadata.end()) {
    return std::nullopt;
  }
  return PoolLayout::Parse(it->second);
}

std::optional<uint32_t> SeqOwnerOf(const MdsMap& map, const std::string& path) {
  auto it = map.service_metadata.find(SeqOwnerKey(path));
  if (it == map.service_metadata.end() || it->second.empty()) {
    return std::nullopt;
  }
  uint32_t rank = 0;
  for (char c : it->second) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    rank = rank * 10 + static_cast<uint32_t>(c - '0');
  }
  return rank;
}

}  // namespace mal::mon
