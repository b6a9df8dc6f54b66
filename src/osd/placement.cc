#include "src/osd/placement.h"

#include <algorithm>
#include <cmath>

namespace mal::osd {

uint64_t StableHash(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t StableHash64(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint32_t PgForObject(const std::string& oid, uint32_t pg_count) {
  if (pg_count == 0) {
    return 0;
  }
  return static_cast<uint32_t>(StableHash(oid) % pg_count);
}

namespace {

struct RankedOsd {
  double score;
  uint32_t id;
  bool up;
};

// Weighted rendezvous ranking of the map's OSDs (weight > 0) against `pg`,
// best first. Down OSDs are ranked only when `include_down` is set.
std::vector<RankedOsd> RankOsds(uint32_t pg, const mon::OsdMap& map, bool include_down) {
  std::vector<RankedOsd> ranked;
  ranked.reserve(map.osds.size());
  for (const auto& [id, info] : map.osds) {
    if ((!info.up && !include_down) || info.weight <= 0) {
      continue;
    }
    uint64_t h = StableHash64(pg, id);
    // Weighted rendezvous: -w / ln(u) ordering, u in (0,1].
    double u = (static_cast<double>(h >> 11) + 1.0) / 9007199254740993.0;
    ranked.push_back({-info.weight / std::log(u), id, info.up});
  }
  std::sort(ranked.begin(), ranked.end(), [](const RankedOsd& a, const RankedOsd& b) {
    if (a.score != b.score) {
      return a.score > b.score;
    }
    return a.id < b.id;
  });
  return ranked;
}

// The OSD holding EC shard position `index` of a (width)-wide object whose
// logical oid hashes to `pg`; nullopt when no OSD is up.
std::optional<uint32_t> EcShardHome(uint32_t pg, const mon::OsdMap& map, uint32_t width,
                                    uint32_t index) {
  std::vector<RankedOsd> ranked = RankOsds(pg, map, /*include_down=*/true);
  size_t up = 0;
  for (const RankedOsd& osd : ranked) {
    up += osd.up ? 1 : 0;
  }
  if (up == 0) {
    return std::nullopt;
  }
  // Which up OSD (counted in rank order from `from`) takes the position.
  size_t nth_up = 0;
  size_t from = 0;
  if (up < width) {
    // Too few OSDs up to separate the shards: wrap over the up ones so the
    // pool stays writable; the scrub agent re-separates shards once
    // membership recovers.
    nth_up = index % up;
  } else if (ranked[index].up) {
    return ranked[index].id;
  } else {
    // A down position takes the first up OSD ranked below the top `width`
    // that no earlier down position took.
    for (uint32_t p = 0; p < index; ++p) {
      nth_up += ranked[p].up ? 0 : 1;
    }
    from = width;
  }
  for (size_t i = from; i < ranked.size(); ++i) {
    if (ranked[i].up && nth_up-- == 0) {
      return ranked[i].id;
    }
  }
  return std::nullopt;  // unreachable: enough up OSDs were counted above
}

}  // namespace

std::vector<uint32_t> PgToOsds(uint32_t pg, const mon::OsdMap& map, uint32_t replicas) {
  std::vector<RankedOsd> ranked = RankOsds(pg, map, /*include_down=*/false);
  size_t n = std::min<size_t>(ranked.size(), replicas);
  std::vector<uint32_t> acting;
  acting.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    acting.push_back(ranked[i].id);
  }
  return acting;
}

std::vector<uint32_t> OsdsForObject(const std::string& oid, const mon::OsdMap& map,
                                    uint32_t replicas) {
  return PgToOsds(PgForObject(oid, map.pg_count), map, replicas);
}

std::string EcShardOid(const std::string& pool_oid, uint32_t index) {
  return pool_oid + ".shard" + std::to_string(index);
}

std::optional<EcShardRef> ParseEcShardOid(const std::string& oid) {
  constexpr char kMarker[] = ".shard";
  constexpr size_t kMarkerLen = sizeof(kMarker) - 1;
  size_t marker = oid.rfind(kMarker);
  if (marker == std::string::npos || marker + kMarkerLen >= oid.size()) {
    return std::nullopt;
  }
  uint32_t index = 0;
  for (size_t i = marker + kMarkerLen; i < oid.size(); ++i) {
    if (oid[i] < '0' || oid[i] > '9') {
      return std::nullopt;
    }
    index = index * 10 + static_cast<uint32_t>(oid[i] - '0');
  }
  return EcShardRef{oid.substr(0, marker), index};
}

std::vector<uint32_t> ActingSetForOid(const std::string& oid, const mon::OsdMap& map,
                                      uint32_t default_replicas) {
  size_t slash = oid.find('/');
  if (slash != std::string::npos && slash > 0) {
    auto layout = mon::PoolLayoutOf(map, oid.substr(0, slash));
    if (layout.has_value()) {
      if (layout->kind == mon::PoolLayout::Kind::kErasure) {
        auto ref = ParseEcShardOid(oid);
        if (ref.has_value() && ref->index < layout->num_shards()) {
          auto home = EcShardHome(PgForObject(ref->logical_oid, map.pg_count), map,
                                  layout->num_shards(), ref->index);
          if (!home.has_value()) {
            return {};
          }
          return {*home};
        }
        // A non-shard object in an EC pool is replicated.
        return OsdsForObject(oid, map, 3);
      }
      return OsdsForObject(oid, map, layout->width);
    }
  }
  return OsdsForObject(oid, map, default_replicas);
}

}  // namespace mal::osd
