// Data placement: object -> placement group -> ordered OSD set.
//
// Ceph uses CRUSH; we substitute rendezvous (highest-random-weight)
// hashing, which shares the relevant properties: placement is computed
// from the map alone (no central directory), is stable under membership
// change (only affected PGs move), and weights can bias selection.
#ifndef MALACOLOGY_OSD_PLACEMENT_H_
#define MALACOLOGY_OSD_PLACEMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/mon/maps.h"

namespace mal::osd {

// Stable 64-bit hash (FNV-1a) used for all placement decisions and by cls
// checksum.compute. EC shard checksums use mal::Checksum instead.
uint64_t StableHash(std::string_view s);
uint64_t StableHash64(uint64_t a, uint64_t b);

// Object id -> placement group.
uint32_t PgForObject(const std::string& oid, uint32_t pg_count);

// Placement group -> ordered list of up-OSDs (primary first), at most
// `replicas` entries. Empty if no OSD is up.
std::vector<uint32_t> PgToOsds(uint32_t pg, const mon::OsdMap& map, uint32_t replicas);

// Convenience: the acting set for an object (primary first).
std::vector<uint32_t> OsdsForObject(const std::string& oid, const mon::OsdMap& map,
                                    uint32_t replicas);

// -- pool-aware placement --------------------------------------------------------
// Objects in a registered pool are named "<pool>/<object>"; EC pools stripe
// each logical object across shard objects "<pool>/<object>.shard<i>".

inline std::string PoolOid(const std::string& pool, const std::string& object) {
  return pool + "/" + object;
}
std::string EcShardOid(const std::string& pool_oid, uint32_t index);

struct EcShardRef {
  std::string logical_oid;  // "<pool>/<object>"
  uint32_t index = 0;
};
// Parses "<pool>/<object>.shard<i>"; nullopt when `oid` is not a shard name.
std::optional<EcShardRef> ParseEcShardOid(const std::string& oid);

// The acting set for an oid, consulting the map's pool table. Replicated
// pools use the pool's width. EC shard objects store exactly one copy, at
// a stable *position* of the logical object's rendezvous ranking (CRUSH's
// "indep" mode): every OSD with weight > 0, up or down, is ranked, and
// shard i lives at rank i. A position whose OSD is down takes the
// next-ranked up OSD outside the top k+1 (down positions served in index
// order), so losing an OSD moves only the shards homed on it, and its
// return moves them back. With fewer than k+1 OSDs up the shards wrap
// over the up ones, so the pool stays writable. Non-shard objects in an EC
// pool are replicated 3-wide. Oids outside
// any registered pool — everything that existed before pools — keep the
// legacy `default_replicas` placement, so pool-free clusters place
// byte-identically.
std::vector<uint32_t> ActingSetForOid(const std::string& oid, const mon::OsdMap& map,
                                      uint32_t default_replicas);

}  // namespace mal::osd

#endif  // MALACOLOGY_OSD_PLACEMENT_H_
