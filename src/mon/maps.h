// Cluster maps: epoch-versioned membership and service metadata, mirroring
// Ceph's OSDMap and MDSMap. The Service Metadata interface (paper §4.1) is
// the `service_metadata` key-value section carried by each map: Malacology
// "provides a generic API for adding arbitrary values to existing subsystem
// cluster maps", which is how object-interface versions and balancer-policy
// versions propagate consistently.
#ifndef MALACOLOGY_MON_MAPS_H_
#define MALACOLOGY_MON_MAPS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "src/common/buffer.h"
#include "src/common/status.h"

namespace mal::mon {

using Epoch = uint64_t;

// Well-known service-metadata keys.
inline constexpr char kClsInterfaceKeyPrefix[] = "cls.";      // cls.<class>: version
inline constexpr char kMantleBalancerVersionKey[] = "mantle.balancer_version";
// Sequencer-ownership map entries (one per sharded kSequencer inode):
// seq.owner.<path> -> decimal MDS rank. The MdsMap epoch doubles as the
// ownership-map epoch carried in kWrongRank redirects.
inline constexpr char kSeqOwnerKeyPrefix[] = "seq.owner.";
// Pool-table entries: pool.<name> -> layout ("replicated:<n>" | "ec:<k>").
// The pool table rides the OsdMap's Service Metadata section, so creating a
// pool is one kSetServiceMetadata transaction and propagation reuses the
// Paxos + push + gossip machinery; clusters with no pools carry no entries
// and encode byte-identically to the pre-pool wire format.
inline constexpr char kPoolKeyPrefix[] = "pool.";

inline std::string SeqOwnerKey(const std::string& path) {
  return std::string(kSeqOwnerKeyPrefix) + path;
}

inline std::string PoolKey(const std::string& pool) {
  return std::string(kPoolKeyPrefix) + pool;
}

// Data-protection layout of one pool. `width` is the replica count for
// replicated pools and the data-shard count k for erasure pools (objects
// stripe across k+1 shard objects, the +1 being XOR parity).
struct PoolLayout {
  enum class Kind : uint8_t { kReplicated = 0, kErasure = 1 };
  Kind kind = Kind::kReplicated;
  uint32_t width = 3;

  uint32_t num_shards() const { return kind == Kind::kErasure ? width + 1 : width; }
  std::string Format() const;
  static std::optional<PoolLayout> Parse(const std::string& s);
  static PoolLayout Replicated(uint32_t n) { return {Kind::kReplicated, n}; }
  static PoolLayout Erasure(uint32_t k) { return {Kind::kErasure, k}; }
};

struct OsdInfo {
  bool up = false;
  double weight = 1.0;

  template <class Ar>
  void Fields(Ar& ar) { ar(up, weight); }
};

// Map of object storage daemons plus placement-group count.
struct OsdMap {
  Epoch epoch = 0;
  uint32_t pg_count = 128;
  std::map<uint32_t, OsdInfo> osds;
  std::map<std::string, std::string> service_metadata;

  uint32_t NumUp() const;

  // The epoch leads, as in MdsMap (see EpochOf).
  template <class Ar>
  void Fields(Ar& ar) { ar(epoch, pg_count, osds, service_metadata); }
};

enum class MdsState : uint8_t { kStandby = 0, kActive = 1, kStopping = 2, kFailed = 3 };

struct MdsInfo {
  MdsState state = MdsState::kStandby;
  // Rank within the active metadata cluster (which subtrees it owns is the
  // MDS's own business; the map only tracks membership).
  int64_t rank = -1;

  template <class Ar>
  void Fields(Ar& ar) { ar(state, rank); }
};

struct MdsMap {
  Epoch epoch = 0;
  std::map<uint32_t, MdsInfo> mds;
  std::map<std::string, std::string> service_metadata;

  uint32_t NumActive() const;

  // The epoch leads, as in OsdMap (see EpochOf).
  template <class Ar>
  void Fields(Ar& ar) { ar(epoch, mds, service_metadata); }
};

struct MapUpdate;

// The epoch of the OsdMap or MdsMap `update` carries, read without
// decoding the map (both encodings start with it); 0 when the payload is
// too short to hold one.
Epoch EpochOf(const MapUpdate& update);

// Published owner rank for a sequencer path, or nullopt when the path has
// no ownership entry (legacy single-sequencer placement).
std::optional<uint32_t> SeqOwnerOf(const MdsMap& map, const std::string& path);

// Layout of a registered pool, or nullopt when `pool` has no table entry
// (oids outside any pool keep the legacy default placement).
std::optional<PoolLayout> PoolLayoutOf(const OsdMap& map, const std::string& pool);

// Which map a transaction or subscription targets.
enum class MapKind : uint8_t { kOsdMap = 0, kMdsMap = 1 };

}  // namespace mal::mon

#endif  // MALACOLOGY_MON_MAPS_H_
