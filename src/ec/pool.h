// Erasure-coded pools (paper §4.4: "RADOS protects data using common
// techniques such as erasure coding, replication, and scrubbing").
//
// A pool is a named namespace with a placement policy recorded in the
// OSDMap's service metadata ("pool.<name>" -> "ec:<k>" | "replicated:<n>"),
// so the policy propagates to every client and OSD through the normal map
// machinery — no new wire format, and clusters without pools place exactly
// as before.
//
// An EC pool stripes each logical object "<pool>/<object>" across k+1
// shard objects "<pool>/<object>.shard<i>" placed on distinct OSDs (see
// osd::ActingSetForOid). Every shard write carries:
//   ec.size  — logical object size (strip the codec padding on read)
//   ec.cksum — FNV-1a of the shard bytes (detects silent bit-rot)
//   ec.stamp — FNV-1a of the whole object (groups shards of one write
//              generation, so a torn or stale shard can never be mixed
//              into a decode with shards of a different write)
// plus a cls ec.check_epoch guard so sealed objects fence stale writers.
//
// Reads send all k+1 shard reads but decide on the first k that agree
// (see Read), discard checksum mismatches, decode around a single loss
// (counting rados.ec.degraded_reads), and report kDataLoss when the code's
// tolerance is exceeded. The scrub agent (src/scrub/) finds the pool's
// objects by listing the shards each OSD holds (ListObjects), gathers all
// k+1 and fills lost shards back to full redundancy (Fill). The pool keeps
// no index of its own: a write is the k+1 shard transactions and nothing
// else.
#ifndef MALACOLOGY_EC_POOL_H_
#define MALACOLOGY_EC_POOL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/ec/codec.h"
#include "src/mon/maps.h"
#include "src/rados/client.h"

namespace mal::ec {

// One gathered shard, as seen by a read or a scrub pass.
struct ShardInfo {
  bool present = false;  // shard object existed and replied
  bool valid = false;    // present and ec.cksum matched the bytes
  mal::Buffer data;
  uint64_t size = 0;   // ec.size (logical object size)
  uint64_t stamp = 0;  // ec.stamp (write-generation checksum)
};

// Picks the write generation to decode: the plurality ec.stamp among valid
// shards (ties break toward the smallest stamp, so the choice is
// deterministic). Returns the shards of that generation positionally
// (nullopt where missing/invalid/foreign), with the generation's logical
// size in *size_out and the number of holes in *missing_out.
std::vector<std::optional<mal::Buffer>> SelectGeneration(const std::vector<ShardInfo>& shards,
                                                         uint64_t* size_out,
                                                         uint32_t* missing_out);

class Pool {
 public:
  using DoneHandler = std::function<void(mal::Status)>;
  using DataHandler = std::function<void(mal::Status, const mal::Buffer&)>;
  using ListHandler = std::function<void(mal::Status, std::vector<std::string>)>;
  using GatherHandler = std::function<void(const std::vector<ShardInfo>&)>;

  // Binds to a pool the map already knows about. `k` must match the
  // registered layout (Bind() looks it up instead).
  Pool(rados::RadosClient* rados, std::string name, uint32_t k)
      : rados_(rados), name_(std::move(name)), k_(k) {}

  // Registers the pool in the OSDMap service metadata and refreshes the
  // caller's map so its next placement decision sees the pool.
  static void Create(rados::RadosClient* rados, const std::string& name,
                     const mon::PoolLayout& layout, DoneHandler on_done);

  // Binds to an existing EC pool by looking the layout up in the client's
  // current map view. nullopt when the pool is unknown or not erasure.
  static std::optional<Pool> Bind(rados::RadosClient* rados, const std::string& name);

  // Encodes and writes all k+1 shards, each guarded by cls ec.check_epoch.
  // Acks only when every shard committed — an acked write therefore
  // survives any single subsequent shard loss, and any one surviving shard
  // keeps it discoverable to ListObjects.
  void Write(const std::string& object, mal::Buffer data, DoneHandler on_done);

  // Sends all k+1 shard reads and decides as soon as the checksum-valid
  // shards sharing one ec.stamp are at least k and a strict majority of
  // k+1: no missing reply could then change the generation picked (for
  // k >= 2 that is "k agree"; a k=1 pool waits for both). Unanswered
  // slots decode as holes; a corrupt or foreign shard makes the read wait
  // for the rest. Fails with kDataLoss beyond the code's tolerance.
  // rados.ec.degraded_reads on the owning client's perf registry counts a
  // read whose k+1 replies held a hole (missing, corrupt or foreign),
  // once, when its last reply or rpc failure lands, even if the read
  // already answered.
  void Read(const std::string& object, DataHandler on_data);

  // Seals every shard of `object` at `epoch` (cls ec.seal); writes tagged
  // with a lower epoch then fail with kStaleEpoch. On success the pool
  // handle adopts the epoch for its own subsequent writes.
  void Seal(const std::string& object, uint64_t epoch, DoneHandler on_done);

  // Asks every up OSD in the caller's map, under the ambient deadline, for
  // the shards of this pool it holds. `on_list` runs once per OSD asked:
  // with the logical object names that OSD reported (sorted, each once),
  // or with the failure. Returns the number of OSDs asked. Scrub's work
  // queue is the union of the listings.
  size_t ListObjects(ListHandler on_list);

  // Reads every shard of `object` with checksum verification but no
  // decode, waiting for all k+1 replies: the scrub agent's raw material.
  void GatherShards(const std::string& object, GatherHandler on_done);

  // Scrub repair: re-encodes `data` and writes only the slots whose
  // gathered shard in `seen` is not a valid copy of its generation. Each
  // written slot is guarded by cls ec.check_stamp, which passes only while
  // the slot's ec.stamp still equals the one gathered (0: absent or
  // unstamped), so a fill never rolls back a write that landed since the
  // gather; such a slot fails with kAborted. Carries no epoch guard and
  // leaves a slot's seal as it is.
  void Fill(const std::string& object, const mal::Buffer& data,
            const std::vector<ShardInfo>& seen, DoneHandler on_done);

  const std::string& name() const { return name_; }
  uint32_t k() const { return k_; }
  uint32_t num_shards() const { return k_ + 1; }
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }
  rados::RadosClient* rados() { return rados_; }

  std::string LogicalOid(const std::string& object) const {
    return osd::PoolOid(name_, object);
  }
  std::string ShardOid(const std::string& object, uint32_t index) const {
    return osd::EcShardOid(LogicalOid(object), index);
  }

 private:
  using ShardsPredicate = std::function<bool(const std::vector<ShardInfo>&)>;

  // The one shard-write builder behind Write and Fill: `guard`, then the
  // shard bytes and its ec.size / ec.cksum / ec.stamp xattrs.
  void AppendShardWrite(std::vector<rados::RadosClient::TargetedOp>* ops,
                        const std::string& object, uint32_t index, osd::Op guard,
                        const mal::Buffer& shard, uint64_t size, uint64_t stamp) const;
  // Runs `ops` and reports the first failed op's status (Ok when none).
  void Submit(std::vector<rados::RadosClient::TargetedOp> ops, DoneHandler on_done);

  // The one gather behind Read and GatherShards: sends the k+1 shard
  // reads. `on_done` runs once, at the first reply after which `done`
  // holds (null: never early) or else at the last reply; unanswered slots
  // are holes. `on_last` (may be null) runs when the last reply or rpc
  // failure lands, before a pending `on_done`. Later replies touch only
  // the gather's own shared state, never this handle, which may be gone.
  void Gather(const std::string& object, ShardsPredicate done, GatherHandler on_done,
              GatherHandler on_last) const;

  rados::RadosClient* rados_;
  std::string name_;
  uint32_t k_;
  uint64_t epoch_ = 0;
};

}  // namespace mal::ec

#endif  // MALACOLOGY_EC_POOL_H_
