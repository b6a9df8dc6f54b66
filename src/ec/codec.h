// Erasure coding (paper §4.4: "RADOS protects data using common techniques
// such as erasure coding, replication, and scrubbing").
//
// A k+1 XOR-parity code: data splits into k equal shards plus one parity
// shard; any single lost shard is reconstructible from the survivors. This
// is the classic RAID-5 construction — the m=1 member of the Reed-Solomon
// family Ceph configures — chosen so the math stays auditable while
// exercising the same code paths (shard placement, partial reads,
// reconstruction after daemon loss). ec::Pool (pool.h) stores objects
// with it.
#ifndef MALACOLOGY_EC_CODEC_H_
#define MALACOLOGY_EC_CODEC_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/checksum.h"
#include "src/common/status.h"

namespace mal::ec {

// Splits `data` into k data shards (zero-padded to equal length) plus one
// XOR parity shard. Returns k+1 shards.
std::vector<mal::Buffer> Encode(const mal::Buffer& data, uint32_t k);

// Reassembles the original `size` bytes from shards; at most one entry may
// be nullopt (reconstructed via parity). Order: data shards 0..k-1, parity
// at index k. More than one missing shard is unrecoverable under the m=1
// code and returns kDataLoss (not kUnavailable: no amount of retrying
// brings the bytes back — only scrub repair between failures can).
mal::Result<mal::Buffer> Decode(const std::vector<std::optional<mal::Buffer>>& shards,
                                uint64_t size);

// Xattr keys every EC shard write stamps alongside the data. Both checksums
// are mal::Checksum (src/common/checksum.h), which reads and scrub verify
// against bit-rot.
inline constexpr char kShardSizeXattr[] = "ec.size";    // logical object size
inline constexpr char kShardCksumXattr[] = "ec.cksum";  // Checksum(shard bytes)
inline constexpr char kShardStampXattr[] = "ec.stamp";  // Checksum(whole object)

}  // namespace mal::ec

#endif  // MALACOLOGY_EC_CODEC_H_
