// Data integrity checksum (paper §4.4: RADOS protects data with erasure
// coding and scrubbing, which must tell a healthy copy from a rotted one).
#ifndef MALACOLOGY_COMMON_CHECKSUM_H_
#define MALACOLOGY_COMMON_CHECKSUM_H_

#include <cstdint>
#include <string_view>

namespace mal {

// The one integrity checksum of stored bytes: EC writes stamp it into each
// shard's xattrs (ec.cksum over the shard, ec.stamp over the whole object),
// and every reader of those xattrs recomputes it with this function — EC
// reads and scrub (ec::Pool::Gather), the OSD's pull-adoption gate and the
// chaos checkers.
//
// A deterministic 64-bit hash that reads eight bytes per step as a
// little-endian word, whatever the host's byte order, with the length mixed
// in first; 32-byte blocks feed four lanes, folded together at the end.
// Each step is a bijection of the running state and of the word, and so are
// the fold and the final mix, so two inputs of one length that differ within
// a single word — any single bit flip — never collide. Placement and the cls
// checksum method keep osd::StableHash (FNV-1a), whose values must not move.
uint64_t Checksum(std::string_view bytes);

}  // namespace mal

#endif  // MALACOLOGY_COMMON_CHECKSUM_H_
