// Metadata-service types: typed inodes (the File Type interface, paper
// §4.3.2), capability/lease terms (the Shared Resource interface, §4.3.1),
// load metrics (the Load Balancing interface, §4.3.3), and wire messages
// (envelope types 300-399).
#ifndef MALACOLOGY_MDS_TYPES_H_
#define MALACOLOGY_MDS_TYPES_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/sim/network.h"

namespace mal::mds {

enum MsgType : uint32_t {
  kMsgClientRequest = 300,   // client -> mds
  kMsgCapRevoke = 301,       // mds -> client (one-way)
  kMsgAuthorityUpdate = 303, // mds -> mds broadcast (one-way)
  kMsgLoadReport = 304,      // mds -> mds broadcast (one-way)
  kMsgForward = 305,         // proxy: mds -> authoritative mds
  kMsgCoherence = 306,       // one-way scatter-gather strain at the root
  kMsgMigrate = 307,         // mds -> mds: inode transfer (migration phase 2)
};

// Inode types. kSequencer is the domain-specific type ZLog defines through
// the File Type interface: its "file" embeds a 64-bit tail counter whose
// locking/caching policy is programmable.
enum class InodeType : uint8_t { kDir = 0, kFile = 1, kSequencer = 2 };

// How clients may hold the sequencer resource (paper §6.1.1):
//   kBestEffort — Ceph default: release as soon as someone else wants it.
//   kDelay      — holder keeps the cap up to `max_hold` after acquiring.
//   kQuota      — holder yields after `quota` local operations.
// kRoundTrip disables caching entirely (§6.2: "forcing clients to make
// round-trips for every request") — the Shared Resource interface's
// non-cacheable mode.
enum class LeaseMode : uint8_t { kBestEffort = 0, kDelay = 1, kQuota = 2, kRoundTrip = 3 };

struct LeasePolicy {
  LeaseMode mode = LeaseMode::kBestEffort;
  uint64_t max_hold_ns = 250'000'000;  // kDelay: max exclusive reservation
  uint64_t quota = 0;                  // kQuota: ops before yielding

  template <class Ar>
  void Fields(Ar& ar) { ar(mode, max_hold_ns, quota); }
};

struct Inode {
  uint64_t ino = 0;
  InodeType type = InodeType::kFile;
  uint64_t size = 0;
  uint64_t seq_tail = 0;       // kSequencer: the embedded counter
  LeasePolicy lease_policy;    // kSequencer/kFile: cap policy
  std::map<std::string, std::string> params;  // domain-specific attributes

  template <class Ar>
  void Fields(Ar& ar) { ar(ino, type, size, seq_tail, lease_policy, params); }
};

// Client request ops.
enum class MdsOp : uint8_t {
  kMkdir = 0,
  kCreate = 1,      // path, inode type, lease policy
  kLookup = 2,
  kUnlink = 3,
  kSetPolicy = 4,   // reprogram an inode's lease policy live
  // 5 is unused: a single-position grant is a one-entry kSeqNextBatch.
  kSeqRead = 6,     // round-trip: read tail without increment
  kAcquireCap = 7,  // request exclusive cached access (reply may be delayed)
  kReleaseCap = 8,  // return the cap (carries updated tail)
  kSetSeqState = 9, // recovery: install recovered tail + params (e.g. epoch)
  kSetSize = 10,    // file layer: record a file inode's logical size
  kSeqNextBatch = 11, // round-trip: reserve seq_value contiguous positions
};

struct ClientRequest {
  MdsOp op = MdsOp::kLookup;
  std::string path;
  InodeType inode_type = InodeType::kFile;
  LeasePolicy policy;
  uint64_t seq_value = 0;  // batch count, released/recovered tail, or file size
  std::map<std::string, std::string> params;  // kCreate/kSetSeqState extras

  template <class Ar>
  void Fields(Ar& ar) { ar(op, path, inode_type, policy, seq_value, params); }
};

// The one "not here" reply, in every routing mode: kWrongRank
// "wrong_rank:<rank>:<map epoch>", naming the rank that serves the path.
inline mal::Status WrongRankReply(uint32_t rank, uint64_t epoch) {
  return mal::Status::WrongRank("wrong_rank:" + std::to_string(rank) + ":" +
                                std::to_string(epoch));
}

// Parses a WrongRankReply; false for any other status.
inline bool ParseWrongRank(const mal::Status& status, uint32_t* rank, uint64_t* epoch) {
  constexpr char kPrefix[] = "wrong_rank:";
  const std::string& message = status.message();
  if (status.code() != mal::Code::kWrongRank || message.rfind(kPrefix, 0) != 0) {
    return false;
  }
  size_t pos = sizeof(kPrefix) - 1;
  size_t colon = message.find(':', pos);
  if (colon == std::string::npos) {
    return false;
  }
  *rank = static_cast<uint32_t>(std::stoul(message.substr(pos, colon - pos)));
  *epoch = std::stoull(message.substr(colon + 1));
  return true;
}

// True for the ops the MDS answers with an MdsReply; it acks the others
// with an empty payload. The daemon replies by this rule
// (MdsDaemon::ReplyServed) and MdsClient decodes by it.
inline bool RepliesWithMdsReply(MdsOp op) {
  switch (op) {
    case MdsOp::kMkdir:
    case MdsOp::kCreate:
    case MdsOp::kLookup:
    case MdsOp::kSeqRead:
    case MdsOp::kAcquireCap:
    case MdsOp::kSeqNextBatch:
      return true;
    default:
      return false;
  }
}

// Reply to kMkdir / kCreate / kLookup / kSeqRead / kAcquireCap /
// kSeqNextBatch; fields used depend on the op.
struct MdsReply {
  uint64_t seq_value = 0;
  LeasePolicy terms;          // cap grant terms the client must honor
  uint64_t grant_time_ns = 0; // when the cap was granted
  Inode inode;                // kLookup

  template <class Ar>
  void Fields(Ar& ar) { ar(seq_value, terms, grant_time_ns, inode); }
};

// Per-MDS load metrics exported to the balancer: the `mds[i]` table a
// Mantle policy indexes (paper §6.2.2's `mds[whoami]["load"]`).
struct LoadMetrics {
  double req_rate = 0;    // client requests/sec over the report window
  double cpu = 0;         // CPU utilization [0,1]
  double load = 0;        // composite "load" the default policies use
  // Per hosted subtree (path -> requests/sec): the popularity metric
  // subtree migration decisions need.
  std::map<std::string, double> subtree_rate;
  // Subset of subtree_rate paths that are hosted kSequencer inodes; lets a
  // Mantle hot-log policy (mds[i]["seq"]) target sequencer handoffs without
  // guessing from path names. Appended at the end of the encoding so the
  // wire image of reports without sequencers is unchanged.
  std::vector<std::string> seq_paths;

  template <class Ar>
  void Fields(Ar& ar) { ar(req_rate, cpu, load, subtree_rate, seq_paths); }
};

// kMsgCapRevoke: the mds asks the holder of `path`'s cap to release it.
struct CapRevoke {
  std::string path;

  template <class Ar>
  void Fields(Ar& ar) { ar(path); }
};

// kMsgAuthorityUpdate: `path` is now served by MDS rank `rank`.
struct AuthorityUpdate {
  std::string path;
  uint32_t rank = 0;

  template <class Ar>
  void Fields(Ar& ar) { ar(path, rank); }
};

// kMsgMigrate: the inode of `path` moving to the receiving rank, and
// whether the receiver publishes the new authority once it installs it.
struct MigrateRequest {
  std::string path;
  bool publish = false;
  Inode inode;

  template <class Ar>
  void Fields(Ar& ar) { ar(path, publish, inode); }
};

// kMsgLoadReport: one rank's load metrics, broadcast to its peers.
struct LoadReport {
  uint32_t rank = 0;
  LoadMetrics metrics;

  template <class Ar>
  void Fields(Ar& ar) { ar(rank, metrics); }
};

}  // namespace mal::mds

#endif  // MALACOLOGY_MDS_TYPES_H_
