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

  void Encode(mal::Encoder* enc) const {
    enc->PutU8(static_cast<uint8_t>(mode));
    enc->PutU64(max_hold_ns);
    enc->PutU64(quota);
  }
  static LeasePolicy Decode(mal::Decoder* dec) {
    LeasePolicy p;
    p.mode = static_cast<LeaseMode>(dec->GetU8());
    p.max_hold_ns = dec->GetU64();
    p.quota = dec->GetU64();
    return p;
  }
};

struct Inode {
  uint64_t ino = 0;
  InodeType type = InodeType::kFile;
  uint64_t size = 0;
  uint64_t seq_tail = 0;       // kSequencer: the embedded counter
  LeasePolicy lease_policy;    // kSequencer/kFile: cap policy
  std::map<std::string, std::string> params;  // domain-specific attributes

  void Encode(mal::Encoder* enc) const {
    enc->PutU64(ino);
    enc->PutU8(static_cast<uint8_t>(type));
    enc->PutU64(size);
    enc->PutU64(seq_tail);
    lease_policy.Encode(enc);
    EncodeStringMap(enc, params);
  }
  static Inode Decode(mal::Decoder* dec) {
    Inode inode;
    inode.ino = dec->GetU64();
    inode.type = static_cast<InodeType>(dec->GetU8());
    inode.size = dec->GetU64();
    inode.seq_tail = dec->GetU64();
    inode.lease_policy = LeasePolicy::Decode(dec);
    inode.params = DecodeStringMap(dec);
    return inode;
  }
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

  void Encode(mal::Encoder* enc) const {
    enc->PutU8(static_cast<uint8_t>(op));
    enc->PutString(path);
    enc->PutU8(static_cast<uint8_t>(inode_type));
    policy.Encode(enc);
    enc->PutU64(seq_value);
    EncodeStringMap(enc, params);
  }
  static ClientRequest Decode(mal::Decoder* dec) {
    ClientRequest req;
    req.op = static_cast<MdsOp>(dec->GetU8());
    req.path = dec->GetString();
    req.inode_type = static_cast<InodeType>(dec->GetU8());
    req.policy = LeasePolicy::Decode(dec);
    req.seq_value = dec->GetU64();
    req.params = DecodeStringMap(dec);
    return req;
  }
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

// Reply to kAcquireCap / kSeqNextBatch / kSeqRead / kLookup; fields used
// depend on the op.
struct MdsReply {
  uint64_t seq_value = 0;
  LeasePolicy terms;          // cap grant terms the client must honor
  uint64_t grant_time_ns = 0; // when the cap was granted
  Inode inode;                // kLookup

  void Encode(mal::Encoder* enc) const {
    enc->PutU64(seq_value);
    terms.Encode(enc);
    enc->PutU64(grant_time_ns);
    inode.Encode(enc);
  }
  static MdsReply Decode(mal::Decoder* dec) {
    MdsReply reply;
    reply.seq_value = dec->GetU64();
    reply.terms = LeasePolicy::Decode(dec);
    reply.grant_time_ns = dec->GetU64();
    reply.inode = Inode::Decode(dec);
    return reply;
  }
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

  void Encode(mal::Encoder* enc) const {
    enc->PutF64(req_rate);
    enc->PutF64(cpu);
    enc->PutF64(load);
    enc->PutVarU64(subtree_rate.size());
    for (const auto& [path, rate] : subtree_rate) {
      enc->PutString(path);
      enc->PutF64(rate);
    }
    enc->PutVarU64(seq_paths.size());
    for (const std::string& path : seq_paths) {
      enc->PutString(path);
    }
  }
  static LoadMetrics Decode(mal::Decoder* dec) {
    LoadMetrics m;
    m.req_rate = dec->GetF64();
    m.cpu = dec->GetF64();
    m.load = dec->GetF64();
    uint64_t n = dec->GetVarU64();
    for (uint64_t i = 0; i < n && dec->ok(); ++i) {
      std::string path = dec->GetString();
      m.subtree_rate[path] = dec->GetF64();
    }
    uint64_t s = dec->GetVarU64();
    for (uint64_t i = 0; i < s && dec->ok(); ++i) {
      m.seq_paths.push_back(dec->GetString());
    }
    return m;
  }
};

}  // namespace mal::mds

#endif  // MALACOLOGY_MDS_TYPES_H_
