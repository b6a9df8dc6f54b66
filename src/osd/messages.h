// Wire messages for the OSD subsystem (envelope types 200-299).
#ifndef MALACOLOGY_OSD_MESSAGES_H_
#define MALACOLOGY_OSD_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/osd/object_store.h"

namespace mal::osd {

enum MsgType : uint32_t {
  kMsgOsdOp = 200,      // client -> primary: transaction on one object
  kMsgRepOp = 201,      // primary -> replica: expanded primitive transaction
  kMsgGossipMap = 202,  // osd -> osd one-way: current OSDMap (epidemic)
  kMsgPullObject = 203, // recovery: fetch a full object from a peer
  kMsgWatch = 205,      // client -> primary: (un)register a watch
  kMsgNotify = 206,     // primary -> watcher (one-way): object changed
  kMsgListObjects = 207,  // any -> one OSD: the oids its store holds under a prefix
};

struct WatchRequest {
  std::string oid;
  bool unwatch = false;
  void Encode(mal::Encoder* enc) const {
    enc->PutString(oid);
    enc->PutBool(unwatch);
  }
  static WatchRequest Decode(mal::Decoder* dec) {
    WatchRequest req;
    req.oid = dec->GetString();
    req.unwatch = dec->GetBool();
    return req;
  }
};

// Pushed to watchers after a mutating transaction commits.
struct NotifyEvent {
  std::string oid;
  uint64_t version = 0;
  void Encode(mal::Encoder* enc) const {
    enc->PutString(oid);
    enc->PutU64(version);
  }
  static NotifyEvent Decode(mal::Decoder* dec) {
    NotifyEvent event;
    event.oid = dec->GetString();
    event.version = dec->GetU64();
    return event;
  }
};

struct OsdOpRequest {
  std::string oid;
  std::vector<Op> ops;

  void Encode(mal::Encoder* enc) const {
    enc->PutString(oid);
    enc->PutVarU64(ops.size());
    for (const Op& op : ops) {
      op.Encode(enc);
    }
  }
  static OsdOpRequest Decode(mal::Decoder* dec) {
    OsdOpRequest req;
    req.oid = dec->GetString();
    uint64_t n = dec->GetVarU64();
    for (uint64_t i = 0; i < n && dec->ok(); ++i) {
      req.ops.push_back(Op::Decode(dec));
    }
    return req;
  }
};

// Reply: per-op status codes and outputs, plus the serving OSD's map epoch
// so clients learn about newer maps (Ceph piggybacks epochs the same way).
struct OsdOpReply {
  uint64_t map_epoch = 0;
  std::vector<OpResult> results;

  void Encode(mal::Encoder* enc) const {
    enc->PutU64(map_epoch);
    enc->PutVarU64(results.size());
    for (const OpResult& r : results) {
      enc->PutU32(static_cast<uint32_t>(r.status.code()));
      enc->PutString(r.status.message());
      enc->PutBuffer(r.out);
    }
  }
  static OsdOpReply Decode(mal::Decoder* dec) {
    OsdOpReply reply;
    reply.map_epoch = dec->GetU64();
    uint64_t n = dec->GetVarU64();
    for (uint64_t i = 0; i < n && dec->ok(); ++i) {
      OpResult r;
      auto code = static_cast<mal::Code>(dec->GetU32());
      std::string message = dec->GetString();
      r.status = code == mal::Code::kOk ? mal::Status::Ok() : mal::Status(code, message);
      r.out = dec->GetBuffer();
      reply.results.push_back(std::move(r));
    }
    return reply;
  }
};

// kMsgListObjects: the reply is ListObjectsReply, the sorted oids of the
// serving OSD's own store that start with `prefix`.
struct ListObjectsRequest {
  std::string prefix;
  void Encode(mal::Encoder* enc) const { enc->PutString(prefix); }
  static ListObjectsRequest Decode(mal::Decoder* dec) { return {dec->GetString()}; }
};

struct ListObjectsReply {
  std::vector<std::string> oids;
  void Encode(mal::Encoder* enc) const {
    enc->PutVarU64(oids.size());
    for (const std::string& oid : oids) {
      enc->PutString(oid);
    }
  }
  static ListObjectsReply Decode(mal::Decoder* dec) {
    ListObjectsReply reply;
    uint64_t n = dec->GetVarU64();
    for (uint64_t i = 0; i < n && dec->ok(); ++i) {
      reply.oids.push_back(dec->GetString());
    }
    return reply;
  }
};

struct PullObjectRequest {
  std::string oid;
  void Encode(mal::Encoder* enc) const { enc->PutString(oid); }
  static PullObjectRequest Decode(mal::Decoder* dec) { return {dec->GetString()}; }
};

}  // namespace mal::osd

#endif  // MALACOLOGY_OSD_MESSAGES_H_
