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
  template <class Ar>
  void Fields(Ar& ar) { ar(oid, unwatch); }
};

// Pushed to watchers after a mutating transaction commits.
struct NotifyEvent {
  std::string oid;
  uint64_t version = 0;
  template <class Ar>
  void Fields(Ar& ar) { ar(oid, version); }
};

struct OsdOpRequest {
  std::string oid;
  std::vector<Op> ops;

  template <class Ar>
  void Fields(Ar& ar) { ar(oid, ops); }
};

// Reply: per-op status codes and outputs, plus the serving OSD's map epoch
// so clients learn about newer maps (Ceph piggybacks epochs the same way).
// Each result's status travels as a code plus message (mal::Fields for
// Status).
struct OsdOpReply {
  uint64_t map_epoch = 0;
  std::vector<OpResult> results;

  template <class Ar>
  void Fields(Ar& ar) { ar(map_epoch, results); }
};

// kMsgListObjects: the reply is ListObjectsReply, the sorted oids of the
// serving OSD's own store that start with `prefix`.
struct ListObjectsRequest {
  std::string prefix;
  template <class Ar>
  void Fields(Ar& ar) { ar(prefix); }
};

struct ListObjectsReply {
  std::vector<std::string> oids;
  template <class Ar>
  void Fields(Ar& ar) { ar(oids); }
};

struct PullObjectRequest {
  std::string oid;
  template <class Ar>
  void Fields(Ar& ar) { ar(oid); }
};

}  // namespace mal::osd

#endif  // MALACOLOGY_OSD_MESSAGES_H_
