// Wire messages for the monitor subsystem (envelope types 100-199).
#ifndef MALACOLOGY_MON_MESSAGES_H_
#define MALACOLOGY_MON_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/mon/maps.h"
#include "src/sim/network.h"
#include "src/telemetry/series.h"

namespace mal::mon {

enum MsgType : uint32_t {
  kMsgPaxos = 100,        // monitor <-> monitor consensus traffic
  kMsgMonCommand = 101,   // client/daemon -> monitor transaction
  kMsgGetMap = 102,       // fetch current map of a kind
  kMsgSubscribe = 103,    // register for push updates of a map
  kMsgMapUpdate = 104,    // monitor -> subscriber push (one-way)
  kMsgLogEntry = 105,     // daemon -> monitor centralized cluster log
  kMsgGetClusterLog = 106,
  kMsgPerfReport = 107,   // daemon -> monitor perf-counter snapshot (acked: keepalive)
  kMsgGetPerfDump = 108,  // fetch the cluster-wide perf dump (JSON)
  kMsgQuerySeries = 109,  // query the monitor's telemetry time-series store
  kMsgGetHealth = 110,    // fetch the ClusterHealth JSON
};

// A transaction applied to monitor state through Paxos. One MonCommand
// request carries one transaction; the leader batches the transactions
// that arrive while a proposal waits out the proposal interval into a
// single Paxos value.
struct Transaction {
  enum class Op : uint8_t {
    kSetServiceMetadata = 0,  // map_kind, key, value
    kOsdBoot = 1,             // daemon_id
    kOsdFail = 2,             // daemon_id
    kMdsBoot = 3,             // daemon_id
    kMdsFail = 4,             // daemon_id
    kSetPgCount = 5,          // number in `value`
  };

  Op op = Op::kSetServiceMetadata;
  MapKind map_kind = MapKind::kOsdMap;
  uint32_t daemon_id = 0;
  std::string key;
  std::string value;

  template <class Ar>
  void Fields(Ar& ar) { ar(op, map_kind, daemon_id, key, value); }
};

// The value the leader proposes through Paxos: every transaction gathered
// for one proposal. The proposer acks the batch's requests, with an empty
// payload, once it commits.
struct ProposalValue {
  uint64_t batch_id = 0;
  uint32_t proposer = 0;
  std::vector<Transaction> txns;

  template <class Ar>
  void Fields(Ar& ar) { ar(batch_id, proposer, txns); }
};

struct GetMapRequest {
  MapKind kind = MapKind::kOsdMap;
  template <class Ar>
  void Fields(Ar& ar) { ar(kind); }
};

struct SubscribeRequest {
  MapKind kind = MapKind::kOsdMap;
  Epoch have_epoch = 0;  // monitor replies immediately if it has newer
  sim::EntityName subscriber;

  template <class Ar>
  void Fields(Ar& ar) { ar(kind, have_epoch, subscriber); }
};

// The monitor's ack of a perf report (the reporter's keepalive): its
// current map epochs, so a session whose push was lost catches up.
struct KeepaliveAck {
  Epoch osd_epoch = 0;
  Epoch mds_epoch = 0;

  template <class Ar>
  void Fields(Ar& ar) { ar(osd_epoch, mds_epoch); }
};

// Map push: kind tag + encoded map.
struct MapUpdate {
  MapKind kind = MapKind::kOsdMap;
  mal::Buffer map_payload;

  template <class Ar>
  void Fields(Ar& ar) { ar(kind, map_payload); }
};

// Query against the monitor's telemetry series store (kMsgQuerySeries).
// `resolution` matches telemetry::Resolution: 0 = raw, 1 = 10s, 2 = 60s.
// The reply is a QuerySeriesReply.
struct QuerySeriesRequest {
  std::string entity;
  std::string metric;
  uint8_t resolution = 0;
  uint64_t since_ns = 0;

  template <class Ar>
  void Fields(Ar& ar) { ar(entity, metric, resolution, since_ns); }
};

// The windows of the queried series, oldest first (single-point windows
// for raw resolution).
struct QuerySeriesReply {
  std::vector<telemetry::Window> windows;

  template <class Ar>
  void Fields(Ar& ar) { ar(windows); }
};

// Centralized cluster log entry (paper §5.1.3: "Mantle re-uses the
// centralized logging features of the monitoring service").
struct ClusterLogEntry {
  uint64_t time_ns = 0;
  uint64_t seq = 0;      // per-source sequence, breaks same-timestamp ties
  std::string source;    // e.g. "mds.2"
  std::string severity;  // "INFO" | "WARN" | "ERROR"
  std::string message;

  template <class Ar>
  void Fields(Ar& ar) { ar(time_ns, seq, source, severity, message); }
};

}  // namespace mal::mon

#endif  // MALACOLOGY_MON_MESSAGES_H_
