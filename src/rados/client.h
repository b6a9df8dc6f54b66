// RadosClient: librados-style client library.
//
// Owned by a client/daemon actor. Computes placement from its own OSDMap
// view, routes transactions to the primary OSD, retries through map
// refreshes when placement changed under it, and exposes the Durability +
// Service Metadata composition used to install dynamic object interfaces
// cluster-wide (paper §4.4: "we use this service to automatically install
// interfaces in object storage daemons ... without restarting").
//
// The owning actor must forward kMsgMapUpdate envelopes for the OSDMap to
// OnMapUpdate() so the client tracks placement changes pushed by monitors.
#ifndef MALACOLOGY_RADOS_CLIENT_H_
#define MALACOLOGY_RADOS_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/mon/mon_client.h"
#include "src/osd/messages.h"
#include "src/osd/placement.h"
#include "src/sim/actor.h"
#include "src/svc/retry.h"

namespace mal::rados {

class RadosClient {
 public:
  RadosClient(sim::Actor* owner, std::vector<uint32_t> mons, uint32_t replicas = 3)
      : owner_(owner),
        mon_client_(owner, std::move(mons)),
        replicas_(replicas),
        retry_rng_(0x7261646f73ULL * 0x9e3779b97f4a7c15ULL +
                   (static_cast<uint64_t>(owner->name().type) << 32) + owner->name().id) {}

  using OpHandler = std::function<void(mal::Status, const osd::OsdOpReply&)>;
  using DataHandler = std::function<void(mal::Status, const mal::Buffer&)>;
  using DoneHandler = std::function<void(mal::Status)>;
  using ListHandler = std::function<void(mal::Status, std::vector<std::string>)>;

  // Fetches the initial OSDMap and subscribes to updates.
  void Connect(DoneHandler on_done);

  const mon::OsdMap& osd_map() const { return osd_map_; }
  mon::MonClient& mon_client() { return mon_client_; }
  sim::Actor* owner() { return owner_; }

  // Retry schedule for Execute (attempt budget, backoff base/cap). The
  // default — 5 attempts, zero base delay — retries immediately; set a
  // nonzero base_delay to enable decorrelated-jitter backoff (e.g. against
  // kBusy admission sheds).
  void set_retry_policy(const svc::RetryPolicy& policy) { retry_policy_ = policy; }

  // Optional counter sink owned by the embedding daemon/client. When set,
  // the client records rados.ops / rados.retries / rados.map_refreshes.
  void set_perf(mal::PerfRegistry* perf) { perf_ = perf; }
  mal::PerfRegistry* perf() { return perf_; }

  // Routes a push update from the monitor; returns true if consumed. A
  // malformed update is consumed: dropped with a warning.
  bool OnMapUpdate(const sim::Envelope& envelope);
  // The same for a push its owner has decoded already; true if it was an
  // OSDMap update.
  bool OnMapUpdate(const mon::MapUpdate& update);

  // -- core -------------------------------------------------------------------
  // Executes a transaction on the object's primary OSD. Retries on
  // "not primary" / timeout after refreshing the map (up to 5 attempts).
  // An attempt that runs out of the ambient deadline fails the op; if the
  // primary never answered, the map is also refreshed in the background.
  void Execute(const std::string& oid, std::vector<osd::Op> ops, OpHandler on_reply);

  // -- convenience wrappers ------------------------------------------------------
  void WriteFull(const std::string& oid, mal::Buffer data, DoneHandler on_done);
  void Append(const std::string& oid, mal::Buffer data, DoneHandler on_done);
  void Read(const std::string& oid, DataHandler on_data);
  void Remove(const std::string& oid, DoneHandler on_done);
  void CreateExclusive(const std::string& oid, DoneHandler on_done);
  void OmapSet(const std::string& oid, const std::string& key, const std::string& value,
               DoneHandler on_done);
  void OmapGet(const std::string& oid, const std::string& key, DataHandler on_data);
  // Object-class invocation (the Data I/O interface).
  void Exec(const std::string& oid, const std::string& cls, const std::string& method,
            mal::Buffer input, DataHandler on_out);

  // Lists the oids under `prefix` that one OSD's own store holds, sorted.
  // Addressed to that OSD (placement plays no part) and sent once, under
  // the ambient deadline. A listing that fails also refreshes the map, as
  // a failed Execute does.
  void ListObjects(uint32_t osd, const std::string& prefix, ListHandler on_list);

  // -- multi-target transactions --------------------------------------------------
  // One op of a batch, destined for a specific object.
  struct TargetedOp {
    std::string oid;
    osd::Op op;
  };
  using TargetedHandler = std::function<void(std::vector<osd::OpResult>)>;
  // Assembles one transaction per target object — every op bound for the
  // same oid rides in a single OsdOpRequest, in input order — and executes
  // all targets in parallel. Results come back in the input order of `ops`.
  // Failures stay per-target: a transport error or transaction abort on one
  // object is reported in that object's result slots only, so one slow or
  // conflicted target never discards the rest of the batch. Because a
  // target's transaction applies atomically, when any op in it fails the
  // sibling ops that reported success are rewritten as kAborted.
  void ExecuteTargeted(std::vector<TargetedOp> ops, TargetedHandler on_done);

  // Convenience builder for a class-exec op (pairs with ExecuteTargeted).
  static osd::Op MakeExecOp(const std::string& cls, const std::string& method,
                            mal::Buffer input);

  // Registers interest in an object: `on_notify` fires every time a
  // mutating transaction commits on it (RADOS watch/notify).
  using NotifyHandler = std::function<void(const std::string& oid, uint64_t version)>;
  void Watch(const std::string& oid, NotifyHandler on_notify, DoneHandler on_done);
  void Unwatch(const std::string& oid, DoneHandler on_done);
  // Routes a kMsgNotify push; returns true if consumed. The owning actor
  // calls this alongside OnMapUpdate().
  bool OnNotify(const sim::Envelope& envelope);

  // Installs (or upgrades) a dynamic script interface cluster-wide: commits
  // the source, then the version, into the OSDMap service metadata through
  // the monitor; the map fans out via push + OSD gossip and every OSD loads the
  // class without restarting.
  void InstallScriptInterface(const std::string& cls, const std::string& version,
                              const std::string& source, DoneHandler on_done);

  // Re-fetches the OSDMap from the monitors. Execute calls this on retry
  // automatically; callers that just committed a map change (e.g. pool
  // creation) can force it so the next placement decision sees the change.
  void RefreshMap(DoneHandler on_done);

 private:
  // Failure-path refresh: rotates past stale quorum members until it finds
  // a map strictly newer than ours. With no `on_done` it runs in the
  // background, outside the caller's spent budget, so the caller's next ops
  // route by the current map.
  void FetchNewerMap(DoneHandler on_done = nullptr);
  // Decodes an OSDMap payload and adopts it if it is newer than ours.
  mal::Status AdoptMap(const mal::Buffer& payload);

  // A transaction under the retry loop.
  struct PendingOp {
    std::string oid;
    std::vector<osd::Op> ops;
    OpHandler on_reply;
  };
  // One try of `op` on the primary its current map names.
  void ExecuteAttempt(const std::shared_ptr<PendingOp>& op, const svc::Retry& retry);
  // Refreshes the map, then retries `op` (or fails it if no map comes back).
  void RefreshAndRetry(const std::shared_ptr<PendingOp>& op, const svc::Retry& retry);
  // Executes a one-op transaction and hands `on_result` that op's own
  // status and output.
  template <typename Handler>
  void ExecuteOne(const std::string& oid, osd::Op op, Handler on_result);

  sim::Actor* owner_;
  mon::MonClient mon_client_;
  mal::PerfRegistry* perf_ = nullptr;
  uint32_t replicas_;
  mon::OsdMap osd_map_;
  svc::RetryPolicy retry_policy_{};
  mal::Rng retry_rng_;
  std::map<std::string, NotifyHandler> notify_handlers_;
};

}  // namespace mal::rados

#endif  // MALACOLOGY_RADOS_CLIENT_H_
