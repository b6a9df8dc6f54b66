// Object storage daemon.
//
// Serves object transactions with primary-copy replication, executes
// object-class methods (native and dynamically installed scripts), gossips
// cluster maps peer-to-peer (paper §4.4: "the object storage daemons use a
// gossip protocol to efficiently propagate changes to cluster maps"), and
// installs script interfaces referenced from the OSDMap's service metadata
// without restarting (§4.2, §6.1.2). The OSD runs no scrub of its own: a
// primary that misses an object pulls a copy from its peers, and the scrub
// agent (src/scrub/) checks and repairs EC pools from the client side.
//
// Script interfaces ride in the map under two keys per class:
//   cls.src.<name> = MalScript source
//   cls.ver.<name> = version string
// When an OSD applies a map whose cls.ver differs from what it has loaded,
// it (re)installs the class and fires `on_interface_installed` — the hook
// the Figure 8 bench uses to timestamp cluster-wide propagation.
#ifndef MALACOLOGY_OSD_OSD_H_
#define MALACOLOGY_OSD_OSD_H_

#include <functional>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "src/cls/builtin.h"
#include "src/cls/registry.h"
#include "src/common/perf.h"
#include "src/common/rng.h"
#include "src/mon/mon_client.h"
#include "src/osd/messages.h"
#include "src/osd/object_store.h"
#include "src/osd/placement.h"
#include "src/sim/actor.h"
#include "src/svc/dispatch.h"

namespace mal::osd {

struct OsdConfig {
  uint32_t replicas = 3;
  // CPU model: fixed per-op cost plus per-byte cost.
  sim::Time op_cpu_cost = 20 * sim::kMicrosecond;
  double per_byte_cpu_ns = 0.5;
  // Script-class execution surcharge relative to native.
  sim::Time script_exec_cost = 30 * sim::kMicrosecond;
  // Gossip: on map change, forward to `gossip_fanout` random up peers;
  // additionally anti-entropy with 1 random peer every `gossip_interval`.
  uint32_t gossip_fanout = 3;
  sim::Time gossip_interval = 2 * sim::kSecond;
  // Cost of decoding a cluster map and (re)installing the interfaces it
  // references (script compilation is the dominant term). Drives the shape
  // of the Fig 8 propagation CDF.
  sim::Time map_apply_cost = 0;
  // Subscribe to monitor pushes; when false the OSD fetches the map once at
  // boot and afterwards relies purely on peer-to-peer gossip (Fig 8).
  bool subscribe_to_mon = true;
  // When a primary receives an op for an object it does not hold (e.g. the
  // acting set changed after a failure or a placement-group split), it
  // first tries to pull the object from every other up OSD, acting-set
  // peers first. All candidates are asked at once; each pull waits at most
  // kPullTimeout.
  bool pull_on_miss = true;
  // Bounded inbox depth for admission control; 0 disables (see svc/).
  size_t inbox_depth = 0;
  // Per-attempt timeout for this OSD's monitor RPCs (boot registration,
  // subscriptions, perf reports). 0 keeps the transport default (5s);
  // recovery-sensitive clusters set ~1s so a dead session monitor costs
  // one short stall before the session moves on.
  sim::Time mon_request_timeout = 0;
  uint64_t seed = 1;
};

// How long a primary waits for a replica's repop ack.
inline constexpr sim::Time kReplicationTimeout = 2 * sim::kSecond;
// How long each pull of a missing object waits (see pull_on_miss).
inline constexpr sim::Time kPullTimeout = 1 * sim::kSecond;

class Osd : public sim::Actor {
 public:
  Osd(sim::Simulator* simulator, sim::Network* network, uint32_t id,
      std::vector<uint32_t> mons, OsdConfig config = {});

  // Registers with the monitor (OsdBoot transaction) and subscribes to maps
  // (or, without subscribe_to_mon, fetches the map once).
  void Boot();

  const mon::OsdMap& osd_map() const { return osd_map_; }
  ObjectStore& store() { return store_; }
  cls::ClassRegistry& registry() { return registry_; }
  const OsdConfig& config() const { return config_; }

  // Fired when a map with a strictly newer epoch is adopted.
  std::function<void(mon::Epoch)> on_map_applied;
  // Fired when a script interface (re)install completes: (class, version).
  std::function<void(const std::string&, const std::string&)> on_interface_installed;

  void Recover() override;

  // True between Recover() and the first monitor map after it: the OSD
  // answers client ops with kUnavailable (retryable) until it holds the
  // monitor's current OSDMap, so a restarted primary never serves from a
  // stale view of the acting sets. Replication, pulls, and gossip
  // keep flowing so the store stays repairable meanwhile.
  bool rejoining() const { return rejoining_; }

  uint64_t ops_served() const { return ops_served_; }
  mal::PerfRegistry& perf() { return perf_; }

 protected:
  void HandleRequest(const sim::Envelope& request) override;

 private:
  void RegisterHandlers();

  void HandleOsdOp(const sim::Envelope& request, OsdOpRequest req);
  void ExecuteOsdOp(const sim::Envelope& request, const OsdOpRequest& req,
                    const std::vector<uint32_t>& acting);
  // Asks every candidate for a copy of req.oid in one round, adopts the
  // first adoptable copy in candidate order, then executes the op once.
  void PullThenExecute(const sim::Envelope& request, const OsdOpRequest& req,
                       const std::vector<uint32_t>& candidates);
  void HandleRepOp(const sim::Envelope& request, OsdOpRequest req);
  void HandleGossip(uint32_t from, const mon::OsdMap& map);
  void HandleWatch(const sim::Envelope& request, WatchRequest req);
  void NotifyWatchers(const std::string& oid);
  void HandlePull(const sim::Envelope& request, PullObjectRequest req);
  // Answers from this OSD's own store, charged like an op: op_cpu_cost
  // plus per_byte_cpu_ns per reply byte.
  void HandleListObjects(const sim::Envelope& request, ListObjectsRequest req);
  // Adopts a monitor's map (a push, or the boot fetch of an OSD that does
  // not subscribe) and ends the rejoin gate.
  void HandleMapUpdate(const mon::MapUpdate& update, bool gossip);

  void AdoptMap(const mon::OsdMap& map, bool gossip);
  void AdoptMapNow(const mon::OsdMap& map, bool gossip);
  void InstallScriptInterfaces();
  void GossipTo(uint32_t peer);
  sim::Time OpCost(const OsdOpRequest& req) const;

  // The store's kExec resolver: runs one class method against the staged
  // object and exports its script counters and osd.cls.<cls>.<method>.*
  // metrics.
  mal::Result<mal::Buffer> RunClassMethod(const std::string& oid, const Op& op,
                                          TxnObject* staged, std::vector<Op>* effects);

  OsdConfig config_;
  svc::ServiceDispatcher dispatcher_{this};
  mon::MonClient mon_client_;
  mon::OsdMap osd_map_;
  ObjectStore store_;
  cls::ClassRegistry registry_;
  mal::Rng rng_;
  mal::PerfRegistry perf_;
  uint64_t ops_served_ = 0;
  bool rejoining_ = false;
  // Watchers per object (client entity names); notified on every commit.
  std::map<std::string, std::set<sim::EntityName>> watchers_;
};

}  // namespace mal::osd

#endif  // MALACOLOGY_OSD_OSD_H_
