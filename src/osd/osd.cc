#include "src/osd/osd.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "src/common/checksum.h"
#include "src/common/log.h"
#include "src/common/trace.h"

namespace mal::osd {
namespace {

// Integrity gate on shard adoption: a pulled EC shard whose ec.cksum xattr
// no longer matches its bytes is bit-rot, and adopting it would re-home the
// corruption onto a healthy OSD. Refuse; the scrub agent re-encodes a clean
// shard instead. ec.cksum is mal::Checksum of the shard bytes, which this
// recomputes with the same function the EC pool writes and verifies with.
bool AdoptableObject(const std::string& oid, const Object& object) {
  if (!ParseEcShardOid(oid).has_value()) {
    return true;
  }
  std::optional<std::string_view> cksum = object.xattrs.Find("ec.cksum");
  return !cksum || std::to_string(mal::Checksum(object.data.View())) == *cksum;
}

const char* OpTypeName(Op::Type type) {
  switch (type) {
    case Op::Type::kCreate:
      return "create";
    case Op::Type::kRemove:
      return "remove";
    case Op::Type::kRead:
      return "read";
    case Op::Type::kWrite:
      return "write";
    case Op::Type::kWriteFull:
      return "write_full";
    case Op::Type::kAppend:
      return "append";
    case Op::Type::kTruncate:
      return "truncate";
    case Op::Type::kStat:
      return "stat";
    case Op::Type::kOmapGet:
      return "omap_get";
    case Op::Type::kOmapSet:
      return "omap_set";
    case Op::Type::kOmapDel:
      return "omap_del";
    case Op::Type::kOmapList:
      return "omap_list";
    case Op::Type::kXattrGet:
      return "xattr_get";
    case Op::Type::kXattrSet:
      return "xattr_set";
    case Op::Type::kCmpXattr:
      return "cmp_xattr";
    case Op::Type::kExec:
      return "exec";
    case Op::Type::kSnapCreate:
      return "snap_create";
    case Op::Type::kSnapRead:
      return "snap_read";
    case Op::Type::kSnapRemove:
      return "snap_remove";
  }
  return "unknown";
}

}  // namespace

Osd::Osd(sim::Simulator* simulator, sim::Network* network, uint32_t id,
         std::vector<uint32_t> mons, OsdConfig config)
    : Actor(simulator, network, sim::EntityName::Osd(id)),
      config_(config),
      mon_client_(this, std::move(mons)),
      rng_(config.seed * 0x9e3779b97f4a7c15ULL + id) {
  cls::RegisterBuiltinClasses(&registry_);
  RegisterHandlers();
  SetInboxLimit(config_.inbox_depth);
  SetServicePerf(&perf_);
  if (config_.mon_request_timeout > 0) {
    mon_client_.set_request_timeout(config_.mon_request_timeout);
  }
}

void Osd::RegisterHandlers() {
  dispatcher_.OnTyped<OsdOpRequest>(
      kMsgOsdOp, [this](const sim::Envelope& env, OsdOpRequest req) {
        HandleOsdOp(env, std::move(req));
      });
  dispatcher_.OnTyped<OsdOpRequest>(
      kMsgRepOp, [this](const sim::Envelope& env, OsdOpRequest req) {
        HandleRepOp(env, std::move(req));
      });
  dispatcher_.OnTyped<PullObjectRequest>(
      kMsgPullObject, [this](const sim::Envelope& env, PullObjectRequest req) {
        HandlePull(env, std::move(req));
      });
  dispatcher_.OnTyped<ListObjectsRequest>(
      kMsgListObjects, [this](const sim::Envelope& env, ListObjectsRequest req) {
        HandleListObjects(env, std::move(req));
      });
  dispatcher_.OnTyped<WatchRequest>(
      kMsgWatch, [this](const sim::Envelope& env, WatchRequest req) {
        HandleWatch(env, std::move(req));
      });
  // Both map messages carry an OsdMap with its own freshness check.
  dispatcher_.OnTyped<mon::OsdMap>(
      kMsgGossipMap, [this](const sim::Envelope& env, mon::OsdMap map) {
        HandleGossip(env.from.id, map);
      });
  dispatcher_.OnTyped<mon::MapUpdate>(
      mon::kMsgMapUpdate, [this](const sim::Envelope&, mon::MapUpdate update) {
        HandleMapUpdate(update, /*gossip=*/true);
      });
}

void Osd::Boot() {
  mon::Transaction boot;
  boot.op = mon::Transaction::Op::kOsdBoot;
  boot.daemon_id = name().id;
  mon_client_.SubmitTransaction(boot, [this](mal::Status s) {
    if (!s.ok()) {
      MAL_WARN(name().ToString()) << "boot registration failed: " << s;
    }
  });
  if (config_.subscribe_to_mon) {
    // A rejoining OSD has validated no epoch, so the monitor pushes it its
    // current map (re-sent by a keepalive ack if the subscription fails).
    mon_client_.Subscribe(mon::MapKind::kOsdMap,
                          [this] { return rejoining_ ? 0 : osd_map_.epoch; });
  } else {
    mon_client_.GetMap(mon::MapKind::kOsdMap,
                       [this](mal::Status s, const mon::MapUpdate& update) {
                         if (s.ok()) {
                           HandleMapUpdate(update, /*gossip=*/false);
                         }
                       });
  }
  mon_client_.StartPerfReports(perf_);
  StartPeriodic(config_.gossip_interval, [this] {
    // Anti-entropy: push our map to one random up peer.
    std::vector<uint32_t> peers;
    for (const auto& [id, info] : osd_map_.osds) {
      if (info.up && id != name().id) {
        peers.push_back(id);
      }
    }
    if (!peers.empty()) {
      GossipTo(peers[rng_.NextBelow(peers.size())]);
    }
  });
}

void Osd::Recover() {
  Actor::Recover();
  // ObjectStore contents survive (disk); the map may be stale. Re-subscribe,
  // and gate client ops until a monitor's map arrives, so a stale primary
  // view never serves (or fences) fresh data.
  rejoining_ = true;
  Boot();
}

void Osd::HandleRequest(const sim::Envelope& request) {
  dispatcher_.Dispatch(request);
}

void Osd::HandleMapUpdate(const mon::MapUpdate& update, bool gossip) {
  if (update.kind != mon::MapKind::kOsdMap) {
    return;
  }
  auto map = mal::Decode<mon::OsdMap>(update.map_payload);
  if (!map.ok()) {
    MAL_WARN(name().ToString()) << "dropping malformed osd map: " << map.status();
    return;
  }
  AdoptMap(map.value(), gossip);
  // A monitor's push or reply carries its current epoch: the rejoin ends.
  if (rejoining_) {
    rejoining_ = false;
    perf_.Inc("osd.rejoins");
    MAL_DEBUG(name().ToString()) << "rejoined at epoch " << map.value().epoch;
  }
}

sim::Time Osd::OpCost(const OsdOpRequest& req) const {
  sim::Time cost = config_.op_cpu_cost;
  for (const Op& op : req.ops) {
    cost += static_cast<sim::Time>(config_.per_byte_cpu_ns *
                                   static_cast<double>(op.data.size()));
    if (op.type == Op::Type::kExec && registry_.ScriptVersion(op.cls_name) != "") {
      cost += config_.script_exec_cost;
    }
  }
  return cost;
}

mal::Result<mal::Buffer> Osd::RunClassMethod(const std::string& oid, const Op& op,
                                             TxnObject* staged, std::vector<Op>* effects) {
  cls::ClsContext ctx(oid, staged, effects);
  script::EngineStats sstats;
  auto out = registry_.Execute(op.cls_name, op.method, ctx, op.data, 1'000'000, &sstats);
  // Script-method engine counters (absent for native methods).
  mal::ExportScriptCounters(&perf_, "osd", sstats);
  perf_.Inc("osd.cls." + op.cls_name + "." + op.method + ".count");
  // Charged execution cost of this method call (the CPU-model share
  // attributable to it: per-byte decode plus script surcharge).
  perf_.Observe("osd.cls." + op.cls_name + "." + op.method + ".exec_us",
                (config_.per_byte_cpu_ns * static_cast<double>(op.data.size()) +
                 (registry_.ScriptVersion(op.cls_name) != ""
                      ? static_cast<double>(config_.script_exec_cost)
                      : 0.0)) /
                    1e3);
  return out;
}

void Osd::HandleOsdOp(const sim::Envelope& request, OsdOpRequest req) {
  if (rejoining_) {
    // Freshly restarted: our map view is not yet validated against the
    // monitor. kUnavailable is retryable at the client, and by the retry
    // the catch-up has usually finished.
    ReplyError(request, mal::Status::Unavailable("osd rejoining (map catch-up)"));
    return;
  }
  // Primary check against our map view.
  std::vector<uint32_t> acting = ActingSetForOid(req.oid, osd_map_, config_.replicas);
  if (acting.empty() || acting[0] != name().id) {
    ReplyError(request, mal::Status::Unavailable("not primary for " + req.oid));
    return;
  }
  // Re-peering: a newly-promoted primary may not hold the object yet. For
  // single-copy EC shards the same situation arises when membership change
  // shifts the shard's canonical home: the data still exists on the old
  // home, so sweep for it — but only for read-only transactions (a write
  // simply lays down the new generation here; stale copies elsewhere lose
  // the stamp plurality and scrub garbage-collects the inconsistency).
  bool mutating = std::any_of(req.ops.begin(), req.ops.end(),
                              [](const Op& op) { return IsMutating(op.type); });
  bool sweep_eligible =
      acting.size() > 1 || (!mutating && ParseEcShardOid(req.oid).has_value());
  if (config_.pull_on_miss && !store_.Exists(req.oid) && sweep_eligible) {
    bool reads_existing = false;
    for (const Op& op : req.ops) {
      switch (op.type) {
        case Op::Type::kRead:
        case Op::Type::kStat:
        case Op::Type::kOmapGet:
        case Op::Type::kOmapList:
        case Op::Type::kXattrGet:
        case Op::Type::kCmpXattr:
        case Op::Type::kSnapRead:
        case Op::Type::kExec:  // class methods may read prior state
          reads_existing = true;
          break;
        default:
          break;
      }
    }
    if (reads_existing) {
      // Candidate holders: the rest of the acting set first, then every
      // other up OSD (after a placement-group split the old acting set can
      // be disjoint from the new one; Ceph consults map history, we sweep).
      std::vector<uint32_t> candidates(acting.begin() + 1, acting.end());
      for (const auto& [id, info] : osd_map_.osds) {
        if (info.up && id != name().id &&
            std::find(candidates.begin(), candidates.end(), id) == candidates.end()) {
          candidates.push_back(id);
        }
      }
      PullThenExecute(request, req, candidates);
      return;
    }
  }
  ExecuteOsdOp(request, req, acting);
}

void Osd::PullThenExecute(const sim::Envelope& request, const OsdOpRequest& req,
                          const std::vector<uint32_t>& candidates) {
  if (candidates.empty()) {
    ExecuteOsdOp(request, req, ActingSetForOid(req.oid, osd_map_, config_.replicas));
    return;
  }
  // One round of pulls: every candidate is asked at once, and answers are
  // settled in candidate order, so the copy adopted is the one a serial
  // sweep would have found first (acting-set peers keep precedence). A
  // crashed candidate still marked up holds the decision for kPullTimeout.
  struct Sweep {
    sim::Envelope request;
    OsdOpRequest req;
    sim::Time start = 0;
    std::vector<bool> answered;
    std::vector<std::optional<Object>> offers;  // adoptable copies only
    size_t next = 0;       // first candidate not yet settled
    bool decided = false;  // the op ran; later replies are dropped
  };
  auto sweep = std::make_shared<Sweep>();
  sweep->request = request;
  sweep->req = req;
  sweep->start = Now();
  sweep->answered.resize(candidates.size());
  sweep->offers.resize(candidates.size());
  perf_.Inc("osd.pull.sweeps");

  mal::Buffer payload = mal::Encode(PullObjectRequest{req.oid});
  for (size_t i = 0; i < candidates.size(); ++i) {
    SendRequest(
        sim::EntityName::Osd(candidates[i]), kMsgPullObject, payload,
        [this, sweep, i](mal::Status status, const sim::Envelope& reply) {
          // After a local crash every pending pull fails here at once; the
          // op died with the daemon, so neither adopt nor execute.
          if (sweep->decided || !alive()) {
            return;
          }
          sweep->answered[i] = true;
          auto pulled = mal::DecodeReply<Object>(status, reply.payload);
          // A malformed reply or a corrupt shard counts as no copy: keep
          // looking for a clean one.
          if (pulled.ok() && AdoptableObject(sweep->req.oid, pulled.value())) {
            sweep->offers[i] = std::move(pulled).value();
          }
          size_t n = sweep->answered.size();
          while (sweep->next < n && sweep->answered[sweep->next] &&
                 !sweep->offers[sweep->next].has_value()) {
            ++sweep->next;
          }
          if (sweep->next < n && !sweep->answered[sweep->next]) {
            return;  // an earlier candidate may still offer a copy
          }
          sweep->decided = true;
          // A write that landed meanwhile is newer than any pulled copy;
          // only fill a hole.
          if (sweep->next < n && !store_.Exists(sweep->req.oid)) {
            store_.Put(sweep->req.oid, std::move(*sweep->offers[sweep->next]));
            perf_.Inc("osd.pull.adopted");
          }
          sweep->offers.clear();
          perf_.Observe("osd.pull.sweep_us",
                        static_cast<double>(Now() - sweep->start) / 1e3);
          ExecuteOsdOp(sweep->request, sweep->req,
                       ActingSetForOid(sweep->req.oid, osd_map_, config_.replicas));
        },
        kPullTimeout);
  }
}

void Osd::ExecuteOsdOp(const sim::Envelope& request, const OsdOpRequest& req_in,
                       const std::vector<uint32_t>& acting) {
  sim::Envelope req_envelope = request;
  sim::Time arrival = Now();
  AfterCpu(OpCost(req_in), [this, req = req_in, req_envelope, acting, arrival] {
    ++ops_served_;
    // Count the transaction under its first op's type (how Ceph labels a
    // multi-op MOSDOp), and every constituent op individually.
    std::string op_type = req.ops.empty() ? "empty" : OpTypeName(req.ops[0].type);
    for (const Op& op : req.ops) {
      perf_.Inc(std::string("osd.op.") + OpTypeName(op.type) + ".count");
    }
    auto results = std::make_shared<std::vector<OpResult>>();
    std::vector<Op> expanded;
    mal::Status status =
        store_.ApplyTransaction(req.oid, req.ops, results.get(),
                                std::bind_front(&Osd::RunClassMethod, this), &expanded);
    if (!status.ok()) {
      perf_.Inc(status.code() == mal::Code::kAborted ? "osd.txn_aborts"
                                                     : "osd.txn_failures");
    }

    auto send_reply = [this, req_envelope, results, arrival, op_type] {
      perf_.Observe("osd.op." + op_type + ".latency_us",
                    static_cast<double>(Now() - arrival) / 1e3);
      OsdOpReply reply;
      reply.map_epoch = osd_map_.epoch;
      reply.results = *results;
      Reply(req_envelope, mal::EncodeSegmented(reply));
    };

    bool mutating = std::any_of(expanded.begin(), expanded.end(),
                                [](const Op& op) { return IsMutating(op.type); });
    if (!status.ok() || !mutating) {
      send_reply();  // read-only or failed: nothing committed, no replication round
      return;
    }
    NotifyWatchers(req.oid);

    // Replicate the expanded transaction.
    std::vector<uint32_t> replicas(acting.begin() + 1, acting.end());
    if (replicas.empty()) {
      send_reply();
      return;
    }
    // Encode the replicated transaction once; each SendRequest below takes
    // a COW alias of the same bytes, so fan-out is O(replicas), not
    // O(replicas * payload). Bulk op data rides as segments that alias the
    // client's request, so primary and replicas store one copy.
    OsdOpRequest rep;
    rep.oid = req.oid;
    rep.ops = std::move(expanded);
    mal::Payload rep_payload = mal::EncodeSegmented(rep);

    auto pending = std::make_shared<size_t>(replicas.size());
    auto replied = std::make_shared<bool>(false);
    for (uint32_t replica : replicas) {
      SendRequest(sim::EntityName::Osd(replica), kMsgRepOp, rep_payload,
                  [pending, replied, send_reply](mal::Status, const sim::Envelope&) {
                    // Timeouts still decrement: a down replica must not
                    // wedge the write (recovery heals it later).
                    if (--*pending == 0 && !*replied) {
                      *replied = true;
                      send_reply();
                    }
                  },
                  kReplicationTimeout);
    }
  });
}

void Osd::HandleRepOp(const sim::Envelope& request, OsdOpRequest req) {
  sim::Envelope req_envelope = request;
  AfterCpu(OpCost(req), [this, req = std::move(req), req_envelope] {
    perf_.Inc("osd.repop.count");
    std::vector<OpResult> results;
    mal::Status s = store_.ApplyTransaction(req.oid, req.ops, &results);
    if (!s.ok()) {
      ReplyError(req_envelope, s);
      return;
    }
    Reply(req_envelope, mal::Buffer());
  });
}

void Osd::AdoptMap(const mon::OsdMap& map, bool gossip) {
  if (map.epoch <= osd_map_.epoch) {
    return;
  }
  if (config_.map_apply_cost > 0) {
    // Charge the decode/install work, then re-check freshness: a newer map
    // may have arrived while this one was being processed.
    AfterCpu(config_.map_apply_cost, [this, map, gossip] {
      if (map.epoch > osd_map_.epoch) {
        AdoptMapNow(map, gossip);
      }
    });
    return;
  }
  AdoptMapNow(map, gossip);
}

void Osd::AdoptMapNow(const mon::OsdMap& map, bool gossip) {
  osd_map_ = map;
  InstallScriptInterfaces();
  if (on_map_applied) {
    on_map_applied(osd_map_.epoch);
  }
  if (gossip && config_.gossip_fanout > 0) {
    std::vector<uint32_t> peers;
    for (const auto& [id, info] : osd_map_.osds) {
      if (info.up && id != name().id) {
        peers.push_back(id);
      }
    }
    // Encode the map once; every fanout target shares the same bytes.
    mal::Buffer encoded_map;
    if (!peers.empty() && config_.gossip_fanout > 0) {
      encoded_map = mal::Encode(osd_map_);
    }
    for (uint32_t i = 0; i < config_.gossip_fanout && !peers.empty(); ++i) {
      size_t pick = rng_.NextBelow(peers.size());
      SendOneWay(sim::EntityName::Osd(peers[pick]), kMsgGossipMap, encoded_map);
      peers.erase(peers.begin() + static_cast<ptrdiff_t>(pick));
    }
  }
}

void Osd::InstallScriptInterfaces() {
  constexpr char kSrcPrefix[] = "cls.src.";
  constexpr char kVerPrefix[] = "cls.ver.";
  for (const auto& [key, source] : osd_map_.service_metadata) {
    if (key.rfind(kSrcPrefix, 0) != 0) {
      continue;
    }
    std::string cls_name = key.substr(sizeof(kSrcPrefix) - 1);
    std::string version;
    auto ver_it = osd_map_.service_metadata.find(kVerPrefix + cls_name);
    if (ver_it != osd_map_.service_metadata.end()) {
      version = ver_it->second;
    }
    if (registry_.ScriptVersion(cls_name) == version) {
      continue;  // already current
    }
    mal::Status s = registry_.InstallScript(cls_name, version, source);
    if (!s.ok()) {
      MAL_WARN(name().ToString()) << "script class " << cls_name << " install failed: " << s;
      mon_client_.Log("ERROR", "cls " + cls_name + "@" + version + " install: " + s.ToString());
      continue;
    }
    if (on_interface_installed) {
      on_interface_installed(cls_name, version);
    }
  }
}

void Osd::GossipTo(uint32_t peer) {
  SendOneWay(sim::EntityName::Osd(peer), kMsgGossipMap, mal::Encode(osd_map_));
}

void Osd::HandleGossip(uint32_t from, const mon::OsdMap& map) {
  if (map.epoch > osd_map_.epoch) {
    AdoptMap(map, /*gossip=*/true);
  } else if (map.epoch < osd_map_.epoch) {
    GossipTo(from);  // peer is behind: push ours back
  }
}

void Osd::HandlePull(const sim::Envelope& request, PullObjectRequest req) {
  auto object = store_.Get(req.oid);
  if (!object.ok()) {
    ReplyError(request, object.status());
    return;
  }
  Reply(request, mal::EncodeSegmented(*object.value()));
}

void Osd::HandleListObjects(const sim::Envelope& request, ListObjectsRequest req) {
  mal::Buffer reply = mal::Encode(ListObjectsReply{store_.List(req.prefix)});
  sim::Time cost = config_.op_cpu_cost +
                   static_cast<sim::Time>(config_.per_byte_cpu_ns *
                                          static_cast<double>(reply.size()));
  AfterCpu(cost, [this, request, reply] { Reply(request, reply); });
}

void Osd::HandleWatch(const sim::Envelope& request, WatchRequest req) {
  if (req.unwatch) {
    auto it = watchers_.find(req.oid);
    if (it != watchers_.end()) {
      it->second.erase(request.from);
      if (it->second.empty()) {
        watchers_.erase(it);
      }
    }
  } else {
    watchers_[req.oid].insert(request.from);
  }
  Reply(request, mal::Buffer());
}

void Osd::NotifyWatchers(const std::string& oid) {
  auto it = watchers_.find(oid);
  if (it == watchers_.end()) {
    return;
  }
  NotifyEvent event;
  event.oid = oid;
  if (auto object = store_.Get(oid); object.ok()) {
    event.version = object.value()->version;
  }
  mal::Buffer payload = mal::Encode(event);
  for (const sim::EntityName& watcher : it->second) {
    SendOneWay(watcher, kMsgNotify, payload);
  }
}

}  // namespace mal::osd
