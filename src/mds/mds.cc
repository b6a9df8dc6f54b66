#include "src/mds/mds.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/common/trace.h"

namespace mal::mds {

namespace {

// Authority for "/" and the coherence anchor.
constexpr uint32_t kRootRank = 0;

const char* LeaseModeName(LeaseMode mode) {
  switch (mode) {
    case LeaseMode::kBestEffort:
      return "best_effort";
    case LeaseMode::kDelay:
      return "delay";
    case LeaseMode::kQuota:
      return "quota";
    case LeaseMode::kRoundTrip:
      return "round_trip";
  }
  return "unknown";
}

std::string ParentPath(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) {
    return "/";
  }
  return path.substr(0, slash);
}

}  // namespace

MdsDaemon::MdsDaemon(sim::Simulator* simulator, sim::Network* network, uint32_t id,
                     std::vector<uint32_t> mons, MdsConfig config)
    : Actor(simulator, network, sim::EntityName::Mds(id)),
      config_(config),
      rados_(this, std::move(mons)) {
  rng_.Seed(config.seed * 0x9e3779b97f4a7c15ULL + id + 1);
  RegisterHandlers();
  SetInboxLimit(config_.inbox_depth);
  SetServicePerf(&perf_);
  TrackCpuBusy(config_.load_window);  // read by ReportLoad
}

void MdsDaemon::RegisterHandlers() {
  // kMsgClientRequest and kMsgForward carry the same typed payload and
  // differ only in the `forwarded` flag the handler receives.
  dispatcher_.OnTyped<ClientRequest>(
      kMsgClientRequest, [this](const sim::Envelope& env, ClientRequest req) {
        HandleClientRequest(env, std::move(req), /*forwarded=*/false);
      });
  dispatcher_.OnTyped<ClientRequest>(
      kMsgForward, [this](const sim::Envelope& env, ClientRequest req) {
        HandleClientRequest(env, std::move(req), /*forwarded=*/true);
      });
  dispatcher_.OnTyped<MigrateRequest>(
      kMsgMigrate, [this](const sim::Envelope& env, MigrateRequest migrate) {
        HandleMigrateIn(env, std::move(migrate));
      });
  dispatcher_.OnTyped<AuthorityUpdate>(
      kMsgAuthorityUpdate, [this](const sim::Envelope&, AuthorityUpdate update) {
        HandleAuthorityUpdate(update);
      });
  dispatcher_.OnTyped<LoadReport>(
      kMsgLoadReport, [this](const sim::Envelope&, LoadReport report) {
        load_table_[report.rank] = std::move(report.metrics);
      });
  dispatcher_.On(kMsgCoherence, [this](const sim::Envelope&) {
    // Scatter-gather participation: pure CPU strain at the root.
    ReserveCpu(config_.coherence_peer_cost);
  });
  dispatcher_.On(mon::kMsgMapUpdate,
                 [this](const sim::Envelope& env) { HandleMapUpdate(env); });
}

MdsDaemon::~MdsDaemon() = default;

void MdsDaemon::Boot() {
  mon::Transaction boot;
  boot.op = mon::Transaction::Op::kMdsBoot;
  boot.daemon_id = name().id;
  mon_client().SubmitTransaction(boot, [](mal::Status) {});
  mon_client().Subscribe(mon::MapKind::kMdsMap, [this] { return mds_map_.epoch; });
  rados_.Connect([](mal::Status) {});
  window_start_ = Now();

  // Guarded so a post-crash re-Boot never resets a surviving root inode.
  if (name().id == kRootRank && inodes_.count("/") == 0) {
    HostedInode root;
    root.inode.ino = next_ino_++;
    root.inode.type = InodeType::kDir;
    inodes_["/"] = std::move(root);
  }
  StartPeriodic(config_.load_report_interval, [this] { ReportLoad(); });
  StartPeriodic(config_.balance_interval, [this] {
    if (config_.balancing_enabled && policy_ != nullptr) {
      BalanceTick();
    }
  });
  rados_.set_perf(&perf_);
  mon_client().StartPerfReports(perf_);
}

void MdsDaemon::SetBalancerPolicy(std::shared_ptr<BalancerPolicy> policy) {
  policy_ = std::move(policy);
}

void MdsDaemon::Crash() {
  Actor::Crash();
  // inodes_ and authority_ model journaled metadata and survive; everything
  // below is in-memory state a restarted MDS would not have.
  load_table_.clear();
  window_requests_ = 0;
  queued_by_sender_.clear();  // the queued work died with us
  queued_total_ = 0;
  for (auto& [path, hosted] : inodes_) {
    hosted.window_requests = 0;
    hosted.cap.waiters.clear();  // the queued rpcs died with us
    hosted.waiters.clear();
  }
}

void MdsDaemon::Recover() {
  Actor::Recover();
  // Rebuild sequencer state from the inode-embedded counter (§4.3.2): the
  // durable seq_tail already covers every grant we acknowledged, so nothing
  // to replay. Outstanding caps are another matter — the MDS cannot know
  // whether the holder (and its locally cached tail) is still alive, so the
  // cap is dropped and sequencer inodes are fenced behind CORFU recovery,
  // exactly like a reclaim after an ignored revoke.
  for (auto& [path, hosted] : inodes_) {
    if (!hosted.cap.held) {
      continue;
    }
    hosted.cap.held = false;
    hosted.cap.revoke_sent = false;
    if (hosted.inode.type == InodeType::kSequencer) {
      hosted.inode.params["needs_recovery"] = "1";
      perf_.Inc("mds.cap.recover_fenced");
    }
  }
  // Re-drive any migration whose freeze was journaled before the crash: the
  // transfer is idempotent (the target max-merges the tail), so resending
  // can never reissue a position.
  for (auto& [path, hosted] : inodes_) {
    auto frozen = hosted.inode.params.find("migrating_to");
    if (frozen == hosted.inode.params.end()) {
      continue;
    }
    uint32_t target = static_cast<uint32_t>(std::stoul(frozen->second));
    std::string p = path;
    DriveMigration(p, target, /*publish=*/true, [this, p](mal::Status s) {
      if (!s.ok()) {
        MAL_WARN(name().ToString())
            << "post-crash migration re-drive of " << p << " failed: " << s;
      }
    });
  }
  // Keep the (stale) mds_map_: epochs observed by this daemon must never
  // regress, and Boot()'s subscribe (have_epoch=0) pushes the current map.
  Boot();
}

std::vector<std::pair<std::string, sim::EntityName>> MdsDaemon::HeldCaps() const {
  std::vector<std::pair<std::string, sim::EntityName>> held;
  for (const auto& [path, hosted] : inodes_) {
    if (hosted.cap.held) {
      held.emplace_back(path, hosted.cap.holder);
    }
  }
  return held;
}

std::vector<uint32_t> MdsDaemon::PeerRanks() const {
  std::vector<uint32_t> peers;
  for (const auto& [id, info] : mds_map_.mds) {
    if (info.state == mon::MdsState::kActive && id != name().id) {
      peers.push_back(id);
    }
  }
  return peers;
}

void MdsDaemon::BroadcastAuthority(const std::string& path, uint32_t target) {
  mal::Buffer update = mal::Encode(AuthorityUpdate{path, target});
  for (uint32_t peer : PeerRanks()) {
    if (peer != target) {
      SendOneWay(sim::EntityName::Mds(peer), kMsgAuthorityUpdate, update);
    }
  }
}

uint32_t MdsDaemon::AuthorityOf(const std::string& path) const {
  if (inodes_.count(path) != 0) {
    return name().id;
  }
  auto it = authority_.find(path);
  if (it != authority_.end()) {
    return it->second;
  }
  // The published sequencer-ownership map outranks the parent fallback:
  // any rank can answer "who owns this log?" without having hosted it.
  if (config_.seq_ownership) {
    if (std::optional<uint32_t> owner = MapOwnerOf(path)) {
      return *owner;
    }
  }
  // Fall back to the parent directory's authority, then the root.
  std::string parent = ParentPath(path);
  if (parent != path) {
    if (inodes_.count(parent) != 0) {
      return name().id;
    }
    auto pit = authority_.find(parent);
    if (pit != authority_.end()) {
      return pit->second;
    }
  }
  return kRootRank;
}

const Inode* MdsDaemon::GetInode(const std::string& path) const {
  auto it = inodes_.find(path);
  return it == inodes_.end() ? nullptr : &it->second.inode;
}

void MdsDaemon::HandleRequest(const sim::Envelope& request) {
  dispatcher_.Dispatch(request);
}

void MdsDaemon::HandleMapUpdate(const sim::Envelope& request) {
  // Decoded once for both consumers: the embedded RADOS client takes OSDMap
  // pushes, this daemon MDSMap pushes.
  auto update = mal::Decode<mon::MapUpdate>(request.payload);
  if (!update.ok()) {
    MAL_WARN(name().ToString()) << "dropping malformed map update: " << update.status();
    return;
  }
  if (rados_.OnMapUpdate(update.value()) || update.value().kind != mon::MapKind::kMdsMap) {
    return;
  }
  auto map = mal::Decode<mon::MdsMap>(update.value().map_payload);
  if (!map.ok()) {
    MAL_WARN(name().ToString()) << "dropping malformed mds map: " << map.status();
    return;
  }
  if (map.value().epoch > mds_map_.epoch) {
    mds_map_ = std::move(map).value();
    if (config_.seq_ownership) {
      SeqOwnershipSweep();
    }
  }
}

// Reconcile hosted sequencers against the ownership map whenever it moves.
// Three cases per hosted kSequencer inode with a published entry:
//  - entry names us: ownership is settled; drop any owner_pending marker.
//  - entry names another rank and we are mid-migration to it: nothing to do.
//  - entry names another rank otherwise: either our publish is still in
//    flight / lost (owner_pending set — re-drive it; last write wins at the
//    monitor, and the re-published entry names us), or the map is the truth
//    and we hold a stale copy (e.g. we crashed, a client ran takeover on a
//    survivor, and we recovered with the old inode) — demote: hand our copy
//    to the published owner so its tail max-merges into the live one, then
//    forget it. The merge direction guarantees the cluster-wide max tail
//    never regresses.
void MdsDaemon::SeqOwnershipSweep() {
  std::vector<std::pair<std::string, uint32_t>> demote;
  for (auto& [path, hosted] : inodes_) {
    if (hosted.inode.type != InodeType::kSequencer) {
      continue;
    }
    std::optional<uint32_t> owner = MapOwnerOf(path);
    if (!owner) {
      continue;
    }
    if (*owner == name().id) {
      hosted.inode.params.erase("owner_pending");
      continue;
    }
    if (hosted.inode.params.count("migrating_to") != 0) {
      continue;
    }
    if (hosted.inode.params.count("owner_pending") != 0) {
      PublishSeqOwner(path);
      continue;
    }
    demote.emplace_back(path, *owner);
  }
  for (const auto& [path, owner] : demote) {
    perf_.Inc("mds.seq.demotions");
    std::string p = path;
    StartMigration(p, owner, /*publish=*/false, [this, p](mal::Status s) {
      if (!s.ok()) {
        MAL_WARN(name().ToString()) << "demotion of " << p << " failed: " << s;
      }
    });
  }
}

void MdsDaemon::HandleClientRequest(const sim::Envelope& request, ClientRequest req,
                                    bool forwarded) {
  ++requests_handled_;
  ++window_requests_;
  RouteDecision route = Route(req, forwarded);
  if (route.kind != RouteKind::kServe) {
    PassOn(request, route);
    return;
  }

  // We are the authority. Work cost: forwarded requests skip the handling
  // charge (the proxy already paid it); direct requests at a non-root
  // authority pay the coherence tax and strain the root.
  sim::Time cost = forwarded ? 0 : config_.handle_cost;
  if (!forwarded && name().id != kRootRank &&
      request.from.type == sim::EntityType::kClient &&
      !(config_.seq_ownership && MapOwnerOf(req.path).has_value())) {
    // Published sequencer owners skip the scatter-gather coherence tax:
    // the ownership map, not root-anchored cache coherence, is what keeps
    // every rank's view of the placement consistent. This is what makes
    // grant capacity scale with MDS count.
    cost += config_.coherence_self_cost;
    SendOneWay(sim::EntityName::Mds(kRootRank), kMsgCoherence, mal::Buffer());
  }
  if (req.op == MdsOp::kSeqRead || req.op == MdsOp::kSeqNextBatch) {
    cost += config_.tail_cost;
  }
  if (req.op == MdsOp::kAcquireCap || req.op == MdsOp::kReleaseCap) {
    cost += config_.cap_process_cost;
  }
  sim::Envelope req_envelope = request;
  sim::Time arrival = Now();
  ++queued_by_sender_[request.from];
  ++queued_total_;
  AfterCpu(cost, [this, req_envelope, req, forwarded, arrival] {
    auto queued = queued_by_sender_.find(req_envelope.from);
    if (--queued->second == 0) {
      queued_by_sender_.erase(queued);
    }
    --queued_total_;
    // Work-queue time (queueing + service) for requests we serve ourselves.
    perf_.Observe("mds.queue_us", static_cast<double>(Now() - arrival) / 1e3);
    if (config_.seq_ownership && req.op == MdsOp::kSeqNextBatch) {
      // Per-rank grant latency (queue + service), the telemetry row the
      // hot-log balancing policies and the multilog bench watch.
      perf_.Observe("mds.seq.grant_us", static_cast<double>(Now() - arrival) / 1e3);
    }
    ExecuteRequest(req_envelope, req, forwarded);
  });
}

MdsDaemon::RouteDecision MdsDaemon::Route(const ClientRequest& req, bool forwarded) const {
  // A takeover install (CORFU failover onto this rank) is allowed to land
  // where the client aimed it: the ownership map still names the crashed
  // rank, so routing it by authority would bounce the recovery forever.
  if (config_.seq_ownership && req.op == MdsOp::kSetSeqState &&
      req.params.count("takeover") != 0) {
    return {RouteKind::kServe, name().id};
  }
  uint32_t authority = AuthorityOf(req.path);
  if (authority == name().id) {
    return {RouteKind::kServe, authority};
  }
  // Redirect, never proxy: a forward that lost a race with a migration,
  // client routing mode, and sharded paths with explicit ownership (a
  // published entry or a migration hint).
  bool redirect =
      forwarded || config_.routing == RoutingMode::kRedirect ||
      (config_.seq_ownership &&
       (MapOwnerOf(req.path).has_value() || authority_.count(req.path) != 0));
  return {redirect ? RouteKind::kRedirect : RouteKind::kProxy, authority};
}

void MdsDaemon::PassOn(const sim::Envelope& request, RouteDecision route, bool follow) {
  if (route.kind == RouteKind::kRedirect) {
    perf_.Inc("mds.seq.redirects");
    ReplyError(request, WrongRankReply(route.rank, mds_map_.epoch));
    return;
  }
  // Proxy: the relay happens on the dispatch (messenger) lane so it does not
  // queue behind local tail-finding work, but each proxied request still
  // steals admin capacity from the work queue.
  perf_.Inc("mds.proxied");
  ReserveCpu(config_.proxy_admin_cost);
  sim::Time relay_cost = config_.handle_cost + config_.forward_cost;
  AfterDispatch(relay_cost, [this, original = request, rank = route.rank, follow] {
    SendRequest(sim::EntityName::Mds(rank), kMsgForward, original.payload,
                [this, original, follow](mal::Status status, const sim::Envelope& reply) {
                  uint32_t moved_to = 0;
                  uint64_t epoch = 0;
                  if (follow && ParseWrongRank(status, &moved_to, &epoch)) {
                    // The forward lost a race with a migration: follow the inode
                    // once for the client, which proxy mode keeps on this rank.
                    PassOn(original, {RouteKind::kProxy, moved_to}, /*follow=*/false);
                    return;
                  }
                  if (status.ok()) {
                    Reply(original, reply.payload);
                  } else {
                    ReplyError(original, status);
                  }
                },
                60 * sim::kSecond);
  });
}

bool MdsDaemon::OthersQueued(const sim::EntityName& from) const {
  auto own = queued_by_sender_.find(from);
  return queued_total_ > (own == queued_by_sender_.end() ? 0 : own->second);
}

void MdsDaemon::ReplyServed(const sim::Envelope& request, MdsOp op, const MdsReply& reply) {
  Reply(request, RepliesWithMdsReply(op) ? mal::Encode(reply) : mal::Buffer());
}

void MdsDaemon::ExecuteRequest(const sim::Envelope& request, const ClientRequest& req,
                               bool forwarded) {
  // Routed again: a migration may have committed while the request waited
  // in the work queue or on the frozen inode.
  RouteDecision route = Route(req, forwarded);
  if (route.kind != RouteKind::kServe) {
    PassOn(request, route);
    return;
  }
  auto it = inodes_.find(req.path);
  if (it != inodes_.end()) {
    ++it->second.window_requests;
    if (it->second.inode.params.count("migrating_to") != 0 && req.op != MdsOp::kLookup &&
        req.op != MdsOp::kSeqRead) {
      // Migration freeze: the request waits until the transfer commits (then
      // it follows the inode to the target) or aborts (then it runs here).
      it->second.waiters.push_back({request, req, forwarded});
      return;
    }
  }
  switch (req.op) {
    case MdsOp::kMkdir:
    case MdsOp::kCreate: {
      if (it != inodes_.end()) {
        ReplyError(request, mal::Status::AlreadyExists(req.path));
        return;
      }
      HostedInode hosted;
      hosted.inode.ino = next_ino_++;
      hosted.inode.type = req.op == MdsOp::kMkdir ? InodeType::kDir : req.inode_type;
      hosted.inode.lease_policy = req.policy;
      MdsReply reply;
      reply.inode = hosted.inode;
      bool new_seq = hosted.inode.type == InodeType::kSequencer;
      inodes_[req.path] = std::move(hosted);
      if (config_.seq_ownership && new_seq) {
        // Every sequencer gets a published owner from birth, so clients can
        // find (and failover-recover) a log that never migrated. The
        // owner_pending marker re-drives the publish if it is lost.
        inodes_[req.path].inode.params["owner_pending"] = "1";
        PublishSeqOwner(req.path);
        UpdateOwnedLogsGauge();
      }
      ReplyServed(request, req.op, reply);
      return;
    }
    case MdsOp::kLookup: {
      if (it == inodes_.end()) {
        ReplyError(request, mal::Status::NotFound(req.path));
        return;
      }
      MdsReply reply;
      reply.inode = it->second.inode;
      reply.seq_value = it->second.inode.seq_tail;
      ReplyServed(request, req.op, reply);
      return;
    }
    case MdsOp::kUnlink: {
      if (it == inodes_.end()) {
        ReplyError(request, mal::Status::NotFound(req.path));
        return;
      }
      inodes_.erase(it);
      // The name stays here: peers still route it to this rank, so falling
      // back to the parent's authority would bounce it between the two.
      if (AuthorityOf(req.path) != name().id) {
        authority_[req.path] = name().id;
      }
      if (config_.seq_ownership) {
        UpdateOwnedLogsGauge();
      }
      ReplyServed(request, req.op);
      return;
    }
    case MdsOp::kSetPolicy: {
      if (it == inodes_.end()) {
        ReplyError(request, mal::Status::NotFound(req.path));
        return;
      }
      it->second.inode.lease_policy = req.policy;
      ReplyServed(request, req.op);
      return;
    }
    case MdsOp::kSeqRead:
    case MdsOp::kSeqNextBatch: {
      if (it == inodes_.end()) {
        ReplyError(request, mal::Status::NotFound(req.path));
        return;
      }
      HostedInode& hosted = it->second;
      if (hosted.inode.type != InodeType::kSequencer) {
        ReplyError(request, mal::Status::InvalidArgument(req.path + " is not a sequencer"));
        return;
      }
      if (hosted.cap.held) {
        // A cached holder owns the tail; round-trippers must wait for the
        // cap system (mixing modes is an application bug worth surfacing).
        ReplyError(request, mal::Status::Unavailable("tail cached by " +
                                                     hosted.cap.holder.ToString()));
        return;
      }
      if (hosted.inode.params.count("needs_recovery") != 0) {
        ReplyError(request, mal::Status::Aborted("sequencer needs recovery"));
        return;
      }
      MdsReply reply;
      reply.seq_value = hosted.inode.seq_tail;
      if (req.op == MdsOp::kSeqNextBatch) {
        // Reserve req.seq_value contiguous positions in one round-trip.
        // The advanced tail is durable in the inode, so recovery seals at
        // or past every granted position; granted-but-unwritten positions
        // surface as holes, never as data.
        uint64_t count = std::max<uint64_t>(req.seq_value, 1);
        perf_.Inc("mds.seq.batch_grants");
        perf_.Inc("mds.seq.positions_granted", count);
        hosted.inode.seq_tail += count;
        if (OthersQueued(request.from)) {
          // Storage-to-application hint: other clients wait behind this
          // grant, so the log should fold its ready batches into one grant.
          // Grant replies carry an otherwise empty inode, so uncontended
          // replies stay byte-identical.
          perf_.Inc("mds.seq.contended_grants");
          reply.inode.params["contended"] = "1";
        }
      }
      ReplyServed(request, req.op, reply);
      return;
    }
    case MdsOp::kAcquireCap: {
      if (it == inodes_.end()) {
        ReplyError(request, mal::Status::NotFound(req.path));
        return;
      }
      HostedInode& hosted = it->second;
      if (hosted.inode.lease_policy.mode == LeaseMode::kRoundTrip) {
        ReplyError(request,
                   mal::Status::PermissionDenied("inode is non-cacheable (round-trip)"));
        return;
      }
      if (hosted.inode.params.count("needs_recovery") != 0) {
        ReplyError(request, mal::Status::Aborted("sequencer needs recovery"));
        return;
      }
      if (!hosted.cap.held) {
        GrantCap(req.path, hosted, request);
        return;
      }
      if (hosted.cap.holder == request.from) {
        GrantCap(req.path, hosted, request);  // re-grant to current holder
        return;
      }
      hosted.cap.waiters.push_back(request);
      MaybeRevoke(req.path, hosted);
      return;
    }
    case MdsOp::kReleaseCap: {
      if (it == inodes_.end()) {
        ReplyError(request, mal::Status::NotFound(req.path));
        return;
      }
      HostedInode& hosted = it->second;
      if (!hosted.cap.held || !(hosted.cap.holder == request.from)) {
        ReplyError(request, mal::Status::PermissionDenied("not the cap holder"));
        return;
      }
      hosted.inode.seq_tail = std::max(hosted.inode.seq_tail, req.seq_value);
      hosted.cap.held = false;
      hosted.cap.revoke_sent = false;
      ReplyServed(request, req.op);
      if (!hosted.cap.waiters.empty()) {
        sim::Envelope next = hosted.cap.waiters.front();
        hosted.cap.waiters.pop_front();
        GrantCap(req.path, hosted, next);
      }
      return;
    }
    case MdsOp::kSetSize: {
      if (it == inodes_.end()) {
        ReplyError(request, mal::Status::NotFound(req.path));
        return;
      }
      it->second.inode.size = req.seq_value;
      ReplyServed(request, req.op);
      return;
    }
    case MdsOp::kSetSeqState: {
      const bool takeover = config_.seq_ownership && req.params.count("takeover") != 0;
      if (it == inodes_.end()) {
        if (!takeover) {
          ReplyError(request, mal::Status::NotFound(req.path));
          return;
        }
        // CORFU failover onto this rank: the owning rank died, a client
        // sealed the stripe at a new epoch and is installing the recovered
        // tail here. Create the inode, claim ownership, publish it. The
        // sealed tail covers every *written* position; any higher grant the
        // dead rank journaled is fenced by the epoch bump, so re-granting
        // below it can never duplicate an acked position.
        HostedInode hosted;
        hosted.inode.ino = next_ino_++;
        hosted.inode.type = InodeType::kSequencer;
        hosted.inode.lease_policy = req.policy;
        it = inodes_.emplace(req.path, std::move(hosted)).first;
        perf_.Inc("mds.seq.takeovers");
        mon_client().Log("WARN", "sequencer " + req.path +
                                    " taken over by mds." + std::to_string(name().id));
      }
      Inode& inode = it->second.inode;
      inode.seq_tail = req.seq_value;
      for (const auto& [key, value] : req.params) {
        if (key == "takeover") {
          continue;  // directive, not sequencer state
        }
        if (value.empty()) {
          inode.params.erase(key);
        } else {
          inode.params[key] = value;
        }
      }
      if (takeover && MapOwnerOf(req.path) != std::optional<uint32_t>(name().id)) {
        inode.params["owner_pending"] = "1";
        PublishSeqOwner(req.path);
      }
      if (config_.seq_ownership) {
        UpdateOwnedLogsGauge();
      }
      ReplyServed(request, req.op);
      return;
    }
  }
  ReplyError(request, mal::Status::Unimplemented("unknown mds op"));
}

void MdsDaemon::GrantCap(const std::string& path, HostedInode& hosted,
                         const sim::Envelope& to) {
  perf_.Inc(std::string("mds.cap.grants.") +
            LeaseModeName(hosted.inode.lease_policy.mode));
  hosted.cap.held = true;
  hosted.cap.holder = to.from;
  hosted.cap.grant_time_ns = Now();
  hosted.cap.revoke_sent = false;
  MdsReply reply;
  reply.seq_value = hosted.inode.seq_tail;
  reply.terms = hosted.inode.lease_policy;
  reply.grant_time_ns = Now();
  reply.inode = hosted.inode;
  ReplyServed(to, MdsOp::kAcquireCap, reply);
  // If others are already waiting, start the revocation clock immediately
  // (this is what yields the round-robin batching behavior of §5.2.1).
  if (!hosted.cap.waiters.empty()) {
    MaybeRevoke(path, hosted);
  }
}

void MdsDaemon::MaybeRevoke(const std::string& path, HostedInode& hosted) {
  if (!hosted.cap.held || hosted.cap.revoke_sent) {
    return;
  }
  hosted.cap.revoke_sent = true;
  perf_.Inc("mds.cap.revokes");
  SendOneWay(hosted.cap.holder, kMsgCapRevoke, mal::Encode(CapRevoke{path}));

  // Failure handling: if the holder never answers, declare it dead, reclaim
  // the cap, and flag the inode so the next client runs CORFU recovery
  // (the locally cached tail died with the holder).
  // Guarded: a reclaim armed before a crash must not fire into the
  // recovered instance (Recover() already invalidated every cap).
  sim::EntityName holder = hosted.cap.holder;
  uint64_t grant_time = hosted.cap.grant_time_ns;
  ScheduleGuarded(config_.cap_reclaim_timeout, [this, path, holder, grant_time] {
    auto it = inodes_.find(path);
    if (it == inodes_.end()) {
      return;
    }
    HostedInode& current = it->second;
    if (!current.cap.held || !(current.cap.holder == holder) ||
        current.cap.grant_time_ns != grant_time) {
      return;  // cap moved on; the holder complied after all
    }
    current.cap.held = false;
    current.cap.revoke_sent = false;
    current.inode.params["needs_recovery"] = "1";
    perf_.Inc("mds.cap.reclaims");
    mon_client().Log("WARN", "reclaimed cap on " + path + " from dead client " +
                                holder.ToString());
    // Fail queued waiters so they initiate recovery.
    while (!current.cap.waiters.empty()) {
      ReplyError(current.cap.waiters.front(),
                 mal::Status::Aborted("sequencer needs recovery"));
      current.cap.waiters.pop_front();
    }
  });
}

// -- migration ------------------------------------------------------------------

void MdsDaemon::Migrate(const std::string& path, uint32_t target,
                        std::function<void(mal::Status)> on_done) {
  StartMigration(path, target, /*publish=*/true, std::move(on_done));
}

void MdsDaemon::MigrateSequencer(const std::string& path, uint32_t target,
                                 std::function<void(mal::Status)> on_done) {
  if (!config_.seq_ownership) {
    on_done(mal::Status::InvalidArgument("seq_ownership is disabled"));
    return;
  }
  auto it = inodes_.find(path);
  if (it != inodes_.end() && it->second.inode.type != InodeType::kSequencer) {
    on_done(mal::Status::InvalidArgument(path + " is not a sequencer"));
    return;
  }
  Migrate(path, target, std::move(on_done));
}

sim::Time MdsDaemon::MigrationCost(const Inode& inode) const {
  return config_.seq_ownership && inode.type == InodeType::kSequencer
             ? config_.seq_handoff_cost
             : config_.migration_cost;
}

void MdsDaemon::StartMigration(const std::string& path, uint32_t target, bool publish,
                               std::function<void(mal::Status)> on_done) {
  auto it = inodes_.find(path);
  if (it == inodes_.end()) {
    on_done(mal::Status::NotFound("not authoritative for " + path));
    return;
  }
  HostedInode& hosted = it->second;
  if (hosted.cap.held) {
    on_done(mal::Status::Unavailable("cap outstanding on " + path));
    return;
  }
  if (target == name().id) {
    on_done(mal::Status::InvalidArgument("cannot migrate to self"));
    return;
  }
  if (hosted.inode.params.count("migrating_to") != 0) {
    on_done(mal::Status::Unavailable("migration already in progress for " + path));
    return;
  }
  // Phase 1: freeze. The marker is journaled with the inode, so a source
  // that crashes mid-migration re-drives the transfer on recovery instead of
  // serving requests with a copy the target may already have advanced past.
  hosted.inode.params["migrating_to"] = std::to_string(target);
  DriveMigration(path, target, publish, std::move(on_done));
}

void MdsDaemon::DriveMigration(const std::string& path, uint32_t target, bool publish,
                               std::function<void(mal::Status)> on_done) {
  // Migration costs CPU on both ends (the Fig 9 dip during rebalancing).
  AfterCpu(MigrationCost(inodes_.at(path).inode), [this, path, target, publish,
                                                   on_done = std::move(on_done)] {
    auto it = inodes_.find(path);
    if (it == inodes_.end()) {
      on_done(mal::Status::NotFound("inode vanished during migration"));
      return;
    }
    // Phase 2: transfer. Encoded now — after the freeze took effect — so the
    // shipped inode covers every request this rank ever acknowledged.
    Inode copy = it->second.inode;
    copy.params.erase("migrating_to");
    copy.params.erase("owner_pending");
    mal::Buffer payload = mal::Encode(MigrateRequest{path, publish, std::move(copy)});
    SendRequest(
        sim::EntityName::Mds(target), kMsgMigrate, std::move(payload),
        [this, path, target, on_done](mal::Status status, const sim::Envelope&) {
          std::deque<Waiter> queued;
          auto it2 = inodes_.find(path);
          if (it2 != inodes_.end()) {
            queued.swap(it2->second.waiters);
            if (status.ok()) {
              inodes_.erase(it2);
            } else {
              it2->second.inode.params.erase("migrating_to");
            }
          }
          if (status.ok()) {
            authority_[path] = target;
          }
          // The queued requests are routed again: after a commit they follow
          // the inode; after a failed transfer they run here, unfrozen. If the
          // target installed the inode and only the ack was lost, write-once
          // positions plus the ownership-map sweep (we demote to whoever
          // publishes) keep that split from ever double-committing one.
          for (Waiter& waiter : queued) {
            ExecuteRequest(waiter.request, waiter.req, waiter.forwarded);
          }
          if (!status.ok()) {
            MAL_WARN(name().ToString()) << "migration of " << path << " to mds." << target
                                        << " failed: " << status;
            on_done(status);
            return;
          }
          // Phase 3: the target holds the inode now and our copy is gone.
          // The target publishes a sequencer's ownership entry (it holds the
          // state; we might not survive to).
          BroadcastAuthority(path, target);
          perf_.Inc("mds.migrations");
          if (config_.seq_ownership) {
            UpdateOwnedLogsGauge();
          }
          if (on_migration) {
            on_migration(path, target);
          }
          mon_client().Log("INFO", "migrated " + path + " to mds." + std::to_string(target));
          on_done(mal::Status::Ok());
        },
        60 * sim::kSecond);
  });
}

void MdsDaemon::HandleMigrateIn(const sim::Envelope& request, MigrateRequest migrate) {
  sim::Envelope req_envelope = request;
  sim::Time cost = MigrationCost(migrate.inode);
  AfterCpu(cost, [this, path = std::move(migrate.path), publish = migrate.publish,
                  inode = std::move(migrate.inode), req_envelope] {
    auto it = inodes_.find(path);
    if (it != inodes_.end()) {
      // Redelivered migration (the source crashed after our install and
      // re-drove the transfer): merge, never regress. Our copy is at least
      // as fresh as the resent one in every other field.
      it->second.inode.seq_tail = std::max(it->second.inode.seq_tail, inode.seq_tail);
    } else {
      HostedInode hosted;
      hosted.inode = inode;
      it = inodes_.emplace(path, std::move(hosted)).first;
    }
    authority_.erase(path);
    if (config_.seq_ownership && inode.type == InodeType::kSequencer) {
      if (MapOwnerOf(path) != std::optional<uint32_t>(name().id)) {
        it->second.inode.params["owner_pending"] = "1";
        if (publish) {
          PublishSeqOwner(path);
        }
      }
      UpdateOwnedLogsGauge();
    }
    perf_.Inc("mds.migrations_in");
    Reply(req_envelope, mal::Buffer());
  });
}

void MdsDaemon::HandleAuthorityUpdate(const AuthorityUpdate& update) {
  if (update.rank == name().id) {
    return;  // we learn by receiving the inode itself
  }
  if (inodes_.count(update.path) == 0) {
    authority_[update.path] = update.rank;
  }
}

// -- sharded sequencer ownership ------------------------------------------------

std::optional<uint32_t> MdsDaemon::MapOwnerOf(const std::string& path) const {
  return mon::SeqOwnerOf(mds_map_, path);
}

void MdsDaemon::UpdateOwnedLogsGauge() {
  double owned = 0;
  for (const auto& [path, hosted] : inodes_) {
    if (hosted.inode.type == InodeType::kSequencer) {
      owned += 1;
    }
  }
  perf_.Set("mds.seq.owned_logs", owned);
}

void MdsDaemon::PublishSeqOwner(const std::string& path) {
  mon_client().SetServiceMetadata(
      mon::MapKind::kMdsMap, mon::SeqOwnerKey(path), std::to_string(name().id),
      [this, path](mal::Status s) {
        if (!s.ok()) {
          // Lost publishes self-heal: the owner_pending marker makes the
          // next map-update sweep resubmit.
          MAL_WARN(name().ToString()) << "seq owner publish for " << path
                                      << " failed: " << s;
        }
      });
}

// -- load + balancing ---------------------------------------------------------------

LoadMetrics MdsDaemon::SnapshotLoad(bool commit) {
  // Exponentially decayed rates, like CephFS's decaying load counters:
  // momentary quiet does not zero the balancer's view of a hot subtree.
  constexpr double kAlpha = 0.5;
  LoadMetrics metrics;
  double window_sec = static_cast<double>(Now() - window_start_) / 1e9;
  if (window_sec <= 0) {
    window_sec = 1;
  }
  double window_rate = static_cast<double>(window_requests_) / window_sec;
  metrics.req_rate = kAlpha * window_rate + (1 - kAlpha) * smoothed_req_rate_;
  metrics.cpu = CpuUtilization(config_.load_window);
  if (config_.cpu_metric_noise > 0) {
    metrics.cpu = std::clamp(
        metrics.cpu * (1.0 + rng_.Normal(0.0, config_.cpu_metric_noise)), 0.0, 1.0);
  }
  metrics.load = metrics.req_rate;
  for (auto& [path, hosted] : inodes_) {
    if (path == "/") {
      continue;
    }
    double subtree_window = static_cast<double>(hosted.window_requests) / window_sec;
    double blended = kAlpha * subtree_window + (1 - kAlpha) * hosted.rate;
    metrics.subtree_rate[path] = blended;
    if (config_.seq_ownership && hosted.inode.type == InodeType::kSequencer) {
      metrics.seq_paths.push_back(path);
    }
    if (commit) {
      hosted.rate = blended;
    }
  }
  if (commit) {
    smoothed_req_rate_ = metrics.req_rate;
    window_requests_ = 0;
    window_start_ = Now();
    for (auto& [path, hosted] : inodes_) {
      hosted.window_requests = 0;
    }
  }
  return metrics;
}

void MdsDaemon::ReportLoad() {
  LoadMetrics metrics = SnapshotLoad(/*commit=*/true);
  load_table_[name().id] = metrics;
  mal::Buffer payload = mal::Encode(LoadReport{name().id, std::move(metrics)});
  for (uint32_t peer : PeerRanks()) {
    SendOneWay(sim::EntityName::Mds(peer), kMsgLoadReport, payload);
  }
}

void MdsDaemon::BalanceTick() {
  BalancerContext ctx;
  ctx.whoami = name().id;
  ctx.now_ns = Now();
  ctx.mds = load_table_;
  ctx.mds[name().id] = SnapshotLoad(/*commit=*/false);  // fresh self-view
  // Subtree rates must come from the same snapshot as the self load, or
  // policies would compare a fresh total against stale per-subtree values
  // and massively over- or under-migrate during ramp-up.
  for (const auto& [path, rate] : ctx.mds[name().id].subtree_rate) {
    ctx.my_subtrees.push_back({path, rate});
  }

  auto targets = policy_->Decide(ctx);
  // Script-engine counters from this tick (all-zero for native policies;
  // zero deltas skipped so native runs keep identical perf dumps).
  mal::ExportScriptCounters(&perf_, "mds", policy_->ConsumeScriptStats());
  if (!targets.ok()) {
    MAL_WARN(name().ToString()) << "balancer error: " << targets.status();
    mon_client().Log("ERROR", "balancer: " + targets.status().ToString());
    return;
  }
  std::vector<SubtreeLoad> available = ctx.my_subtrees;
  for (const auto& [rank, amount] : targets.value()) {
    if (rank == name().id || amount <= 0) {
      continue;
    }
    std::vector<std::string> picked = PickSubtreesForLoad(available, amount);
    for (const std::string& path : picked) {
      available.erase(std::remove_if(available.begin(), available.end(),
                                     [&path](const SubtreeLoad& s) { return s.path == path; }),
                      available.end());
      auto done = [this, path, rank](mal::Status s) {
        if (!s.ok()) {
          MAL_WARN(name().ToString())
              << "migration of " << path << " to mds." << rank << " failed: " << s;
        }
      };
      Migrate(path, rank, done);
    }
  }
}

}  // namespace mal::mds
