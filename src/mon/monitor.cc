#include "src/mon/monitor.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/common/trace.h"
#include "src/sim/profiler.h"

namespace mal::mon {

Monitor::Monitor(sim::Simulator* simulator, sim::Network* network, uint32_t id,
                 std::vector<uint32_t> quorum, MonitorConfig config)
    : Actor(simulator, network, sim::EntityName::Mon(id)),
      config_(config),
      quorum_(std::move(quorum)) {
  paxos_ = std::make_unique<consensus::PaxosNode>(
      id, quorum_,
      [this](uint32_t peer, const consensus::PaxosMessage& msg) {
        SendOneWay(sim::EntityName::Mon(peer), kMsgPaxos, mal::Encode(msg));
      },
      [this](uint64_t, const mal::Buffer& value) { ApplyCommitted(value); });
  RegisterHandlers();
  SetInboxLimit(config_.inbox_depth);
  SetServicePerf(&perf_);
  if (telemetry_enabled() && config_.builtin_health_rules) {
    health_.InstallBuiltinRules();
  }
}

void Monitor::RegisterHandlers() {
  dispatcher_.OnTyped<consensus::PaxosMessage>(
      kMsgPaxos, [this](const sim::Envelope&, consensus::PaxosMessage msg) {
        HandlePaxos(std::move(msg));
      });
  // Raw handlers: commands are forwarded undecoded by non-leaders, and the
  // cluster-log, perf-dump and health requests carry no payload.
  dispatcher_.On(kMsgMonCommand, [this](const sim::Envelope& env) { HandleCommand(env); });
  dispatcher_.OnTyped<GetMapRequest>(
      kMsgGetMap, [this](const sim::Envelope& env, GetMapRequest req) {
        HandleGetMap(env, std::move(req));
      });
  dispatcher_.OnTyped<SubscribeRequest>(
      kMsgSubscribe, [this](const sim::Envelope& env, SubscribeRequest req) {
        HandleSubscribe(env, std::move(req));
      });
  dispatcher_.OnTyped<ClusterLogEntry>(
      kMsgLogEntry, [this](const sim::Envelope& env, ClusterLogEntry entry) {
        HandleLogEntry(env, std::move(entry));
      });
  dispatcher_.On(kMsgGetClusterLog,
                 [this](const sim::Envelope& env) { HandleGetClusterLog(env); });
  dispatcher_.OnTyped<mal::PerfSnapshot>(
      kMsgPerfReport, [this](const sim::Envelope& env, mal::PerfSnapshot snap) {
        HandlePerfReport(env, std::move(snap));
      });
  dispatcher_.On(kMsgGetPerfDump,
                 [this](const sim::Envelope& env) { HandleGetPerfDump(env); });
  dispatcher_.OnTyped<QuerySeriesRequest>(
      kMsgQuerySeries, [this](const sim::Envelope& env, QuerySeriesRequest req) {
        HandleQuerySeries(env, std::move(req));
      });
  dispatcher_.On(kMsgGetHealth,
                 [this](const sim::Envelope& env) { HandleGetHealth(env); });
}

void Monitor::Boot() {
  last_leader_contact_ = Now();
  if (name().id == *std::min_element(quorum_.begin(), quorum_.end())) {
    paxos_->StartElection();
  }
  StartPeriodic(kRetransmitInterval, [this] {
    paxos_->Retransmit();
    paxos_->Heartbeat();
  });
  StartPeriodic(config_.election_timeout, [this] {
    if (!paxos_->IsLeader() && Now() - last_leader_contact_ > config_.election_timeout) {
      MAL_INFO(name().ToString()) << "leader timeout, starting election";
      paxos_->StartElection();
    }
  });
  if (telemetry_enabled()) {
    StartPeriodic(config_.telemetry_interval, [this] { TelemetryTick(); });
  }
}

void Monitor::Crash() {
  Actor::Crash();
  paxos_->StepDown();
  pending_batch_.clear();
  waiting_acks_.clear();
  // The incarnation guard drops the armed event; a recovered monitor arms
  // afresh on its first transaction.
  proposal_armed_ = false;
}

void Monitor::Recover() {
  Actor::Recover();
  // NB: paxos acceptor state (promises/accepts) survives: the monitor store
  // is durable in Ceph, and we model that by keeping PaxosNode state.
  Boot();
}

void Monitor::HandleRequest(const sim::Envelope& request) {
  dispatcher_.Dispatch(request);
}

void Monitor::HandlePaxos(consensus::PaxosMessage msg) {
  // Only leader-originated traffic counts as evidence the leader is alive;
  // follower-to-follower chatter (promises, catchup requests) must not
  // suppress failure detection.
  switch (msg.type) {
    case consensus::PaxosMsgType::kPrepare:
    case consensus::PaxosMsgType::kAccept:
    case consensus::PaxosMsgType::kCommit:
      last_leader_contact_ = Now();
      break;
    default:
      break;
  }
  if (config_.store_commit_latency > 0 && msg.type == consensus::PaxosMsgType::kAccept) {
    // Model the fsync an acceptor performs before acknowledging.
    AfterCpu(config_.store_commit_latency,
             [this, accept = std::move(msg)] { paxos_->HandleMessage(accept); });
    return;
  }
  paxos_->HandleMessage(msg);
}

uint32_t Monitor::LeaderHint() const {
  // The low 16 ballot bits carry the node id of the ballot owner.
  uint64_t ballot = paxos_->promised_ballot();
  return static_cast<uint32_t>(ballot & 0xffff);
}

void Monitor::HandleCommand(const sim::Envelope& request) {
  if (!paxos_->IsLeader()) {
    // Forward to the believed leader and relay the reply back.
    uint32_t leader = LeaderHint();
    if (leader == name().id || std::find(quorum_.begin(), quorum_.end(), leader) ==
                                   quorum_.end()) {
      ReplyError(request, mal::Status::Unavailable("no monitor leader known"));
      return;
    }
    sim::Envelope original = request;
    SendRequest(sim::EntityName::Mon(leader), kMsgMonCommand, request.payload,
                [this, original](mal::Status status, const sim::Envelope& reply) {
                  if (status.ok()) {
                    Reply(original, reply.payload);
                  } else {
                    ReplyError(original, status);
                  }
                });
    return;
  }
  auto txn = mal::Decode<Transaction>(request.payload);
  if (!txn.ok()) {
    ReplyError(request, mal::Status::Corruption("bad transaction"));
    return;
  }
  pending_batch_.push_back(std::move(txn).value());
  waiting_acks_.emplace_back(next_batch_id_, request);
  if (!proposal_armed_) {
    // Propose at once when the last proposal is an interval old, else at the
    // interval's end; transactions arriving meanwhile join that batch.
    sim::Time due = last_proposal_ ? *last_proposal_ + config_.proposal_interval : 0;
    ArmProposal(due > Now() ? due - Now() : 0);
  }
}

void Monitor::ArmProposal(sim::Time delay) {
  proposal_armed_ = true;
  ScheduleGuarded(delay, [this] {
    proposal_armed_ = false;
    ProposeBatch();
  });
}

void Monitor::ProposeBatch() {
  if (!paxos_->IsLeader()) {
    // Keep the batch: it is proposed if this monitor leads again.
    ArmProposal(config_.proposal_interval);
    return;
  }
  last_proposal_ = Now();
  ProposalValue proposal{next_batch_id_++, name().id, std::move(pending_batch_)};
  pending_batch_.clear();
  perf_.Inc("mon.paxos.proposals");
  perf_.Inc("mon.paxos.proposed_txns", proposal.txns.size());
  mal::Buffer value = mal::Encode(proposal);

  if (config_.store_commit_latency > 0) {
    AfterCpu(config_.store_commit_latency,
             [this, value = std::move(value)] { paxos_->Propose(value); });
  } else {
    paxos_->Propose(std::move(value));
  }
}

void Monitor::ApplyCommitted(const mal::Buffer& value) {
  auto decoded = mal::Decode<ProposalValue>(value);
  if (!decoded.ok()) {
    // A batch that does not decode is applied not at all: applying the part
    // that did would leave this monitor's maps diverged from its peers'.
    MAL_WARN(name().ToString()) << "skipping undecodable committed batch: "
                                << decoded.status();
    return;
  }
  const ProposalValue& proposal = decoded.value();
  const std::vector<Transaction>& batch = proposal.txns;
  ++applied_batches_;
  perf_.Inc("mon.paxos.commits");

  bool osd_dirty = false;
  bool mds_dirty = false;
  for (const Transaction& txn : batch) {
    ApplyTransaction(txn, &osd_dirty, &mds_dirty);
  }
  if (osd_dirty) {
    ++osd_map_.epoch;
    PushMap(MapKind::kOsdMap);
  }
  if (mds_dirty) {
    ++mds_map_.epoch;
    PushMap(MapKind::kMdsMap);
  }
  perf_.Set("mon.osdmap_epoch", static_cast<double>(osd_map_.epoch));
  perf_.Set("mon.mdsmap_epoch", static_cast<double>(mds_map_.epoch));
  if (on_apply) {
    on_apply(batch);
  }
  // Ack the requests that were folded into this batch (proposer only).
  if (proposal.proposer == name().id) {
    auto it = waiting_acks_.begin();
    while (it != waiting_acks_.end()) {
      if (it->first == proposal.batch_id) {
        Reply(it->second, mal::Buffer());
        it = waiting_acks_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void Monitor::ApplyTransaction(const Transaction& txn, bool* osd_dirty, bool* mds_dirty) {
  switch (txn.op) {
    case Transaction::Op::kSetServiceMetadata:
      if (txn.map_kind == MapKind::kOsdMap) {
        osd_map_.service_metadata[txn.key] = txn.value;
        *osd_dirty = true;
      } else {
        mds_map_.service_metadata[txn.key] = txn.value;
        *mds_dirty = true;
      }
      break;
    case Transaction::Op::kOsdBoot:
      osd_map_.osds[txn.daemon_id].up = true;
      *osd_dirty = true;
      break;
    case Transaction::Op::kOsdFail:
      osd_map_.osds[txn.daemon_id].up = false;
      *osd_dirty = true;
      break;
    case Transaction::Op::kMdsBoot: {
      MdsInfo& info = mds_map_.mds[txn.daemon_id];
      info.state = MdsState::kActive;
      if (info.rank < 0) {
        int64_t max_rank = -1;
        for (const auto& [id, other] : mds_map_.mds) {
          max_rank = std::max(max_rank, other.rank);
        }
        info.rank = max_rank + 1;
      }
      *mds_dirty = true;
      break;
    }
    case Transaction::Op::kMdsFail:
      mds_map_.mds[txn.daemon_id].state = MdsState::kFailed;
      *mds_dirty = true;
      break;
    case Transaction::Op::kSetPgCount:
      osd_map_.pg_count = static_cast<uint32_t>(std::stoul(txn.value));
      *osd_dirty = true;
      break;
  }
}

mal::Buffer Monitor::EncodeMap(MapKind kind) const {
  MapUpdate update;
  update.kind = kind;
  update.map_payload =
      kind == MapKind::kOsdMap ? mal::Encode(osd_map_) : mal::Encode(mds_map_);
  return mal::Encode(update);
}

void Monitor::PushMap(MapKind kind) {
  // Encoded once; every subscriber shares the same bytes.
  const mal::Buffer update = EncodeMap(kind);
  for (const sim::EntityName& sub : subscribers_[kind]) {
    SendOneWay(sub, kMsgMapUpdate, update);
  }
}

void Monitor::HandleGetMap(const sim::Envelope& request, GetMapRequest req) {
  Reply(request, EncodeMap(req.kind));
}

void Monitor::HandleSubscribe(const sim::Envelope& request, SubscribeRequest req) {
  subscribers_[req.kind].insert(req.subscriber);
  Epoch current = req.kind == MapKind::kOsdMap ? osd_map_.epoch : mds_map_.epoch;
  if (current > req.have_epoch) {
    SendOneWay(req.subscriber, kMsgMapUpdate, EncodeMap(req.kind));
  }
  Reply(request, mal::Buffer());
}

void Monitor::AppendClusterLog(ClusterLogEntry entry) {
  // Entries can arrive out of order (one-way sends race); keep the log
  // ordered by the source timestamp so operators see causal order.
  auto pos = std::upper_bound(cluster_log_.begin(), cluster_log_.end(), entry,
                              [](const ClusterLogEntry& a, const ClusterLogEntry& b) {
                                return std::tie(a.time_ns, a.source, a.seq) <
                                       std::tie(b.time_ns, b.source, b.seq);
                              });
  cluster_log_.insert(pos, std::move(entry));
  perf_.Inc("mon.cluster_log_entries");
}

void Monitor::HandleLogEntry(const sim::Envelope& request, ClusterLogEntry entry) {
  AppendClusterLog(std::move(entry));
  // Fan out so every monitor holds the log (centralized view, replicated).
  for (uint32_t peer : quorum_) {
    if (peer != name().id && request.from.type != sim::EntityType::kMon) {
      SendOneWay(sim::EntityName::Mon(peer), kMsgLogEntry, request.payload);
    }
  }
  if (request.rpc_id != 0 && request.from.type != sim::EntityType::kMon) {
    Reply(request, mal::Buffer());
  }
}

void Monitor::HandleGetClusterLog(const sim::Envelope& request) {
  Reply(request, mal::Encode(cluster_log_));
}

void Monitor::HandlePerfReport(const sim::Envelope& request, mal::PerfSnapshot snap) {
  // The ack is the reporter's keepalive (see MonClient).
  Reply(request, mal::Encode(KeepaliveAck{osd_map_.epoch, mds_map_.epoch}));
  perf_.Inc("mon.perf_reports");
  if (telemetry_enabled()) {
    series_.Ingest(snap);
  }
  // Keep only the latest snapshot per entity: reports carry cumulative
  // counters, so the newest one supersedes everything before it.
  perf_reports_[snap.entity] = std::move(snap);
}

void Monitor::TelemetryTick() {
  // Fold our own registry in so mon.* metrics are watchable like any
  // daemon's (the monitor never sends itself a kMsgPerfReport).
  series_.Ingest(perf_.Snapshot(name().ToString(), Now()));
  std::vector<telemetry::HealthEngine::Transition> transitions =
      health_.Evaluate(Now());
  for (const auto& t : transitions) {
    perf_.Inc(t.raised ? "mon.health.raised" : "mon.health.cleared");
    const char* severity = !t.raised                                        ? "INFO"
                           : t.severity == telemetry::HealthSeverity::kErr ? "ERROR"
                                                                           : "WARN";
    ClusterLogEntry entry{Now(), ++health_log_seq_, name().ToString(), severity, t.text};
    mal::Buffer payload = mal::Encode(entry);
    AppendClusterLog(std::move(entry));
    // Replicate the health edge to peer monitors like any log entry.
    for (uint32_t peer : quorum_) {
      if (peer != name().id) {
        SendOneWay(sim::EntityName::Mon(peer), kMsgLogEntry, payload);
      }
    }
  }
  perf_.Set("mon.health.status", static_cast<double>(health_.Overall()));
  perf_.Set("mon.telemetry.series", static_cast<double>(series_.series_count()));
  // Health-rule script-engine counters (absent while no rule runs).
  mal::ExportScriptCounters(&perf_, "mon", health_.ConsumeScriptStats());
}

mal::Status Monitor::InstallHealthRule(const std::string& rule_name,
                                       const std::string& source,
                                       std::map<std::string, double> params) {
  return health_.InstallRule(rule_name, source, std::move(params));
}

std::string Monitor::HealthJson() const { return health_.ToJson(Now()); }

void Monitor::HandleQuerySeries(const sim::Envelope& request, QuerySeriesRequest req) {
  QuerySeriesReply reply{series_.Query(req.entity, req.metric,
                                       static_cast<telemetry::Resolution>(req.resolution),
                                       req.since_ns)};
  Reply(request, mal::Encode(reply));
}

void Monitor::HandleGetHealth(const sim::Envelope& request) {
  Reply(request, mal::Buffer::FromString(HealthJson()));
}

std::string Monitor::PerfDumpJson() const {
  std::vector<mal::PerfSnapshot> snapshots;
  snapshots.reserve(perf_reports_.size() + 1);
  snapshots.push_back(perf_.Snapshot(name().ToString(), Now()));
  // Network-wide delivery/drop/chaos counters ride on the monitor's own
  // snapshot copy (net.* rows; see docs/observability.md). Injected at dump
  // time rather than stored in the registry so the periodic perf-report
  // message stream is byte-identical whether or not anyone ever dumps.
  const sim::Network* net = network();
  auto& rows = snapshots.front().counters;
  rows["net.messages_sent"] = net->messages_sent();
  rows["net.messages_delivered"] = net->messages_delivered();
  rows["net.bytes_sent"] = net->bytes_sent();
  rows["net.dropped_crashed"] = net->dropped_crashed();
  rows["net.dropped_partitioned"] = net->dropped_partitioned();
  rows["net.dropped_crashed_inflight"] = net->dropped_crashed_inflight();
  rows["net.dropped_unattached"] = net->dropped_unattached();
  rows["net.dropped_total"] = net->dropped_total();
  rows["net.chaos_lost"] = net->chaos_lost();
  rows["net.chaos_duplicated"] = net->chaos_duplicated();
  rows["net.chaos_reordered"] = net->chaos_reordered();
  // The MalScript compile cache is process-wide (shared across clusters in
  // one process), so its counters are injected at dump time like net.*:
  // stored in the registry they would leak cache warmth from a previous
  // same-process run into the telemetry series and break same-seed
  // byte-identity.
  const script::CompileCacheStats cache = script::GetCompileCacheStats();
  if (cache.hits + cache.misses != 0) {
    rows["mon.script.compile_cache.hits"] = cache.hits;
    rows["mon.script.compile_cache.misses"] = cache.misses;
  }
  for (const auto& [entity, snap] : perf_reports_) {
    if (entity != name().ToString()) {
      snapshots.push_back(snap);
    }
  }
  mal::PerfDumpOptions options;
  options.stale_after_ns = kStaleReportAge;
  if (telemetry_enabled()) {
    options.sections.emplace_back("telemetry", series_.ToJson(Now()));
    options.sections.emplace_back("health", health_.ToJson(Now()));
  }
  // The per-actor profiler is a process-global collector like the trace
  // collector; when a harness installed one, its table rides the dump.
  if (const sim::Profiler* profiler = sim::Profiler::Current()) {
    options.sections.emplace_back("profile", profiler->ToJson());
  }
  return mal::PerfDumpToJson(snapshots, Now(), options);
}

void Monitor::HandleGetPerfDump(const sim::Envelope& request) {
  Reply(request, mal::Buffer::FromString(PerfDumpJson()));
}

}  // namespace mal::mon
