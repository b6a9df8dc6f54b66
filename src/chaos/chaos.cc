#include "src/chaos/chaos.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/mds/types.h"

namespace mal::chaos {

std::string ChaosEvent::ToString() const {
  return "t=" + std::to_string(time) + " " + kind + (detail.empty() ? "" : " " + detail);
}

// ---------------------------------------------------------------------------
// Runner

namespace {

// Fault classes, indexed to line up with the weight vector built in Inject.
enum FaultClass : size_t {
  kOsdCrash = 0,
  kMdsCrash,
  kMonCrash,
  kLeaderCrash,
  kPartition,
  kBurst,
  kOsdPermLoss,
  kShardCorrupt,
  kNumClasses,
};

constexpr sim::Time kPollCadence = 50 * sim::kMillisecond;

// Checks `done` now and then every kPollCadence (no RNG), at most `polls`
// more times, and hands `finish` whether it held.
void Poll(sim::Simulator* sim, int polls, std::function<bool()> done,
          std::function<void(bool)> finish) {
  const bool held = done();
  if (held || polls == 0) {
    finish(held);
    return;
  }
  sim->Schedule(kPollCadence, [sim, polls, done = std::move(done),
                               finish = std::move(finish)]() mutable {
    Poll(sim, polls - 1, std::move(done), std::move(finish));
  });
}

// Live monitor currently believing itself leader, or -1.
int LeaderIndex(cluster::Cluster* cluster) {
  for (size_t i = 0; i < cluster->num_mons(); ++i) {
    const auto& mon = cluster->monitor(i);
    if (mon.alive() && mon.IsLeader()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace

Runner::Runner(cluster::Cluster* cluster, FaultPlan plan)
    : cluster_(cluster), plan_(plan), rng_(plan.seed) {}

void Runner::Arm() {
  if (armed_) {
    return;
  }
  armed_ = true;
  // Permanent loss needs a monitor client to submit kOsdFail. Create it
  // only when the class is enabled: a client changes the message trace, so
  // plans without the class must not pay for it. Its perf reports keep its
  // monitor session alive, as a daemon's do.
  if (plan_.w_osd_perm_loss > 0 && chaos_client_ == nullptr) {
    chaos_client_ = cluster_->NewClient();
    if (plan_.mon_request_timeout > 0) {
      chaos_client_->rados.mon_client().set_request_timeout(plan_.mon_request_timeout);
    }
    chaos_client_->StartPerfReports(mon::MonClient::kPerfReportPeriod);
  }
  auto* sim = &cluster_->simulator();
  end_time_ = sim->Now() + plan_.duration;
  sim->Schedule(plan_.duration, [this] {
    done_injecting_ = true;
    HealAll();
    if (on_healed) {
      on_healed();
    }
  });
  ScheduleNext();
}

void Runner::ScheduleNext() {
  if (done_injecting_) {
    return;
  }
  auto* sim = &cluster_->simulator();
  auto gap = std::max<sim::Time>(
      1, static_cast<sim::Time>(rng_.Exponential(static_cast<double>(plan_.mean_interval))));
  if (sim->Now() + gap >= end_time_) {
    return;  // the end-of-plan event heals whatever is still outstanding
  }
  sim->Schedule(gap, [this] {
    Inject();
    ScheduleNext();
  });
}

uint32_t Runner::PickUp(uint32_t count, const std::set<uint32_t>& down) {
  std::vector<uint32_t> up;
  for (uint32_t i = 0; i < count; ++i) {
    if (down.count(i) == 0) {
      up.push_back(i);
    }
  }
  return up[rng_.NextBelow(up.size())];
}

void Runner::Inject() {
  // A majority of monitors must stay up AND connected; an isolated monitor
  // counts against the budget just like a crashed one.
  uint32_t num_mons = static_cast<uint32_t>(cluster_->num_mons());
  uint32_t mons_out =
      static_cast<uint32_t>(down_mons_.size()) + (partitioned_mon_ >= 0 ? 1 : 0);
  uint32_t mon_budget = (num_mons - 1) / 2;  // max simultaneously out
  bool mon_ok = mons_out < mon_budget;

  std::vector<double> weights(kNumClasses, 0.0);
  size_t osds_out = down_osds_.size() + lost_osds_.size();
  if (cluster_->num_osds() > osds_out && down_osds_.size() < plan_.max_down_osds) {
    weights[kOsdCrash] = plan_.w_osd_crash;
  }
  // The redundancy-damage classes (permanent loss, bit-rot) respect a
  // spacing floor: an m=1 erasure code provably survives them only if the
  // scrubber completes a repair pass between consecutive hits, so back-to-
  // back damage would test the code's tolerance, not the repair machinery.
  bool damage_ok = last_damage_ == 0 ||
                   cluster_->simulator().Now() - last_damage_ >= plan_.min_damage_interval;
  // Permanent loss keeps at least one OSD alive (a cluster with zero
  // stores has nothing left to verify) and needs the mon client.
  if (plan_.w_osd_perm_loss > 0 && chaos_client_ != nullptr && damage_ok &&
      lost_osds_.size() < plan_.max_lost_osds && cluster_->num_osds() >= osds_out + 2) {
    weights[kOsdPermLoss] = plan_.w_osd_perm_loss;
  }
  if (plan_.w_shard_corrupt > 0 && damage_ok && !ShardCandidates().empty()) {
    weights[kShardCorrupt] = plan_.w_shard_corrupt;
  }
  if (cluster_->num_mds() > down_mds_.size() && down_mds_.size() < plan_.max_down_mds) {
    weights[kMdsCrash] = plan_.w_mds_crash;
  }
  if (mon_ok) {
    weights[kMonCrash] = plan_.w_mon_crash;
    if (LeaderIndex(cluster_) >= 0) {
      weights[kLeaderCrash] = plan_.w_leader_crash;
    }
  }
  if (partition_edges_.empty()) {
    weights[kPartition] = plan_.w_partition;
  }
  if (!burst_active_) {
    weights[kBurst] = plan_.w_burst;
  }
  double total = 0;
  for (double w : weights) {
    total += w;
  }
  if (total <= 0) {
    return;  // nothing feasible right now; try again next interval
  }
  switch (rng_.WeightedIndex(weights)) {
    case kOsdCrash:
      InjectOsdCrash();
      break;
    case kMdsCrash:
      InjectMdsCrash();
      break;
    case kMonCrash:
      InjectMonCrash(/*target_leader=*/false);
      break;
    case kLeaderCrash:
      InjectMonCrash(/*target_leader=*/true);
      break;
    case kPartition:
      InjectPartition();
      break;
    case kBurst:
      InjectBurst();
      break;
    case kOsdPermLoss:
      InjectOsdPermLoss();
      break;
    case kShardCorrupt:
      InjectShardCorrupt();
      break;
    default:
      break;
  }
}

sim::Time Runner::Uniform(sim::Time lo, sim::Time hi) {
  if (hi <= lo) {
    return lo;
  }
  return lo + rng_.NextBelow(hi - lo);
}

void Runner::Record(const char* kind, std::string detail) {
  events_.push_back(ChaosEvent{cluster_->simulator().Now(), kind, std::move(detail)});
}

void Runner::InjectOsdCrash() {
  std::set<uint32_t> out = down_osds_;
  out.insert(lost_osds_.begin(), lost_osds_.end());
  uint32_t id = PickUp(static_cast<uint32_t>(cluster_->num_osds()), out);
  down_osds_.insert(id);
  Record("osd_crash", "osd." + std::to_string(id));
  cluster_->osd(id).Crash();
  sim::Time downtime = Uniform(plan_.min_downtime, plan_.max_downtime);
  cluster_->simulator().Schedule(downtime, [this, id] { RecoverOsd(id); });
}

void Runner::RecoverOsd(uint32_t id) {
  if (down_osds_.erase(id) == 0) {
    return;
  }
  Record("osd_recover", "osd." + std::to_string(id));
  cluster_->osd(id).Recover();
  TrackRecovery("osd_crash", [this, id] { return !cluster_->osd(id).rejoining(); });
}

void Runner::InjectMdsCrash() {
  uint32_t id = PickUp(static_cast<uint32_t>(cluster_->num_mds()), down_mds_);
  down_mds_.insert(id);
  Record("mds_crash", "mds." + std::to_string(id));
  cluster_->mds(id).Crash();
  sim::Time downtime = Uniform(plan_.min_downtime, plan_.max_downtime);
  cluster_->simulator().Schedule(downtime, [this, id] { RecoverMds(id); });
}

void Runner::RecoverMds(uint32_t id) {
  if (down_mds_.erase(id) == 0) {
    return;
  }
  Record("mds_recover", "mds." + std::to_string(id));
  cluster_->mds(id).Recover();
  TrackRecovery("mds_crash", [this, id] { return cluster_->mds(id).alive(); });
}

void Runner::InjectMonCrash(bool target_leader) {
  int leader = LeaderIndex(cluster_);
  uint32_t id = (target_leader && leader >= 0)
                    ? static_cast<uint32_t>(leader)
                    : PickUp(static_cast<uint32_t>(cluster_->num_mons()), down_mons_);
  std::string cls = target_leader ? "leader_crash" : "mon_crash";
  down_mons_.insert(id);
  Record(cls.c_str(), "mon." + std::to_string(id));
  cluster_->monitor(id).Crash();
  sim::Time downtime = Uniform(plan_.min_downtime, plan_.max_downtime);
  cluster_->simulator().Schedule(downtime,
                                 [this, id, cls] { RecoverMon(id, cls); });
}

void Runner::RecoverMon(uint32_t id, std::string cls) {
  if (down_mons_.erase(id) == 0) {
    return;
  }
  Record((cls == "leader_crash") ? "leader_recover" : "mon_recover",
         "mon." + std::to_string(id));
  cluster_->monitor(id).Recover();
  // Recovered when some monitor (not necessarily this one) leads again.
  TrackRecovery(std::move(cls), [this] { return LeaderIndex(cluster_) >= 0; });
}

void Runner::InjectPartition() {
  // Candidate victims: any up daemon; a monitor only if isolating it still
  // leaves a connected majority.
  uint32_t num_mons = static_cast<uint32_t>(cluster_->num_mons());
  uint32_t mon_budget = (num_mons - 1) / 2;
  bool mon_ok = down_mons_.size() < mon_budget;
  std::vector<sim::EntityName> candidates;
  if (mon_ok) {
    for (uint32_t i = 0; i < num_mons; ++i) {
      if (down_mons_.count(i) == 0) {
        candidates.push_back(sim::EntityName::Mon(i));
      }
    }
  }
  for (uint32_t i = 0; i < cluster_->num_osds(); ++i) {
    if (down_osds_.count(i) == 0 && lost_osds_.count(i) == 0) {
      candidates.push_back(sim::EntityName::Osd(i));
    }
  }
  for (uint32_t i = 0; i < cluster_->num_mds(); ++i) {
    if (down_mds_.count(i) == 0) {
      candidates.push_back(sim::EntityName::Mds(i));
    }
  }
  if (candidates.empty()) {
    return;
  }
  sim::EntityName victim = candidates[rng_.NextBelow(candidates.size())];
  if (victim.type == sim::EntityType::kMon) {
    partitioned_mon_ = static_cast<int>(victim.id);
  }
  // Cut the victim off from every other daemon (clients keep their links:
  // a half-partition, which is the nastier case for fencing logic).
  auto cut = [&](sim::EntityName other) {
    if (other == victim) {
      return;
    }
    cluster_->network().SetPartitioned(victim, other, true);
    partition_edges_.emplace_back(victim, other);
  };
  for (uint32_t i = 0; i < num_mons; ++i) {
    cut(sim::EntityName::Mon(i));
  }
  for (uint32_t i = 0; i < cluster_->num_osds(); ++i) {
    cut(sim::EntityName::Osd(i));
  }
  for (uint32_t i = 0; i < cluster_->num_mds(); ++i) {
    cut(sim::EntityName::Mds(i));
  }
  Record("partition_start", victim.ToString());
  sim::Time duration = Uniform(plan_.min_downtime, plan_.max_downtime);
  cluster_->simulator().Schedule(duration, [this] { LiftPartition(); });
}

void Runner::LiftPartition() {
  if (partition_edges_.empty()) {
    return;
  }
  sim::EntityName victim = partition_edges_.front().first;
  for (const auto& [a, b] : partition_edges_) {
    cluster_->network().SetPartitioned(a, b, false);
  }
  partition_edges_.clear();
  partitioned_mon_ = -1;
  Record("partition_heal", victim.ToString());
  recovery_ns_["partition"].push_back(0);
}

void Runner::InjectBurst() {
  burst_active_ = true;
  cluster_->network().SetDefaultFaults(plan_.burst);
  Record("burst_start", "loss=" + std::to_string(plan_.burst.loss_prob) +
                            " dup=" + std::to_string(plan_.burst.dup_prob) +
                            " reorder=" + std::to_string(plan_.burst.reorder_prob));
  sim::Time duration = Uniform(plan_.min_burst, plan_.max_burst);
  cluster_->simulator().Schedule(duration, [this] { LiftBurst(); });
}

void Runner::LiftBurst() {
  if (!burst_active_) {
    return;
  }
  burst_active_ = false;
  cluster_->network().SetDefaultFaults(sim::FaultSpec{});
  Record("burst_end", "");
  recovery_ns_["burst"].push_back(0);
}

void Runner::InjectOsdPermLoss() {
  std::set<uint32_t> out = down_osds_;
  out.insert(lost_osds_.begin(), lost_osds_.end());
  uint32_t id = PickUp(static_cast<uint32_t>(cluster_->num_osds()), out);
  lost_osds_.insert(id);
  last_damage_ = cluster_->simulator().Now();
  Record("osd_perm_loss", "osd." + std::to_string(id));
  cluster_->osd(id).Crash();
  cluster_->osd(id).store().Clear();  // the disk is gone, not just the daemon
  MarkOsdFailed(id);
  // Recovered when every surviving (currently-up) OSD has adopted a map
  // that no longer lists the victim as up — placement has rerouted.
  TrackRecovery("osd_perm_loss", [this, id] {
    for (uint32_t i = 0; i < cluster_->num_osds(); ++i) {
      if (lost_osds_.count(i) != 0 || down_osds_.count(i) != 0) {
        continue;
      }
      const auto& map = cluster_->osd(i).osd_map();
      auto it = map.osds.find(id);
      if (it != map.osds.end() && it->second.up) {
        return false;
      }
    }
    return true;
  });
}

void Runner::MarkOsdFailed(uint32_t id) {
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = id;
  chaos_client_->rados.mon_client().SubmitTransaction(fail, [this, id](mal::Status) {
    // The fail may race a monitor failover and be dropped on the floor; a
    // lost disk the map keeps routing to would wedge every repair, so
    // verify against the freshest monitor and resubmit until it sticks.
    cluster_->simulator().Schedule(500 * sim::kMillisecond, [this, id] {
      const mon::OsdMap* map = &cluster_->monitor(0).osd_map();
      for (size_t i = 1; i < cluster_->num_mons(); ++i) {
        if (cluster_->monitor(i).osd_map().epoch > map->epoch) {
          map = &cluster_->monitor(i).osd_map();
        }
      }
      auto it = map->osds.find(id);
      if (it != map->osds.end() && it->second.up) {
        MarkOsdFailed(id);
      }
    });
  });
}

std::vector<std::pair<uint32_t, std::string>> Runner::ShardCandidates() const {
  std::vector<std::pair<uint32_t, std::string>> out;
  for (uint32_t i = 0; i < cluster_->num_osds(); ++i) {
    if (down_osds_.count(i) != 0 || lost_osds_.count(i) != 0) {
      continue;
    }
    for (const std::string& oid : cluster_->osd(i).store().List()) {
      if (osd::ParseEcShardOid(oid).has_value()) {
        out.emplace_back(i, oid);
      }
    }
  }
  return out;
}

void Runner::InjectShardCorrupt() {
  auto candidates = ShardCandidates();
  if (candidates.empty()) {
    return;
  }
  auto [osd_id, oid] = candidates[rng_.NextBelow(candidates.size())];
  auto object = cluster_->osd(osd_id).store().Get(oid);
  if (!object.ok() || object.value()->data.size() == 0) {
    return;  // zero-length shard: nothing to rot
  }
  uint64_t byte = rng_.NextBelow(object.value()->data.size());
  uint32_t bit = static_cast<uint32_t>(rng_.NextBelow(8));
  cluster_->osd(osd_id).store().FlipBit(oid, byte, bit);
  last_damage_ = cluster_->simulator().Now();
  Record("shard_corrupt", "osd." + std::to_string(osd_id) + " " + oid +
                              " byte=" + std::to_string(byte) +
                              " bit=" + std::to_string(bit));
  // No heal to schedule: silent corruption stays until scrub catches it.
}

void Runner::HealAll() {
  Record("heal_all", "");
  // Copy: the Recover* helpers mutate the down-sets.
  for (uint32_t id : std::set<uint32_t>(down_osds_)) {
    RecoverOsd(id);
  }
  for (uint32_t id : std::set<uint32_t>(down_mds_)) {
    RecoverMds(id);
  }
  for (uint32_t id : std::set<uint32_t>(down_mons_)) {
    RecoverMon(id, "mon_crash");
  }
  LiftPartition();
  LiftBurst();
}

bool Runner::quiescent() const {
  return down_osds_.empty() && down_mds_.empty() && down_mons_.empty() &&
         partition_edges_.empty() && !burst_active_;
}

void Runner::TrackRecovery(std::string cls, std::function<bool()> recovered) {
  // 1201 polls = 60 s of virtual time: give up and record the cap rather
  // than poll forever (a cluster that has not recovered by then will fail
  // the checkers anyway).
  const sim::Time start = cluster_->simulator().Now();
  Poll(&cluster_->simulator(), 1201, std::move(recovered),
       [this, cls = std::move(cls), start](bool) {
         recovery_ns_[cls].push_back(cluster_->simulator().Now() - start);
       });
}

std::string Runner::TraceString() const {
  std::string out;
  for (const auto& event : events_) {
    out += event.ToString();
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Checkers

Checkers::Checkers(cluster::Cluster* cluster) : cluster_(cluster) {}

void Checkers::WatchSequencer(std::string path) {
  watched_paths_.push_back(std::move(path));
}

void Checkers::Arm(sim::Time interval) {
  if (armed_) {
    return;
  }
  armed_ = true;
  // Event-driven epoch monotonicity at every OSD: hook map application
  // (chained, so experiment hooks keep working).
  for (size_t i = 0; i < cluster_->num_osds(); ++i) {
    auto* osd = &cluster_->osd(i);
    std::string observer = "osd." + std::to_string(i) + ".applied";
    auto prev = osd->on_map_applied;
    osd->on_map_applied = [this, observer, prev](mon::Epoch epoch) {
      CheckEpoch(observer, epoch);
      if (prev) {
        prev(epoch);
      }
    };
  }
  cluster_->simulator().Schedule(interval, [this, interval] { SampleLoop(interval); });
}

void Checkers::SampleLoop(sim::Time interval) {
  Sample();
  cluster_->simulator().Schedule(interval, [this, interval] { SampleLoop(interval); });
}

void Checkers::RecordAck(const std::string& path, uint64_t position, std::string tag) {
  auto [it, fresh] = acked_[path].emplace(position, std::move(tag));
  if (!fresh) {
    Violation(path + " position " + std::to_string(position) + " acked twice");
  }
}

void Checkers::RecordEcAck(const std::string& pool, const std::string& object,
                           std::string payload) {
  // Unlike log positions, objects are mutable: the newest acked write is
  // the one that must survive.
  ec_acked_[pool][object] = std::move(payload);
}

void Checkers::CheckEpoch(const std::string& observer, uint64_t epoch) {
  uint64_t& best = max_epoch_[observer];
  if (epoch < best) {
    Violation(observer + " epoch regressed " + std::to_string(best) + " -> " +
              std::to_string(epoch));
    return;
  }
  best = epoch;
}

void Checkers::ExpectMapsConverge(sim::Time within) {
  Poll(&cluster_->simulator(), static_cast<int>(within / kPollCadence),
       [this] { return MapLaggard().empty(); },
       [this](bool converged) {
         if (!converged) {
           Violation("maps did not converge after heal: " + MapLaggard());
         }
       });
}

std::string Checkers::MapLaggard() {
  const int leader = LeaderIndex(cluster_);
  if (leader < 0) {
    return "no leader";
  }
  const mon::Epoch leader_epoch = cluster_->monitor(leader).osd_map().epoch;
  std::vector<std::pair<const sim::Actor*, mon::Epoch>> held;
  for (size_t i = 0; i < cluster_->num_osds(); ++i) {
    held.emplace_back(&cluster_->osd(i), cluster_->osd(i).osd_map().epoch);
  }
  for (size_t i = 0; i < cluster_->num_mds(); ++i) {
    held.emplace_back(&cluster_->mds(i), cluster_->mds(i).rados_client().osd_map().epoch);
  }
  for (size_t i = 0; i < cluster_->num_clients(); ++i) {
    held.emplace_back(&cluster_->client(i), cluster_->client(i).rados.osd_map().epoch);
  }
  for (const auto& [daemon, epoch] : held) {
    if (daemon->alive() && epoch != leader_epoch) {
      return daemon->name().ToString() + " at osdmap epoch " + std::to_string(epoch) +
             ", leader at " + std::to_string(leader_epoch);
    }
  }
  return "";
}

void Checkers::Violation(std::string what) {
  MAL_WARN("chaos") << "INVARIANT VIOLATION: " << what;
  violations_.push_back("t=" + std::to_string(cluster_->simulator().Now()) + " " +
                        std::move(what));
}

void Checkers::Sample() {
  ++samples_;
  // Map epochs are monotonic at every observer. Monitor and OSD map state
  // models durable storage (survives crashes); the MDS keeps its last map
  // across restart, so none of these may ever regress.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> epochs_at_commit;
  for (size_t i = 0; i < cluster_->num_mons(); ++i) {
    const auto& mon = cluster_->monitor(i);
    std::string who = "mon." + std::to_string(i);
    CheckEpoch(who + ".osd_epoch", mon.osd_map().epoch);
    CheckEpoch(who + ".mds_epoch", mon.mds_map().epoch);
    // At most one leader per ballot, ever (ballots are globally unique
    // proposal rounds; two monitors leading on the same ballot would mean
    // a split brain that Paxos promises forbid).
    if (mon.alive() && mon.IsLeader()) {
      auto [it, fresh] =
          ballot_leader_.emplace(mon.paxos_ballot(), static_cast<uint32_t>(i));
      if (!fresh && it->second != i) {
        Violation("two leaders for ballot " + std::to_string(mon.paxos_ballot()) +
                  ": mon." + std::to_string(it->second) + " and mon." + std::to_string(i));
      }
    }
    // No split epochs: commits apply deterministically, so two monitors at
    // the same committed-through point must agree on every map epoch.
    auto pair = std::make_pair(mon.osd_map().epoch, mon.mds_map().epoch);
    auto [it, fresh] = epochs_at_commit.emplace(mon.paxos_committed_through(), pair);
    if (!fresh && it->second != pair) {
      Violation("epoch split at commit " + std::to_string(mon.paxos_committed_through()) +
                ": mon." + std::to_string(i) + " disagrees");
    }
  }
  for (size_t i = 0; i < cluster_->num_osds(); ++i) {
    CheckEpoch("osd." + std::to_string(i), cluster_->osd(i).osd_map().epoch);
  }
  for (size_t i = 0; i < cluster_->num_mds(); ++i) {
    CheckEpoch("mds." + std::to_string(i), cluster_->mds(i).mds_map().epoch);
  }
  // At most one writable capability holder per file per instant, across
  // all live metadata servers (§4.3.1 exclusivity).
  std::map<std::string, std::vector<std::string>> holders;
  for (size_t i = 0; i < cluster_->num_mds(); ++i) {
    const auto& mds = cluster_->mds(i);
    if (!mds.alive()) {
      continue;
    }
    for (const auto& [path, holder] : mds.HeldCaps()) {
      holders[path].push_back("mds." + std::to_string(i) + ":" + holder.ToString());
    }
  }
  for (const auto& [path, who] : holders) {
    if (who.size() > 1) {
      std::string all;
      for (const auto& w : who) {
        all += (all.empty() ? "" : ", ") + w;
      }
      Violation("multiple writable cap holders for " + path + ": " + all);
    }
  }
  // The inode-embedded sequencer counter never regresses (§4.3.2: grants
  // recorded durably before the reply leaves the MDS).
  for (const auto& path : watched_paths_) {
    uint64_t tail = 0;
    bool found = false;
    for (size_t i = 0; i < cluster_->num_mds(); ++i) {
      const auto* inode = cluster_->mds(i).GetInode(path);
      if (inode != nullptr && inode->type == mds::InodeType::kSequencer) {
        tail = std::max(tail, inode->seq_tail);
        found = true;
      }
    }
    if (!found) {
      // Once a watched sequencer inode has been observed, SOME daemon must
      // always hold it (live or journaled on a crashed rank; migration
      // erases the source only after the target installed). Found nowhere =
      // the handoff dropped the inode and its grant counter.
      if (seq_floor_.count(path) != 0) {
        Violation("sequencer inode lost for " + path);
      }
      continue;
    }
    uint64_t& floor = seq_floor_[path];
    if (tail < floor) {
      Violation("sequencer tail regressed for " + path + ": " + std::to_string(floor) +
                " -> " + std::to_string(tail));
    } else {
      floor = tail;
    }
  }
}

struct Checkers::LogScan {
  zlog::Log* log = nullptr;
  // The log's ack map and the violation-message prefix (its path).
  const std::map<uint64_t, std::string>* acks = nullptr;
  std::string label;
  uint64_t pos = 0;
  uint64_t max = 0;
  int retries = 0;
  std::function<void()> done;
};

void Checkers::VerifyLog(zlog::Log* log, std::function<void()> on_done) {
  const std::map<uint64_t, std::string>& acks = acked_[log->sequencer_path()];
  if (acks.empty()) {
    on_done();
    return;
  }
  auto scan = std::make_shared<LogScan>();
  scan->log = log;
  scan->acks = &acks;
  scan->label = log->sequencer_path() + " ";
  scan->max = acks.rbegin()->first;
  scan->done = std::move(on_done);
  VerifyStep(std::move(scan));
}

void Checkers::VerifyStep(std::shared_ptr<LogScan> scan) {
  if (scan->pos > scan->max) {
    scan->done();
    return;
  }
  uint64_t pos = scan->pos;
  scan->log->Read(pos, [this, scan](mal::Status status, zlog::EntryState state,
                                    const mal::Buffer& data) {
    uint64_t pos = scan->pos;
    auto it = scan->acks->find(pos);
    if (status.ok()) {
      if (state == zlog::EntryState::kData) {
        if (it != scan->acks->end() && data.View() != it->second) {
          Violation(scan->label + "payload mismatch at acked position " +
                    std::to_string(pos));
        }
      } else if (it != scan->acks->end()) {
        // kFilled/kTrimmed where an ack was issued = a lost committed write.
        Violation(scan->label + "acked append lost at position " + std::to_string(pos) +
                  " (filled)");
      }
      ++scan->pos;
      scan->retries = 0;
      VerifyStep(std::move(scan));
      return;
    }
    if (status.code() == mal::Code::kNotWritten) {
      if (it != scan->acks->end()) {
        Violation(scan->label + "acked append lost at position " + std::to_string(pos) +
                  " (hole)");
      }
      // Fill the hole so the committed prefix is contiguous. kReadOnly
      // means a writer landed the position concurrently: re-read it.
      scan->log->Fill(pos, [this, scan, pos](mal::Status fill_status) {
        if (fill_status.ok()) {
          ++scan->pos;
          scan->retries = 0;
        } else if (fill_status.code() != mal::Code::kReadOnly && ++scan->retries > 8) {
          Violation(scan->label + "fill failed at position " + std::to_string(pos) + ": " +
                    fill_status.ToString());
          ++scan->pos;
          scan->retries = 0;
        }
        VerifyStep(std::move(scan));
      });
      return;
    }
    if (status.code() == mal::Code::kStaleEpoch) {
      if (++scan->retries > 32) {
        Violation(scan->label + "verify stuck on stale epoch at position " +
                  std::to_string(pos));
        scan->done();
        return;
      }
      // The log handle pre-dates a recovery seal; relearn the epoch.
      scan->log->Open([this, scan](mal::Status) { VerifyStep(std::move(scan)); });
      return;
    }
    if (++scan->retries <= 8) {
      VerifyStep(std::move(scan));  // transient (kUnavailable/kTimedOut): retry
      return;
    }
    Violation(scan->label + "verify read failed at position " + std::to_string(pos) +
              ": " + status.ToString());
    ++scan->pos;
    scan->retries = 0;
    VerifyStep(std::move(scan));
  });
}

struct Checkers::EcScan {
  ec::Pool* pool = nullptr;
  const std::map<std::string, std::string>* acks = nullptr;
  std::map<std::string, std::string>::const_iterator it;
  int retries = 0;
  std::function<void()> done;
};

void Checkers::VerifyEcPool(ec::Pool* pool, std::function<void()> on_done) {
  auto pit = ec_acked_.find(pool->name());
  if (pit == ec_acked_.end() || pit->second.empty()) {
    on_done();
    return;
  }
  auto scan = std::make_shared<EcScan>();
  scan->pool = pool;
  scan->acks = &pit->second;
  scan->it = pit->second.begin();
  scan->done = std::move(on_done);
  VerifyEcStep(std::move(scan));
}

void Checkers::VerifyEcStep(std::shared_ptr<EcScan> scan) {
  if (scan->it == scan->acks->end()) {
    scan->done();
    return;
  }
  const std::string& object = scan->it->first;
  scan->pool->Read(object, [this, scan](mal::Status status, const mal::Buffer& data) {
    const std::string& object = scan->it->first;
    if (status.ok()) {
      if (data.View() != scan->it->second) {
        Violation("ec " + scan->pool->name() + "/" + object +
                  " payload mismatch after heal");
      }
      ++scan->it;
      scan->retries = 0;
      VerifyEcStep(std::move(scan));
      return;
    }
    bool transient = status.code() == mal::Code::kUnavailable ||
                     status.code() == mal::Code::kTimedOut ||
                     status.code() == mal::Code::kBusy;
    if (transient && ++scan->retries <= 8) {
      VerifyEcStep(std::move(scan));
      return;
    }
    // kDataLoss / kNotFound (or a transient that never clears): an acked
    // object no longer reads back — the invariant the EC pool promises.
    Violation("ec " + scan->pool->name() + "/" + object + " acked object lost: " +
              status.ToString());
    ++scan->it;
    scan->retries = 0;
    VerifyEcStep(std::move(scan));
  });
}

uint32_t Checkers::EcMissingShards(const std::string& pool, uint32_t k) const {
  auto pit = ec_acked_.find(pool);
  if (pit == ec_acked_.end() || cluster_->num_mons() == 0) {
    return 0;
  }
  // Freshest map any monitor holds: the authoritative placement view.
  const mon::OsdMap* map = &cluster_->monitor(0).osd_map();
  for (size_t i = 1; i < cluster_->num_mons(); ++i) {
    if (cluster_->monitor(i).osd_map().epoch > map->epoch) {
      map = &cluster_->monitor(i).osd_map();
    }
  }
  uint32_t default_replicas = cluster_->options().osd.replicas;
  uint32_t missing = 0;
  for (const auto& [object, payload] : pit->second) {
    std::string logical = osd::PoolOid(pool, object);
    uint64_t stamp = mal::Checksum(payload);
    for (uint32_t s = 0; s < k + 1; ++s) {
      std::string shard_oid = osd::EcShardOid(logical, s);
      auto acting = osd::ActingSetForOid(shard_oid, *map, default_replicas);
      bool healthy = false;
      if (!acting.empty() && acting[0] < cluster_->num_osds()) {
        auto stored = cluster_->osd(acting[0]).store().Get(shard_oid);
        if (stored.ok()) {
          const osd::Omap& xattrs = stored.value()->xattrs;
          auto cksum = xattrs.Find(ec::kShardCksumXattr);
          auto gen = xattrs.Find(ec::kShardStampXattr);
          healthy = cksum && gen &&
                    *cksum == std::to_string(mal::Checksum(stored.value()->data.View())) &&
                    *gen == std::to_string(stamp);
        }
      }
      if (!healthy) {
        ++missing;
      }
    }
  }
  return missing;
}

std::string Checkers::Report() const {
  std::string out = "samples=" + std::to_string(samples_) +
                    " acked=" + std::to_string(acked_count()) +
                    " violations=" + std::to_string(violations_.size()) + "\n";
  for (const auto& violation : violations_) {
    out += violation;
    out += '\n';
  }
  return out;
}

}  // namespace mal::chaos
