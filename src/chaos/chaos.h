// Deterministic chaos engine: seeded fault schedules against a live
// cluster, plus cluster-wide invariant checkers.
//
// The contract is reproducibility: a FaultPlan seed fully determines the
// fault schedule (which daemon crashes when, partition endpoints, burst
// windows), and because the simulator itself is deterministic, the same
// seed replays the exact same event trace — Runner::TraceString() is the
// artifact to diff. Fault injection draws only from the Runner's own Rng
// and the Network's dedicated fault stream, so a plan with everything
// disabled perturbs nothing (bench output stays byte-identical).
//
// Checkers assert the safety properties the paper's designs rely on:
// CORFU write-once/no-ack-loss (§4.4.2), monotonic map epochs and a
// single Paxos leader per ballot (§4.1), exclusive write capabilities
// (§4.3.1), and a never-regressing sequencer counter (§4.3.2).
#ifndef MALACOLOGY_CHAOS_CHAOS_H_
#define MALACOLOGY_CHAOS_CHAOS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/ec/pool.h"

namespace mal::chaos {

// One entry of the reproducible fault/heal trace.
struct ChaosEvent {
  sim::Time time = 0;
  std::string kind;    // "osd_crash", "mon_recover", "burst_start", ...
  std::string detail;  // entity / endpoints / parameters
  std::string ToString() const;
};

// Seeded description of a chaos run. Weights select among fault classes
// that are currently feasible (quorum-preserving: at most a minority of
// monitors down or isolated at once).
struct FaultPlan {
  uint64_t seed = 1;
  sim::Time duration = 30 * sim::kSecond;     // injection window
  sim::Time mean_interval = 2 * sim::kSecond;  // exponential inter-fault gap
  sim::Time min_downtime = 500 * sim::kMillisecond;
  sim::Time max_downtime = 4 * sim::kSecond;
  sim::Time min_burst = 200 * sim::kMillisecond;
  sim::Time max_burst = 2 * sim::kSecond;
  // Loss/dup/reorder rates applied cluster-wide during a burst.
  sim::FaultSpec burst{0.05, 0.05, 0.10, 2 * sim::kMillisecond};

  double w_osd_crash = 1.0;
  double w_mds_crash = 1.0;
  double w_mon_crash = 1.0;
  double w_leader_crash = 1.0;  // crash specifically the Paxos leader
  double w_partition = 1.0;     // isolate one daemon from all other daemons
  double w_burst = 1.0;
  // Robustness classes for EC/scrub runs; default off so existing plans
  // draw the exact same RNG sequence and replay byte-identically.
  double w_osd_perm_loss = 0.0;  // destroy an OSD and its store forever
  double w_shard_corrupt = 0.0;  // flip one bit in a stored EC shard

  uint32_t max_down_osds = 1;
  uint32_t max_down_mds = 1;
  uint32_t max_lost_osds = 1;  // permanent losses over the whole run
  // Spacing floor between redundancy-damage faults (permanent loss, shard
  // corruption): an m=1 erasure code only provably survives them when the
  // scrubber gets a full repair pass in between. Set to 0 to explore the
  // beyond-tolerance regime where acked data may genuinely be lost.
  sim::Time min_damage_interval = 5 * sim::kSecond;
  // Per-attempt monitor RPC timeout for the runner's own client (the one
  // that submits kOsdFail for permanent losses). 0 keeps the transport
  // default (5s); damage plans set ~1s so a down-OSD map update is not
  // stalled behind a dead monitor while the scrubber's repair window runs
  // out (see min_damage_interval).
  sim::Time mon_request_timeout = 0;
};

// Injects the plan's faults into a booted cluster. Every fault schedules
// its own heal; after `plan.duration` no new faults start and HealAll()
// restores a fault-free cluster, so `quiescent()` eventually holds.
class Runner {
 public:
  Runner(cluster::Cluster* cluster, FaultPlan plan);

  // Starts the schedule (call once, after Cluster::Boot).
  void Arm();

  // Force-heals everything immediately: recovers crashed daemons, lifts
  // partitions and bursts. Called automatically at the end of the plan,
  // which then runs `on_healed`.
  void HealAll();
  std::function<void()> on_healed;

  // True when no injected fault is still outstanding.
  bool quiescent() const;

  const std::vector<ChaosEvent>& events() const { return events_; }
  // Canonical trace for the seed-reproducibility contract: identical
  // across runs with the same plan against the same cluster options.
  std::string TraceString() const;

  // Heal-to-recovered latency samples (ns), per fault class. Recovery is
  // observed at: OSD map catch-up complete, a monitor holding leadership
  // again, MDS process restart; partitions/bursts recover instantly.
  const std::map<std::string, std::vector<sim::Time>>& recovery_ns() const {
    return recovery_ns_;
  }

 private:
  void ScheduleNext();
  void Inject();
  void Record(const char* kind, std::string detail);
  sim::Time Uniform(sim::Time lo, sim::Time hi);
  // Polls `recovered` (no RNG, fixed 50 ms cadence) and records the
  // heal-to-recovered latency for `cls` when it first holds.
  void TrackRecovery(std::string cls, std::function<bool()> recovered);

  void InjectOsdCrash();
  void InjectMdsCrash();
  void InjectMonCrash(bool target_leader);
  void InjectPartition();
  void InjectBurst();
  // Permanent loss: crash + wipe the store + mark the OSD failed in the
  // map (via the runner's own client). Never healed — the data is gone and
  // only scrub rebuild brings the redundancy back on the survivors.
  void InjectOsdPermLoss();
  // Silent bit-rot: flip one bit of a stored EC shard object on a live
  // OSD. No heal either — checksum scrubbing must catch and repair it.
  void InjectShardCorrupt();
  // Submits kOsdFail for a lost OSD and resubmits (500 ms cadence, no RNG)
  // until the freshest monitor map stops listing it up — the transaction
  // may race a monitor failover and be dropped.
  void MarkOsdFailed(uint32_t id);
  // All stored ".shard" objects on up OSDs, in deterministic order.
  std::vector<std::pair<uint32_t, std::string>> ShardCandidates() const;

  // Heal primitives; each is a no-op if the fault is no longer active, so
  // the per-fault scheduled heal and HealAll() compose safely.
  void RecoverOsd(uint32_t id);
  void RecoverMds(uint32_t id);
  void RecoverMon(uint32_t id, std::string cls);
  void LiftPartition();
  void LiftBurst();

  uint32_t PickUp(uint32_t count, const std::set<uint32_t>& down);

  cluster::Cluster* cluster_;
  FaultPlan plan_;
  mal::Rng rng_;
  sim::Time end_time_ = 0;
  bool armed_ = false;
  bool done_injecting_ = false;

  std::set<uint32_t> down_osds_;
  std::set<uint32_t> down_mds_;
  std::set<uint32_t> down_mons_;
  // Permanently destroyed OSDs: never recovered, excluded from heal and
  // quiescence (a dead disk is a steady state, not an outstanding fault).
  std::set<uint32_t> lost_osds_;
  // When the last redundancy-damage fault landed (0 = never); gates the
  // damage classes behind plan.min_damage_interval.
  sim::Time last_damage_ = 0;
  // Lazily created at Arm() when permanent loss is enabled: submits the
  // kOsdFail transactions that take lost OSDs out of the map.
  cluster::Client* chaos_client_ = nullptr;
  // Active partition edges (empty when none).
  std::vector<std::pair<sim::EntityName, sim::EntityName>> partition_edges_;
  // When a monitor is the isolated endpoint it counts against quorum.
  int partitioned_mon_ = -1;
  bool burst_active_ = false;

  std::vector<ChaosEvent> events_;
  std::map<std::string, std::vector<sim::Time>> recovery_ns_;
};

// Cluster-wide invariant checkers. Arm() starts periodic instantaneous
// sampling; RecordAck() feeds the workload's acked appends; VerifyLog()
// is the post-heal deep scan. Violations accumulate as deterministic
// strings — any entry is a test failure.
class Checkers {
 public:
  explicit Checkers(cluster::Cluster* cluster);

  // Starts sampling every `interval` and hooks OSD map application.
  void Arm(sim::Time interval = 200 * sim::kMillisecond);

  // Registers a sequencer inode path whose embedded counter must never
  // regress (max across MDS daemons, sampled).
  void WatchSequencer(std::string path);

  // Workload-side: an append to the log whose sequencer inode is `path`
  // was acked at `position` carrying `tag`. Each log keeps its own position
  // space; the same position acked twice on one log is flagged at once.
  void RecordAck(const std::string& path, uint64_t position, std::string tag);
  // EC-pool workload-side: `object` in `pool` was fully committed with
  // `payload` (every shard acked). Later writes of the same object
  // replace the expectation.
  void RecordEcAck(const std::string& pool, const std::string& object, std::string payload);

  // Post-heal convergence: within `within` of now, every up OSD, MDS and
  // client holds the leader's OSDMap epoch (polled every 50 ms, no RNG).
  // Call it as the faults heal (Runner::on_healed).
  void ExpectMapsConverge(sim::Time within = 2 * sim::kSecond);

  // Post-heal scan of [0, max acked]: every acked position must read back
  // kData with its exact payload (no acked-append loss, no silent
  // overwrite); unwritten holes are filled so the committed prefix is
  // contiguous. `log` must be an open handle on the verified log; it is
  // checked against the acks recorded for its sequencer path. The paper's
  // migration/failover claim is exactly this: every log's committed prefix
  // survives, no matter which rank its sequencer lived on when the faults
  // hit.
  void VerifyLog(zlog::Log* log, std::function<void()> on_done);

  // Post-heal scan of an EC pool: every acked object must read back its
  // exact payload (degraded reads are fine — kDataLoss or a mismatch is
  // not). `pool` must be a handle on the verified pool.
  void VerifyEcPool(ec::Pool* pool, std::function<void()> on_done);

  // White-box redundancy audit against the freshest monitor map: counts
  // acked (object, shard) slots whose canonical home does not hold a
  // checksum-valid shard of the object's acked generation. Zero means
  // scrub restored full k+1 redundancy on the surviving OSDs.
  uint32_t EcMissingShards(const std::string& pool, uint32_t k) const;

  const std::vector<std::string>& violations() const { return violations_; }
  uint64_t samples() const { return samples_; }
  uint64_t acked_count() const {
    uint64_t count = 0;
    for (const auto& [path, acks] : acked_) {
      count += acks.size();
    }
    return count;
  }
  // Deterministic checker summary (diffed by the reproducibility test).
  std::string Report() const;

 private:
  struct LogScan;
  struct EcScan;

  void Sample();
  void VerifyEcStep(std::shared_ptr<EcScan> scan);
  void SampleLoop(sim::Time interval);
  void CheckEpoch(const std::string& observer, uint64_t epoch);
  // The first up daemon not at the leader's OSDMap epoch ("" when all are).
  std::string MapLaggard();
  void Violation(std::string what);
  void VerifyStep(std::shared_ptr<LogScan> scan);

  cluster::Cluster* cluster_;
  std::vector<std::string> violations_;
  // Sequencer path -> position -> payload tag (each log its own space).
  std::map<std::string, std::map<uint64_t, std::string>> acked_;
  // EC pools: pool -> object -> last acked payload.
  std::map<std::string, std::map<std::string, std::string>> ec_acked_;
  std::map<std::string, uint64_t> max_epoch_;      // observer -> max epoch seen
  std::map<uint64_t, uint32_t> ballot_leader_;     // ballot -> monitor id
  std::map<std::string, uint64_t> seq_floor_;      // path -> max tail seen
  std::vector<std::string> watched_paths_;
  uint64_t samples_ = 0;
  bool armed_ = false;
};

}  // namespace mal::chaos

#endif  // MALACOLOGY_CHAOS_CHAOS_H_
