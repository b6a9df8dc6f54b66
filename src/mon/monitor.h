// Monitor daemon: the consensus heart of the cluster.
//
// Each Monitor actor embeds a Paxos node. Client/daemon transactions are
// forwarded to the current leader, batched, committed through Paxos,
// applied to the cluster maps, and pushed to subscribers.
//
// Batching follows the paper (§6.1.2: "By default Paxos proposals occur
// periodically with a 1 second interval in order to accumulate updates
// ... we were able to decrease this interval to an average of 222 ms") the
// way Ceph's PaxosService::should_propose does: the proposal interval
// bounds the proposal rate, not the wait. A transaction reaching a leader
// that has not proposed for an interval is proposed at once; one arriving
// sooner waits for the interval to end and joins that batch. An idle
// monitor schedules no proposal events.
//
// The monitor also hosts the centralized cluster log that Mantle uses for
// warnings/errors (paper §5.1.3).
#ifndef MALACOLOGY_MON_MONITOR_H_
#define MALACOLOGY_MON_MONITOR_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/perf.h"
#include "src/consensus/paxos.h"
#include "src/mon/maps.h"
#include "src/mon/messages.h"
#include "src/sim/actor.h"
#include "src/svc/dispatch.h"
#include "src/telemetry/health.h"
#include "src/telemetry/series.h"

namespace mal::mon {

struct MonitorConfig {
  // Minimum gap between two proposals of one leader.
  sim::Time proposal_interval = 1 * sim::kSecond;
  // Added to each proposal to model the commit fsync on the monitor store
  // (the paper contrasts RAM-backed vs HDD-backed monitors in Fig 8).
  sim::Time store_commit_latency = 0;
  sim::Time election_timeout = 2 * sim::kSecond;
  // Bounded inbox depth for admission control; 0 disables (see svc/).
  size_t inbox_depth = 0;
  // Telemetry rollup/health-evaluation tick. 0 disables the whole telemetry
  // layer (no series ingestion, no rules, no extra simulator events), which
  // keeps defaults-off runs byte-identical to pre-telemetry builds.
  sim::Time telemetry_interval = 0;
  // Install the shipped MalScript health rules when telemetry is on.
  bool builtin_health_rules = true;
};

class Monitor : public sim::Actor {
 public:
  // Paxos retransmit and leader-heartbeat period.
  static constexpr sim::Time kRetransmitInterval = 500 * sim::kMillisecond;
  // Entities whose last perf report is older than this are flagged stale in
  // PerfDumpJson (and by the stale_daemon health rule, which warns at half).
  static constexpr sim::Time kStaleReportAge = 10 * sim::kSecond;

  Monitor(sim::Simulator* simulator, sim::Network* network, uint32_t id,
          std::vector<uint32_t> quorum, MonitorConfig config = {});

  // Starts timers; the lowest-id monitor campaigns for leadership.
  void Boot();

  bool IsLeader() const { return paxos_->IsLeader(); }
  // Paxos introspection for the chaos invariant checkers.
  uint64_t paxos_ballot() const { return paxos_->current_ballot(); }
  uint64_t paxos_committed_through() const { return paxos_->committed_through(); }
  const OsdMap& osd_map() const { return osd_map_; }
  const MdsMap& mds_map() const { return mds_map_; }
  const std::vector<ClusterLogEntry>& cluster_log() const { return cluster_log_; }

  // Cluster-wide perf view: this monitor's own registry plus the latest
  // snapshot pushed by each daemon/client (kMsgPerfReport). Also served over
  // the wire via kMsgGetPerfDump.
  std::string PerfDumpJson() const;
  mal::PerfRegistry& perf() { return perf_; }
  const std::map<std::string, mal::PerfSnapshot>& perf_reports() const {
    return perf_reports_;
  }

  // Telemetry layer (active when config.telemetry_interval > 0): every perf
  // report is folded into the series store, and each tick evaluates the
  // MalScript health rules against it (see src/telemetry/ and
  // docs/telemetry.md).
  bool telemetry_enabled() const { return config_.telemetry_interval > 0; }
  const telemetry::SeriesStore& series() const { return series_; }
  telemetry::HealthEngine& health() { return health_; }
  const telemetry::HealthEngine& health() const { return health_; }
  // Installs/overrides an operator health rule (tests and benches inject
  // custom ones the same way the builtins are installed).
  mal::Status InstallHealthRule(const std::string& name, const std::string& source,
                                std::map<std::string, double> params = {});
  std::string HealthJson() const;

  // Observer hook for experiments: fired when a committed transaction batch
  // has been applied (after map epochs bump).
  std::function<void(const std::vector<Transaction>&)> on_apply;

  void Crash() override;
  void Recover() override;

 protected:
  void HandleRequest(const sim::Envelope& request) override;

 private:
  void RegisterHandlers();

  void HandlePaxos(consensus::PaxosMessage msg);
  void HandleCommand(const sim::Envelope& request);
  void HandleGetMap(const sim::Envelope& request, GetMapRequest req);
  void HandleSubscribe(const sim::Envelope& request, SubscribeRequest req);
  void HandleLogEntry(const sim::Envelope& request, ClusterLogEntry entry);
  void HandleGetClusterLog(const sim::Envelope& request);
  void HandlePerfReport(const sim::Envelope& request, mal::PerfSnapshot snap);
  void HandleGetPerfDump(const sim::Envelope& request);
  void HandleQuerySeries(const sim::Envelope& request, QuerySeriesRequest req);
  void HandleGetHealth(const sim::Envelope& request);

  void TelemetryTick();
  void AppendClusterLog(ClusterLogEntry entry);

  // Schedules ProposeBatch `delay` from now; at most one is armed.
  void ArmProposal(sim::Time delay);
  void ProposeBatch();
  void ApplyCommitted(const mal::Buffer& value);
  void ApplyTransaction(const Transaction& txn, bool* osd_dirty, bool* mds_dirty);
  void PushMap(MapKind kind);
  mal::Buffer EncodeMap(MapKind kind) const;
  uint32_t LeaderHint() const;

  MonitorConfig config_;
  std::vector<uint32_t> quorum_;
  svc::ServiceDispatcher dispatcher_{this};
  std::unique_ptr<consensus::PaxosNode> paxos_;

  OsdMap osd_map_;
  MdsMap mds_map_;
  std::vector<ClusterLogEntry> cluster_log_;
  mal::PerfRegistry perf_;
  std::map<std::string, mal::PerfSnapshot> perf_reports_;  // entity -> latest
  telemetry::SeriesStore series_;
  telemetry::HealthEngine health_{&series_};
  uint64_t health_log_seq_ = 0;

  std::vector<Transaction> pending_batch_;
  // Requests waiting for their transaction to commit: batch sequence ->
  // envelopes to ack. Keyed by the batch id we assign when proposing.
  std::vector<std::pair<uint64_t, sim::Envelope>> waiting_acks_;
  uint64_t next_batch_id_ = 1;
  bool proposal_armed_ = false;
  std::optional<sim::Time> last_proposal_;  // when this monitor last proposed
  uint64_t applied_batches_ = 0;

  std::map<MapKind, std::set<sim::EntityName>> subscribers_;
  sim::Time last_leader_contact_ = 0;
};

}  // namespace mal::mon

#endif  // MALACOLOGY_MON_MONITOR_H_
