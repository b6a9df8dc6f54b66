// Metadata server daemon.
//
// Implements the three Distributed Metadata interfaces of the paper:
//  - Shared Resource (§4.3.1): a capability state machine per inode with
//    programmable lease policies (best-effort / delay / quota) plus a
//    non-cacheable round-trip mode.
//  - File Type (§4.3.2): typed inodes; the kSequencer type embeds a 64-bit
//    tail counter in the inode, which is how ZLog maps its CORFU sequencer
//    onto the metadata service.
//  - Load Balancing (§4.3.3): per-subtree load accounting, cluster-wide
//    load table via peer reports, pluggable BalancerPolicy deciding how
//    much load to export, and subtree migration with either proxy
//    (forwarding) or client (redirect) routing after migration (Fig 11).
//
// Routing is one decision (Route: serve, proxy or redirect), taken at
// admission and again when the request leaves the work queue; every
// redirect is a kWrongRank "wrong_rank:<rank>:<map epoch>" reply.
//
// CPU model (drives Figures 9-12): every client request charges
// handle_cost at the receiving server; sequencer operations charge
// tail_cost at the inode's authority; proxy forwarding charges
// forward_cost at the proxy; requests served directly by a non-root
// authority additionally charge coherence costs at both the serving MDS
// and the root authority — the "scatter-gather cache coherence" strain the
// paper observes in client mode (§6.2.1).
#ifndef MALACOLOGY_MDS_MDS_H_
#define MALACOLOGY_MDS_MDS_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/perf.h"
#include "src/common/rng.h"
#include "src/mds/balancer.h"
#include "src/mds/types.h"
#include "src/mon/mon_client.h"
#include "src/rados/client.h"
#include "src/sim/actor.h"
#include "src/svc/dispatch.h"

namespace mal::mds {

enum class RoutingMode : uint8_t { kProxy = 0, kRedirect = 1 };

struct MdsConfig {
  sim::Time handle_cost = 50 * sim::kMicrosecond;
  sim::Time tail_cost = 60 * sim::kMicrosecond;
  sim::Time forward_cost = 20 * sim::kMicrosecond;
  // Work-queue charge per proxied request (journal/coherence bookkeeping
  // the proxy still performs for subtrees it exported); the forward itself
  // rides the dispatch lane.
  sim::Time proxy_admin_cost = 80 * sim::kMicrosecond;
  sim::Time coherence_self_cost = 150 * sim::kMicrosecond;
  sim::Time coherence_peer_cost = 120 * sim::kMicrosecond;
  sim::Time migration_cost = 5 * sim::kMillisecond;
  // Capability grant/release processing (journaling the cap transition).
  // This is the dead time per exchange that makes fine-grained cap
  // ping-pong expensive (Figs 5-7).
  sim::Time cap_process_cost = 1 * sim::kMillisecond;
  // A cap holder that ignores a revoke this long is declared dead; the cap
  // is reclaimed and the inode flagged for CORFU-style recovery (§5.2.2:
  // "a timeout is used to determine when a client should be considered
  // unavailable").
  sim::Time cap_reclaim_timeout = 10 * sim::kSecond;

  RoutingMode routing = RoutingMode::kProxy;

  // Sharded sequencers: when true, sequencer-inode ownership is published
  // in the MdsMap service metadata ("seq.owner.<path>" entries), non-owner
  // ranks answer sequencer ops with kWrongRank redirects instead of
  // proxying, and the target of a sequencer migration (MigrateSequencer)
  // publishes itself as the new owner. Off by default: the single-sequencer
  // wire and cost model is byte-for-byte the legacy one.
  bool seq_ownership = false;
  // CPU charge per migration phase at each end when the inode is a
  // sequencer on a seq_ownership rank (freeze/transfer accounting, much
  // lighter than the migration_cost of a full subtree export).
  sim::Time seq_handoff_cost = 1 * sim::kMillisecond;

  // Relative sampling noise on the exported CPU metric: request counters
  // are exact, but CPU utilization is sampled from a volatile signal (the
  // paper's explanation for the CephFS CPU mode's high variance, §6.2.1).
  double cpu_metric_noise = 0.25;
  uint64_t seed = 1;

  sim::Time balance_interval = 10 * sim::kSecond;  // the "balancing tick"
  sim::Time load_report_interval = 5 * sim::kSecond;
  sim::Time load_window = 10 * sim::kSecond;  // rate averaging window
  bool balancing_enabled = false;
  // Bounded inbox depth for admission control; 0 disables (see svc/).
  size_t inbox_depth = 0;
};

class MdsDaemon : public sim::Actor {
 public:
  MdsDaemon(sim::Simulator* simulator, sim::Network* network, uint32_t id,
            std::vector<uint32_t> mons, MdsConfig config = {});
  ~MdsDaemon() override;

  // Registers with the monitor, subscribes to maps, starts timers.
  void Boot();

  // Crash/restart. The inode table (including the sequencer tail counter
  // embedded per §4.3.2, which every kSeqNextBatch grant advances)
  // models journaled metadata and survives the crash; capability state is
  // volatile and is invalidated on recovery: any cap that was outstanding
  // at crash time is dropped, and sequencer inodes whose cached tail died
  // with the holder are flagged needs_recovery so grants resume only after
  // CORFU seal/recovery — re-issued grants can never regress below the
  // durable tail.
  void Crash() override;
  void Recover() override;

  // Caps currently held at this MDS (path -> holder); checker introspection.
  std::vector<std::pair<std::string, sim::EntityName>> HeldCaps() const;

  // Installs a balancer policy (stock CephFS mode or Mantle). Balancing
  // runs only if config.balancing_enabled.
  void SetBalancerPolicy(std::shared_ptr<BalancerPolicy> policy);
  BalancerPolicy* balancer_policy() { return policy_.get(); }

  // Moves an inode this MDS hosts (any type) to `target`. Phase 1 journals
  // the freeze (params["migrating_to"] = target): from then on every request
  // on the inode except kLookup/kSeqRead queues on its waiters. Phase 2
  // encodes the inode after the freeze and transfers it; the target
  // max-merges seq_tail on redelivery, so a resend never regresses it.
  // Phase 3, on the target's ack, drops this copy and executes the queued
  // requests again, so they take the routing decision afresh and follow
  // the inode to the target (proxy or redirect, as this rank routes). A
  // failed transfer unfreezes and executes them the same way, here; a
  // crash mid-migration is re-driven by Recover(). Refused while a cap is
  // held or the inode is already frozen.
  void Migrate(const std::string& path, uint32_t target,
               std::function<void(mal::Status)> on_done);

  // Sharded-sequencer entry point: Migrate for a kSequencer inode on a
  // seq_ownership rank. The target publishes itself as the owner in the
  // MdsMap; grants queued during the freeze are redirected to it.
  void MigrateSequencer(const std::string& path, uint32_t target,
                        std::function<void(mal::Status)> on_done);

  // -- introspection (tests and benches) ---------------------------------------
  uint32_t AuthorityOf(const std::string& path) const;
  const Inode* GetInode(const std::string& path) const;
  const std::map<uint32_t, LoadMetrics>& load_table() const { return load_table_; }
  uint64_t requests_handled() const { return requests_handled_; }
  // Client requests in the work queue (charged CPU, not yet executed).
  uint64_t queued_requests() const { return queued_total_; }
  const mon::MdsMap& mds_map() const { return mds_map_; }
  // The daemon's one monitor session, shared with its RADOS client.
  mon::MonClient& mon_client() { return rados_.mon_client(); }
  rados::RadosClient& rados_client() { return rados_; }
  mal::PerfRegistry& perf() { return perf_; }
  const MdsConfig& config() const { return config_; }

  // Observer hooks for experiments.
  std::function<void(const std::string&, uint32_t)> on_migration;  // path, target

 protected:
  void HandleRequest(const sim::Envelope& request) override;

 private:
  struct CapState {
    bool held = false;
    sim::EntityName holder;
    uint64_t grant_time_ns = 0;
    bool revoke_sent = false;
    std::deque<sim::Envelope> waiters;  // pending kAcquireCap requests
  };

  // A request queued on a frozen inode, with the routing flag it arrived on.
  struct Waiter {
    sim::Envelope request;
    ClientRequest req;
    bool forwarded = false;
  };

  struct HostedInode {
    Inode inode;
    CapState cap;
    uint64_t window_requests = 0;  // decayed per load window
    double rate = 0;
    // Requests queued while a migration has the inode frozen
    // (params["migrating_to"] set). Volatile: queued rpcs die with a crash,
    // exactly like cap.waiters.
    std::deque<Waiter> waiters;
  };

  // Where a request goes: served here, or proxied or redirected to `rank`.
  enum class RouteKind : uint8_t { kServe, kProxy, kRedirect };
  struct RouteDecision {
    RouteKind kind = RouteKind::kServe;
    uint32_t rank = 0;
  };

  void RegisterHandlers();

  // Admission: routes, then charges the work queue for requests served here.
  void HandleClientRequest(const sim::Envelope& request, ClientRequest req,
                           bool forwarded);
  // Routes again, then runs the op (or queues it on a frozen inode).
  void ExecuteRequest(const sim::Envelope& request, const ClientRequest& req,
                      bool forwarded);
  // The one routing decision. Takeover installs are always served here.
  RouteDecision Route(const ClientRequest& req, bool forwarded) const;
  // Carries out a kProxy or kRedirect decision. With `follow`, a forward
  // that comes back redirected is proxied once more, to the rank named.
  void PassOn(const sim::Envelope& request, RouteDecision route, bool follow = true);
  void HandleAuthorityUpdate(const AuthorityUpdate& update);
  void HandleMapUpdate(const sim::Envelope& request);

  // -- migration -----------------------------------------------------------------
  // Phase 1 of Migrate: validate, journal the freeze, drive the transfer.
  // `publish` tells a seq_ownership target to publish itself as a
  // sequencer's owner (false for demotions, where the map already names it).
  void StartMigration(const std::string& path, uint32_t target, bool publish,
                      std::function<void(mal::Status)> on_done);
  // Phase 2+3 of a migration whose freeze is already journaled; re-driven
  // from Recover() after a source crash.
  void DriveMigration(const std::string& path, uint32_t target, bool publish,
                      std::function<void(mal::Status)> on_done);
  void HandleMigrateIn(const sim::Envelope& request, MigrateRequest migrate);
  // CPU charge of one migration phase at either end: seq_handoff_cost for a
  // sequencer on a seq_ownership rank, migration_cost for everything else.
  sim::Time MigrationCost(const Inode& inode) const;

  // -- sharded sequencers --------------------------------------------------------
  // Reconciles hosted sequencers against a freshly adopted ownership map
  // (publish re-drive, demotion of stale copies).
  void SeqOwnershipSweep();
  // Published owner of `path` in the current MdsMap, if any.
  std::optional<uint32_t> MapOwnerOf(const std::string& path) const;
  // Submits the seq.owner.<path> -> rank map transaction (idempotent;
  // re-driven from HandleMapUpdate while params["owner_pending"] is set).
  void PublishSeqOwner(const std::string& path);
  void UpdateOwnedLogsGauge();

  // True while a request from a sender other than `from` waits in the work
  // queue: the contention hint put on sequencer grants.
  bool OthersQueued(const sim::EntityName& from) const;

  void GrantCap(const std::string& path, HostedInode& hosted, const sim::Envelope& to);
  void MaybeRevoke(const std::string& path, HostedInode& hosted);
  // Acks a served client request: the MdsReply for the ops that return one
  // (RepliesWithMdsReply, which MdsClient reads too), else an empty payload.
  void ReplyServed(const sim::Envelope& request, MdsOp op, const MdsReply& reply = {});

  void ReportLoad();
  void BalanceTick();
  // Blends the current window with the smoothed history (decayed load, as
  // in CephFS). commit=true folds the window into the smoothed state and
  // resets counters.
  LoadMetrics SnapshotLoad(bool commit);

  std::vector<uint32_t> PeerRanks() const;
  // Tells every active peer except `target` that `target` now serves `path`.
  void BroadcastAuthority(const std::string& path, uint32_t target);

  MdsConfig config_;
  svc::ServiceDispatcher dispatcher_{this};
  rados::RadosClient rados_;
  mon::MdsMap mds_map_;
  mal::PerfRegistry perf_;

  // Inodes this MDS is authoritative for, by absolute path.
  std::map<std::string, HostedInode> inodes_;
  // Cluster-wide authority hints (exact path -> rank). Missing entries
  // resolve to the root rank.
  std::map<std::string, uint32_t> authority_;

  std::map<uint32_t, LoadMetrics> load_table_;
  std::shared_ptr<BalancerPolicy> policy_;

  mal::Rng rng_{1};
  uint64_t next_ino_ = 1;
  uint64_t requests_handled_ = 0;
  // Work-queue occupancy per sender (volatile: cleared by Crash()).
  std::map<sim::EntityName, uint64_t> queued_by_sender_;
  uint64_t queued_total_ = 0;
  uint64_t window_requests_ = 0;
  sim::Time window_start_ = 0;
  double smoothed_req_rate_ = 0;
};

}  // namespace mal::mds

#endif  // MALACOLOGY_MDS_MDS_H_
