// MdsClient: client-side metadata library.
//
// Routes requests to the right MDS (authority cache + kWrongRank redirect
// handling; in proxy mode the session server forwards instead) and implements
// the client half of the cooperative capability protocol (paper §4.3.1:
// "clients voluntarily release resources back to the file system metadata
// service"): on revoke, the client yields according to the lease terms it
// was granted — immediately (best-effort), when its reservation expires
// (delay), or after exhausting its operation quota (quota).
#ifndef MALACOLOGY_MDS_MDS_CLIENT_H_
#define MALACOLOGY_MDS_MDS_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/mds/types.h"
#include "src/sim/actor.h"
#include "src/svc/retry.h"

namespace mal::mds {

struct MdsClientConfig {
  uint32_t home_mds = 0;                      // session server
  sim::Time rpc_timeout = 60 * sim::kSecond;  // cap grants can take a while
};

class MdsClient {
 public:
  MdsClient(sim::Actor* owner, MdsClientConfig config = {})
      : owner_(owner),
        config_(config),
        retry_rng_(0x6d6473ULL * 0x9e3779b97f4a7c15ULL +
                   (static_cast<uint64_t>(owner->name().type) << 32) + owner->name().id) {}

  using ReplyHandler = std::function<void(mal::Status, const MdsReply&)>;
  using DoneHandler = std::function<void(mal::Status)>;

  // Fired when a held cap is fully released (after a revoke was honored).
  std::function<void(const std::string& path)> on_cap_lost;

  // Routes envelopes the owner receives; returns true if consumed.
  bool OnMessage(const sim::Envelope& envelope);

  // -- namespace ----------------------------------------------------------------
  void Mkdir(const std::string& path, DoneHandler on_done);
  void Create(const std::string& path, InodeType type, const LeasePolicy& policy,
              DoneHandler on_done);
  void Lookup(const std::string& path, ReplyHandler on_reply);
  void SetPolicy(const std::string& path, const LeasePolicy& policy, DoneHandler on_done);

  // -- sequencer: round-trip mode -----------------------------------------------
  void SeqRead(const std::string& path, std::function<void(mal::Status, uint64_t)> on_pos);
  // Reserves `count` contiguous positions in one round-trip; yields the
  // first, and whether the MDS had other clients' requests queued behind
  // this one (the contention hint). The MDS records the advanced tail in
  // the inode, so sequencer recovery seals at or past every granted
  // position.
  void SeqNextBatch(const std::string& path, uint64_t count,
                    std::function<void(mal::Status, uint64_t first, bool contended)> on_grant);

  // -- sequencer: cached (capability) mode ----------------------------------------
  // Requests the exclusive cap; on grant the client takes positions locally
  // via LocalNextBatch() until the cap is revoked and the terms force release.
  void AcquireCap(const std::string& path, DoneHandler on_granted);
  bool HasCap(const std::string& path) const;
  // Reserves `count` contiguous positions from the locally cached tail
  // (returns the first). Fails kUnavailable if the cap is not held. The
  // whole batch counts against quota terms at once; honoring them may
  // trigger a release afterwards.
  mal::Result<uint64_t> LocalNextBatch(const std::string& path, uint64_t count);
  // Voluntarily give the cap back now.
  void ReleaseCap(const std::string& path, DoneHandler on_done);

  // Generic escape hatch.
  void Request(const ClientRequest& request, ReplyHandler on_reply);

  // Pin the cached owner rank for a path (sharded-sequencer failover: the
  // takeover initiator knows where it is about to install the inode before
  // any MDS can redirect it there). Later kWrongRank redirects with a newer
  // map epoch still override the pin.
  void SetAuthorityHint(const std::string& path, uint32_t rank);

  uint64_t caps_released() const { return caps_released_; }

 private:
  struct HeldCap {
    uint64_t next_value = 0;
    LeasePolicy terms;
    uint64_t grant_time_ns = 0;
    uint64_t ops_since_grant = 0;
    bool revoke_pending = false;
    bool releasing = false;
    sim::EventId hold_timer = 0;
  };

  // Retry schedule shared by redirect chasing and kBusy backoff: four
  // attempts, each sent as soon as the last one is answered.
  static constexpr svc::RetryPolicy kRetry{.max_attempts = 4};

  // A request under the retry loop.
  struct PendingRequest {
    ClientRequest request;
    ReplyHandler on_reply;
  };
  // One try of `pending` at the rank the authority cache names.
  void RequestAttempt(const std::shared_ptr<PendingRequest>& pending, const svc::Retry& retry);
  uint32_t TargetFor(const std::string& path) const;
  void HandleRevoke(const std::string& path);
  void ReleaseNow(const std::string& path);

  // Cached owner rank per path. `epoch` is the map epoch of the redirect
  // the entry was learned from (0 = local hint, always overridable):
  // kWrongRank redirects only move the cache forward.
  struct CachedAuthority {
    uint32_t rank = 0;
    uint64_t epoch = 0;
  };

  sim::Actor* owner_;
  MdsClientConfig config_;
  mal::Rng retry_rng_;
  std::map<std::string, CachedAuthority> authority_cache_;
  std::map<std::string, HeldCap> caps_;
  uint64_t caps_released_ = 0;
};

}  // namespace mal::mds

#endif  // MALACOLOGY_MDS_MDS_CLIENT_H_
