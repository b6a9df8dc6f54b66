#include "src/mds/mds_client.h"

#include "src/common/log.h"

namespace mal::mds {

uint32_t MdsClient::TargetFor(const std::string& path) const {
  auto it = authority_cache_.find(path);
  return it == authority_cache_.end() ? config_.home_mds : it->second.rank;
}

void MdsClient::SetAuthorityHint(const std::string& path, uint32_t rank) {
  authority_cache_[path].rank = rank;  // epoch untouched: newer maps override
}

void MdsClient::Request(const ClientRequest& request, ReplyHandler on_reply) {
  auto pending =
      std::make_shared<PendingRequest>(PendingRequest{request, std::move(on_reply)});
  svc::Retry::Start(
      owner_->simulator(), &retry_rng_, kRetry,
      [this, pending](const svc::Retry& retry) { RequestAttempt(pending, retry); },
      [pending] {
        pending->on_reply(mal::Status::Unavailable("mds unreachable"), MdsReply{});
      });
}

void MdsClient::RequestAttempt(const std::shared_ptr<PendingRequest>& pending,
                               const svc::Retry& retry) {
  const ClientRequest& request = pending->request;
  owner_->SendRequest(
      sim::EntityName::Mds(TargetFor(request.path)), kMsgClientRequest, mal::Encode(request),
      [this, pending, retry](mal::Status status, const sim::Envelope& reply) {
        uint32_t redirect_rank = 0;
        uint64_t redirect_epoch = 0;
        if (ParseWrongRank(status, &redirect_rank, &redirect_epoch)) {
          // Epoch-guarded: a redirect stamped with an older MDS map
          // never clobbers a fresher cache entry — but we still retry at
          // whatever the cache now says, so a redirect ping-pong between two
          // stale ranks dies with the bounded retry budget instead of
          // looping forever.
          CachedAuthority& cached = authority_cache_[pending->request.path];
          if (redirect_epoch >= cached.epoch) {
            cached = {redirect_rank, redirect_epoch};
          }
          retry();
          return;
        }
        if (status.code() == mal::Code::kBusy) {
          // The MDS shed us at admission: back off and resend to the same
          // authority (placement did not change).
          retry();
          return;
        }
        if (status.ok() && !RepliesWithMdsReply(pending->request.op)) {
          pending->on_reply(status, MdsReply{});
          return;
        }
        auto decoded = mal::DecodeReply<MdsReply>(status, reply.payload);
        if (!decoded.ok()) {
          pending->on_reply(decoded.status(), MdsReply{});
          return;
        }
        pending->on_reply(mal::Status::Ok(), decoded.value());
      },
      config_.rpc_timeout);
}

void MdsClient::Mkdir(const std::string& path, DoneHandler on_done) {
  ClientRequest req;
  req.op = MdsOp::kMkdir;
  req.path = path;
  Request(req, [on_done = std::move(on_done)](mal::Status s, const MdsReply&) {
    on_done(s);
  });
}

void MdsClient::Create(const std::string& path, InodeType type, const LeasePolicy& policy,
                       DoneHandler on_done) {
  ClientRequest req;
  req.op = MdsOp::kCreate;
  req.path = path;
  req.inode_type = type;
  req.policy = policy;
  Request(req, [on_done = std::move(on_done)](mal::Status s, const MdsReply&) {
    on_done(s);
  });
}

void MdsClient::Lookup(const std::string& path, ReplyHandler on_reply) {
  ClientRequest req;
  req.op = MdsOp::kLookup;
  req.path = path;
  Request(req, std::move(on_reply));
}

void MdsClient::SetPolicy(const std::string& path, const LeasePolicy& policy,
                          DoneHandler on_done) {
  ClientRequest req;
  req.op = MdsOp::kSetPolicy;
  req.path = path;
  req.policy = policy;
  Request(req, [on_done = std::move(on_done)](mal::Status s, const MdsReply&) {
    on_done(s);
  });
}

void MdsClient::SeqNextBatch(
    const std::string& path, uint64_t count,
    std::function<void(mal::Status, uint64_t first, bool contended)> on_grant) {
  ClientRequest req;
  req.op = MdsOp::kSeqNextBatch;
  req.path = path;
  req.seq_value = count;
  Request(req, [on_grant = std::move(on_grant)](mal::Status s, const MdsReply& reply) {
    on_grant(s, reply.seq_value, reply.inode.params.count("contended") != 0);
  });
}

void MdsClient::SeqRead(const std::string& path,
                        std::function<void(mal::Status, uint64_t)> on_pos) {
  ClientRequest req;
  req.op = MdsOp::kSeqRead;
  req.path = path;
  Request(req, [on_pos = std::move(on_pos)](mal::Status s, const MdsReply& reply) {
    on_pos(s, reply.seq_value);
  });
}

bool MdsClient::HasCap(const std::string& path) const {
  auto it = caps_.find(path);
  return it != caps_.end() && !it->second.releasing;
}

void MdsClient::AcquireCap(const std::string& path, DoneHandler on_granted) {
  if (HasCap(path)) {
    on_granted(mal::Status::Ok());
    return;
  }
  ClientRequest req;
  req.op = MdsOp::kAcquireCap;
  req.path = path;
  Request(req, [this, path, on_granted = std::move(on_granted)](mal::Status s,
                                                                const MdsReply& reply) {
    if (!s.ok()) {
      on_granted(s);
      return;
    }
    HeldCap cap;
    cap.next_value = reply.seq_value;
    cap.terms = reply.terms;
    cap.grant_time_ns = owner_->Now();
    caps_[path] = cap;
    on_granted(mal::Status::Ok());
  });
}

mal::Result<uint64_t> MdsClient::LocalNextBatch(const std::string& path, uint64_t count) {
  auto it = caps_.find(path);
  if (it == caps_.end() || it->second.releasing) {
    return mal::Status::Unavailable("cap not held for " + path);
  }
  HeldCap& cap = it->second;
  uint64_t first = cap.next_value;
  cap.next_value += count;
  cap.ops_since_grant += count;
  // Quota terms: once a revoke is pending and we have used our quota, give
  // the cap back (the "quota" curve of Fig 5c).
  if (cap.revoke_pending && cap.terms.mode == LeaseMode::kQuota &&
      cap.ops_since_grant >= cap.terms.quota) {
    ReleaseNow(path);
  }
  return first;
}

bool MdsClient::OnMessage(const sim::Envelope& envelope) {
  if (envelope.type != kMsgCapRevoke) {
    return false;
  }
  auto revoke = mal::Decode<CapRevoke>(envelope.payload);
  if (!revoke.ok()) {
    MAL_WARN(owner_->name().ToString())
        << "dropping malformed cap revoke: " << revoke.status();
    return true;
  }
  HandleRevoke(revoke.value().path);
  return true;
}

void MdsClient::HandleRevoke(const std::string& path) {
  auto it = caps_.find(path);
  if (it == caps_.end() || it->second.releasing) {
    return;
  }
  HeldCap& cap = it->second;
  if (cap.revoke_pending) {
    return;
  }
  cap.revoke_pending = true;
  switch (cap.terms.mode) {
    case LeaseMode::kBestEffort:
    case LeaseMode::kRoundTrip:
      ReleaseNow(path);
      return;
    case LeaseMode::kDelay: {
      // Keep the cap until the reservation expires.
      uint64_t deadline = cap.grant_time_ns + cap.terms.max_hold_ns;
      uint64_t now = owner_->Now();
      if (deadline <= now) {
        ReleaseNow(path);
        return;
      }
      cap.hold_timer = owner_->ScheduleGuarded(
          deadline - now, [this, path] { ReleaseNow(path); });
      return;
    }
    case LeaseMode::kQuota: {
      // Yield once the quota is exhausted (checked in LocalNextBatch), but never
      // hold past the reservation either.
      if (cap.ops_since_grant >= cap.terms.quota) {
        ReleaseNow(path);
        return;
      }
      uint64_t deadline = cap.grant_time_ns + cap.terms.max_hold_ns;
      uint64_t now = owner_->Now();
      cap.hold_timer = owner_->ScheduleGuarded(
          deadline > now ? deadline - now : 0, [this, path] { ReleaseNow(path); });
      return;
    }
  }
}

void MdsClient::ReleaseNow(const std::string& path) {
  auto it = caps_.find(path);
  if (it == caps_.end() || it->second.releasing) {
    return;
  }
  it->second.releasing = true;
  if (it->second.hold_timer != 0) {
    owner_->simulator()->Cancel(it->second.hold_timer);
  }
  ClientRequest req;
  req.op = MdsOp::kReleaseCap;
  req.path = path;
  req.seq_value = it->second.next_value;
  Request(req, [this, path](mal::Status, const MdsReply&) {
    caps_.erase(path);
    ++caps_released_;
    if (on_cap_lost) {
      on_cap_lost(path);
    }
  });
}

void MdsClient::ReleaseCap(const std::string& path, DoneHandler on_done) {
  if (!HasCap(path)) {
    on_done(mal::Status::NotFound("no cap held for " + path));
    return;
  }
  ReleaseNow(path);
  on_done(mal::Status::Ok());
}

}  // namespace mal::mds
