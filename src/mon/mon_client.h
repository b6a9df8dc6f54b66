// MonClient: helper every daemon and client embeds to talk to the monitor
// quorum — submit transactions, fetch/subscribe to maps, and write to the
// centralized cluster log. Retries against other quorum members on timeout.
#ifndef MALACOLOGY_MON_MON_CLIENT_H_
#define MALACOLOGY_MON_MON_CLIENT_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/perf.h"
#include "src/common/rng.h"
#include "src/mon/messages.h"
#include "src/sim/actor.h"
#include "src/svc/retry.h"
#include "src/telemetry/series.h"

namespace mal::mon {

class MonClient {
 public:
  MonClient(sim::Actor* owner, std::vector<uint32_t> mons)
      : owner_(owner),
        mons_(std::move(mons)),
        retry_rng_(0x6d6f6eULL * 0x9e3779b97f4a7c15ULL +
                   (static_cast<uint64_t>(owner->name().type) << 32) + owner->name().id) {}

  // Backoff base/cap for quorum retries. The attempt budget is fixed at
  // twice the quorum size (two full rotations); the default zero base
  // delay reproduces the legacy retry-next-mon-immediately loop.
  void set_retry_policy(const svc::RetryPolicy& policy) { retry_ = policy; }

  // Per-attempt RPC timeout against a single monitor. The default matches
  // the transport default (5s), but that makes quorum rotation nearly
  // useless under failures: a request whose first pick is a dead monitor
  // stalls the full 5s before trying the next member, which turns every
  // map fetch or transaction submitted during a monitor outage into a
  // multi-second stall. Recovery-sensitive deployments (chaos tests, the
  // scrub/repair path) set this to ~1s so rotation finds a live member
  // quickly.
  void set_request_timeout(sim::Time timeout) { request_timeout_ = timeout; }
  sim::Time request_timeout() const { return request_timeout_; }

  using AckHandler = std::function<void(mal::Status)>;
  using MapHandler = std::function<void(mal::Status, const MapUpdate&)>;

  // Submits a transaction; `on_done` fires after the transaction commits
  // through Paxos (or fails after exhausting retries).
  void SubmitTransaction(const Transaction& txn, AckHandler on_done) {
    SendWithRetry(kMsgMonCommand, mal::Encode(txn), MakeBackoff(),
                  [on_done = std::move(on_done)](mal::Status status, const sim::Envelope&) {
                    on_done(status);
                  });
  }

  // Convenience: set a service-metadata key on a cluster map (the paper's
  // Service Metadata interface).
  void SetServiceMetadata(MapKind kind, const std::string& key, const std::string& value,
                          AckHandler on_done) {
    Transaction txn;
    txn.op = Transaction::Op::kSetServiceMetadata;
    txn.map_kind = kind;
    txn.key = key;
    txn.value = value;
    SubmitTransaction(txn, std::move(on_done));
  }

  void GetMap(MapKind kind, MapHandler on_map) {
    GetMapRequest req{kind};
    SendWithRetry(kMsgGetMap, mal::Encode(req), MakeBackoff(),
                  [on_map = std::move(on_map)](mal::Status status,
                                               const sim::Envelope& reply) {
                    if (!status.ok()) {
                      on_map(status, MapUpdate{});
                      return;
                    }
                    mal::Decoder dec(reply.payload);
                    on_map(mal::Status::Ok(), MapUpdate::Decode(&dec));
                  });
  }

  // Like GetMap, but treats a reply whose map is not strictly newer than
  // `have_epoch` as a miss: a stale follower (e.g. a monitor that just
  // crash-recovered with old state) causes rotation to the next quorum
  // member instead of satisfying the fetch. Only when the whole retry
  // budget finds nothing newer is the freshest reply seen delivered with
  // Ok — the caller keeps its map and its own backoff paces the next
  // attempt. Without this, a client whose push subscription died with a
  // crashed leader can re-read the same stale map forever while it
  // retries an OSD the rest of the cluster already failed.
  // `epoch_of` extracts the epoch from a reply (the payload encoding is
  // map-kind specific, so the caller supplies the decode).
  void GetMapAbove(MapKind kind, Epoch have_epoch,
                   std::function<Epoch(const MapUpdate&)> epoch_of, MapHandler on_map) {
    GetMapRequest req{kind};
    GetMapAboveAttempt(mal::Encode(req), have_epoch, std::move(epoch_of), MakeBackoff(),
                       std::make_shared<BestMap>(), std::move(on_map));
  }

  // Registers for push updates (delivered to the owner as kMsgMapUpdate).
  void Subscribe(MapKind kind, Epoch have_epoch) {
    SubscribeRequest req;
    req.kind = kind;
    req.have_epoch = have_epoch;
    req.subscriber = owner_->name();
    SendWithRetry(kMsgSubscribe, mal::Encode(req), MakeBackoff(),
                  [](mal::Status, const sim::Envelope&) {});
  }

  // Centralized cluster log (fire-and-forget).
  void Log(const std::string& severity, const std::string& message) {
    ClusterLogEntry entry;
    entry.time_ns = owner_->Now();
    entry.seq = ++log_seq_;
    entry.source = owner_->name().ToString();
    entry.severity = severity;
    entry.message = message;
    owner_->SendOneWay(sim::EntityName::Mon(mons_[pick_ % mons_.size()]), kMsgLogEntry,
                       mal::Encode(entry));
  }

  // Every `period`, pushes a snapshot of `perf` to one monitor unless the
  // registry is empty (fire-and-forget; the next report supersedes a lost
  // one). The owner's periodic timer drives it, so `perf` must live as long
  // as the owner.
  static constexpr sim::Time kPerfReportPeriod = 1 * sim::kSecond;
  void StartPerfReports(const mal::PerfRegistry& perf, sim::Time period = kPerfReportPeriod) {
    owner_->StartPeriodic(period, [this, &perf] {
      if (!perf.empty()) {
        mal::PerfSnapshot snapshot = perf.Snapshot(owner_->name().ToString(), owner_->Now());
        owner_->SendOneWay(sim::EntityName::Mon(mons_[pick_ % mons_.size()]), kMsgPerfReport,
                           mal::Encode(snapshot));
      }
    });
  }

  // Fetches the cluster-wide perf dump (JSON) from the monitor.
  void GetPerfDump(std::function<void(mal::Status, std::string)> on_dump) {
    SendWithRetry(kMsgGetPerfDump, mal::Buffer(), MakeBackoff(),
                  [on_dump = std::move(on_dump)](mal::Status status,
                                                 const sim::Envelope& reply) {
                    on_dump(status, reply.payload.front().ToString());
                  });
  }

  // Queries the monitor's telemetry series store (kMsgQuerySeries); the
  // reply decodes into rollup windows (or single-point windows for raw).
  void QuerySeries(const QuerySeriesRequest& req,
                   std::function<void(mal::Status, std::vector<telemetry::Window>)>
                       on_windows) {
    SendWithRetry(kMsgQuerySeries, mal::Encode(req), MakeBackoff(),
                  [on_windows = std::move(on_windows)](mal::Status status,
                                                       const sim::Envelope& reply) {
                    std::vector<telemetry::Window> windows;
                    if (status.ok()) {
                      mal::Decoder dec(reply.payload);
                      uint64_t n = dec.GetVarU64();
                      for (uint64_t i = 0; i < n && dec.ok(); ++i) {
                        windows.push_back(telemetry::Window::Decode(&dec));
                      }
                    }
                    on_windows(status, std::move(windows));
                  });
  }

  // Fetches the ClusterHealth JSON (kMsgGetHealth).
  void GetHealth(std::function<void(mal::Status, std::string)> on_health) {
    SendWithRetry(kMsgGetHealth, mal::Buffer(), MakeBackoff(),
                  [on_health = std::move(on_health)](mal::Status status,
                                                     const sim::Envelope& reply) {
                    on_health(status, reply.payload.front().ToString());
                  });
  }

  const std::vector<uint32_t>& mons() const { return mons_; }

 private:
  // Attempt budget: two full rotations through the quorum, so a single
  // down monitor never exhausts the retry allowance.
  svc::Backoff MakeBackoff() const {
    svc::RetryPolicy policy = retry_;
    policy.max_attempts = static_cast<int>(mons_.size() * 2);
    return svc::Backoff(policy);
  }

  // Freshest not-newer-than-have_epoch reply seen during a GetMapAbove
  // rotation; delivered only if the whole budget finds nothing newer.
  struct BestMap {
    bool seen = false;
    Epoch epoch = 0;
    MapUpdate update;
  };

  void GetMapAboveAttempt(mal::Buffer payload, Epoch have_epoch,
                          std::function<Epoch(const MapUpdate&)> epoch_of,
                          svc::Backoff backoff, std::shared_ptr<BestMap> best,
                          MapHandler on_map) {
    if (backoff.Exhausted()) {
      if (best->seen) {
        on_map(mal::Status::Ok(), best->update);  // quorum-wide, nothing newer exists
      } else {
        on_map(mal::Status::Unavailable("monitor quorum unreachable"), MapUpdate{});
      }
      return;
    }
    uint32_t mon = mons_[(pick_ + static_cast<size_t>(backoff.attempt())) % mons_.size()];
    owner_->SendRequest(
        sim::EntityName::Mon(mon), kMsgGetMap, payload,
        [this, payload, have_epoch, epoch_of, backoff, best,
         on_map = std::move(on_map)](mal::Status status, const sim::Envelope& reply) mutable {
          auto retry = [this, &payload, have_epoch, &epoch_of, &backoff, &best,
                        &on_map]() mutable {
            sim::Time delay = backoff.NextDelay(&retry_rng_);
            svc::RunAfter(owner_->simulator(), delay,
                          [this, payload, have_epoch, epoch_of, backoff, best,
                           on_map = std::move(on_map)] {
                            GetMapAboveAttempt(payload, have_epoch, epoch_of, backoff,
                                               best, on_map);
                          });
          };
          if (status.code() == mal::Code::kTimedOut ||
              status.code() == mal::Code::kUnavailable ||
              status.code() == mal::Code::kBusy) {
            retry();
            return;
          }
          if (!status.ok()) {
            on_map(status, MapUpdate{});
            return;
          }
          mal::Decoder dec(reply.payload);
          MapUpdate update = MapUpdate::Decode(&dec);
          Epoch epoch = epoch_of(update);
          if (epoch > have_epoch) {
            on_map(mal::Status::Ok(), update);
            return;
          }
          // Stale (or merely not newer): remember the freshest such reply
          // in case the whole quorum agrees, and try the next member.
          if (!best->seen || epoch > best->epoch) {
            *best = {true, epoch, std::move(update)};
          }
          retry();
        },
        request_timeout_);
  }

  void SendWithRetry(uint32_t type, mal::Buffer payload, svc::Backoff backoff,
                     sim::Actor::ReplyHandler handler) {
    if (backoff.Exhausted()) {
      handler(mal::Status::Unavailable("monitor quorum unreachable"), sim::Envelope{});
      return;
    }
    // Rotate through the quorum: attempt N lands on the Nth mon after the
    // preferred one, so a retry never re-asks the peer that just failed us.
    uint32_t mon = mons_[(pick_ + static_cast<size_t>(backoff.attempt())) % mons_.size()];
    owner_->SendRequest(
        sim::EntityName::Mon(mon), type, payload,
        [this, type, payload, backoff, handler = std::move(handler)](
            mal::Status status, const sim::Envelope& reply) mutable {
          if (status.code() == mal::Code::kTimedOut ||
              status.code() == mal::Code::kUnavailable ||
              status.code() == mal::Code::kBusy) {
            // Consume the attempt before building the continuation so the
            // lambda captures the advanced backoff.
            sim::Time delay = backoff.NextDelay(&retry_rng_);
            svc::RunAfter(owner_->simulator(), delay,
                          [this, type, payload, backoff, handler = std::move(handler)] {
                            SendWithRetry(type, payload, backoff, handler);
                          });
            return;
          }
          handler(status, reply);
        },
        request_timeout_);
  }

  sim::Actor* owner_;
  std::vector<uint32_t> mons_;
  svc::RetryPolicy retry_{};
  sim::Time request_timeout_ = 5 * sim::kSecond;
  mal::Rng retry_rng_;
  size_t pick_ = 0;
  uint64_t log_seq_ = 0;
};

}  // namespace mal::mon

#endif  // MALACOLOGY_MON_MON_CLIENT_H_
