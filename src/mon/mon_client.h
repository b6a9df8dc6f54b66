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

  // Per-attempt RPC timeout against a single monitor. The default matches
  // the transport default (5s), but that makes quorum rotation nearly
  // useless under failures: a request whose first pick is a dead monitor
  // stalls the full 5s before trying the next member, which turns every
  // map fetch or transaction submitted during a monitor outage into a
  // multi-second stall. Recovery-sensitive deployments (chaos tests, the
  // scrub/repair path) set this to ~1s so rotation finds a live member
  // quickly.
  void set_request_timeout(sim::Time timeout) { request_timeout_ = timeout; }

  using AckHandler = std::function<void(mal::Status)>;
  using MapHandler = std::function<void(mal::Status, const MapUpdate&)>;

  // Submits a transaction; `on_done` fires after the transaction commits
  // through Paxos (or fails after exhausting retries).
  void SubmitTransaction(const Transaction& txn, AckHandler on_done) {
    SendWithRetry(kMsgMonCommand, mal::Encode(txn),
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
    SendWithRetry(kMsgGetMap, mal::Encode(req),
                  [on_map = std::move(on_map)](mal::Status status,
                                               const sim::Envelope& reply) {
                    auto update = mal::DecodeReply<MapUpdate>(status, reply.payload);
                    if (!update.ok()) {
                      on_map(update.status(), MapUpdate{});
                      return;
                    }
                    on_map(mal::Status::Ok(), update.value());
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
  // retries an OSD the rest of the cluster already failed. A reply that
  // does not decode ends the fetch with kCorruption.
  void GetMapAbove(MapKind kind, Epoch have_epoch, MapHandler on_map) {
    // The freshest not-newer reply seen so far; delivered only if the whole
    // budget finds nothing newer.
    struct Fetch {
      MapHandler on_map;
      bool seen = false;
      Epoch best_epoch = 0;
      MapUpdate best;
    };
    auto fetch = std::make_shared<Fetch>();
    fetch->on_map = std::move(on_map);
    SendToQuorum(
        kMsgGetMap, mal::Encode(GetMapRequest{kind}),
        [have_epoch, fetch](mal::Status status, const sim::Envelope& reply) {
          auto decoded = mal::DecodeReply<MapUpdate>(status, reply.payload);
          if (!decoded.ok()) {
            fetch->on_map(decoded.status(), MapUpdate{});
            return true;
          }
          MapUpdate& update = decoded.value();
          Epoch epoch = EpochOf(update);
          if (epoch > have_epoch) {
            fetch->on_map(mal::Status::Ok(), update);
            return true;
          }
          // Stale (or merely not newer): remember the freshest such reply
          // in case the whole quorum agrees, and try the next member.
          if (!fetch->seen || epoch > fetch->best_epoch) {
            fetch->seen = true;
            fetch->best_epoch = epoch;
            fetch->best = std::move(update);
          }
          return false;
        },
        [fetch] {
          if (fetch->seen) {
            // Quorum-wide, nothing newer exists.
            fetch->on_map(mal::Status::Ok(), fetch->best);
          } else {
            fetch->on_map(mal::Status::Unavailable("monitor quorum unreachable"), MapUpdate{});
          }
        });
  }

  // Registers for push updates (delivered to the owner as kMsgMapUpdate).
  void Subscribe(MapKind kind, Epoch have_epoch) {
    SubscribeRequest req;
    req.kind = kind;
    req.have_epoch = have_epoch;
    req.subscriber = owner_->name();
    SendWithRetry(kMsgSubscribe, mal::Encode(req),
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
    owner_->SendOneWay(sim::EntityName::Mon(mons_.front()), kMsgLogEntry, mal::Encode(entry));
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
        owner_->SendOneWay(sim::EntityName::Mon(mons_.front()), kMsgPerfReport,
                           mal::Encode(snapshot));
      }
    });
  }

  // Fetches the cluster-wide perf dump (JSON) from the monitor.
  void GetPerfDump(std::function<void(mal::Status, std::string)> on_dump) {
    SendWithRetry(kMsgGetPerfDump, mal::Buffer(),
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
    SendWithRetry(kMsgQuerySeries, mal::Encode(req),
                  [on_windows = std::move(on_windows)](mal::Status status,
                                                       const sim::Envelope& reply) {
                    auto decoded = mal::DecodeReply<QuerySeriesReply>(status, reply.payload);
                    if (!decoded.ok()) {
                      on_windows(decoded.status(), {});
                      return;
                    }
                    on_windows(mal::Status::Ok(), std::move(decoded.value().windows));
                  });
  }

  // Fetches the ClusterHealth JSON (kMsgGetHealth).
  void GetHealth(std::function<void(mal::Status, std::string)> on_health) {
    SendWithRetry(kMsgGetHealth, mal::Buffer(),
                  [on_health = std::move(on_health)](mal::Status status,
                                                     const sim::Envelope& reply) {
                    on_health(status, reply.payload.front().ToString());
                  });
  }

 private:
  // Sends one request to the quorum under the retry loop, whose budget is
  // two full rotations through the quorum, so a single down monitor never
  // exhausts it. Attempt N lands on the Nth mon after the preferred (first)
  // one, so a retry never re-asks the peer that just failed us. Timeouts,
  // outages and sheds retry; every other reply goes to `on_reply`, which
  // returns false to retry anyway (a stale map) or true once it has
  // consumed the reply. `on_exhausted` runs when the budget is spent.
  void SendToQuorum(uint32_t type, mal::Buffer payload,
                    std::function<bool(mal::Status, const sim::Envelope&)> on_reply,
                    std::function<void()> on_exhausted) {
    svc::RetryPolicy policy;
    policy.max_attempts = static_cast<int>(mons_.size() * 2);
    svc::Retry::Start(
        owner_->simulator(), &retry_rng_, policy,
        [this, type, payload = std::move(payload),
         on_reply = std::move(on_reply)](const svc::Retry& retry) {
          uint32_t mon = mons_[static_cast<size_t>(retry.attempt()) % mons_.size()];
          owner_->SendRequest(
              sim::EntityName::Mon(mon), type, payload,
              [on_reply, retry](mal::Status status, const sim::Envelope& reply) {
                if (status.code() == mal::Code::kTimedOut ||
                    status.code() == mal::Code::kUnavailable ||
                    status.code() == mal::Code::kBusy || !on_reply(status, reply)) {
                  retry();
                }
              },
              request_timeout_);
        },
        std::move(on_exhausted));
  }

  // SendToQuorum for requests whose every reply is final.
  void SendWithRetry(uint32_t type, mal::Buffer payload, sim::Actor::ReplyHandler handler) {
    auto done = std::make_shared<sim::Actor::ReplyHandler>(std::move(handler));
    SendToQuorum(
        type, std::move(payload),
        [done](mal::Status status, const sim::Envelope& reply) {
          (*done)(status, reply);
          return true;
        },
        [done] {
          (*done)(mal::Status::Unavailable("monitor quorum unreachable"), sim::Envelope{});
        });
  }

  sim::Actor* owner_;
  std::vector<uint32_t> mons_;
  sim::Time request_timeout_ = 5 * sim::kSecond;
  mal::Rng retry_rng_;
  uint64_t log_seq_ = 0;
};

}  // namespace mal::mon

#endif  // MALACOLOGY_MON_MON_CLIENT_H_
