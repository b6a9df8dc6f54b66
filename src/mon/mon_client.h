// MonClient: the one monitor session each daemon and client embeds, as in
// Ceph. Transactions, map fetches and subscriptions, the cluster log and
// perf reports all go to the session monitor, which starts at
// mons.front(). When the session monitor lets a request time out, the
// session moves to the next member and every subscription is re-sent
// there with the owner's epoch. The perf report is the keepalive: its ack
// carries the monitor's map epochs, so a lost push is caught up too.
#ifndef MALACOLOGY_MON_MON_CLIENT_H_
#define MALACOLOGY_MON_MON_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
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
  // the transport default (5s), which a dead session monitor costs once;
  // recovery-sensitive deployments (chaos tests, scrub/repair) set ~1s.
  void set_request_timeout(sim::Time timeout) { request_timeout_ = timeout; }

  using AckHandler = std::function<void(mal::Status)>;
  using MapHandler = std::function<void(mal::Status, const MapUpdate&)>;
  using TextHandler = std::function<void(mal::Status, std::string)>;

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
    SubmitTransaction(Transaction{Transaction::Op::kSetServiceMetadata, kind, 0, key, value},
                      std::move(on_done));
  }

  // Fetches the map of `kind`. With `have_epoch`, a reply whose map is not
  // strictly newer is a miss: a stale follower (e.g. a monitor that just
  // crash-recovered with old state) causes rotation to the next quorum
  // member instead of satisfying the fetch. Only when the whole retry
  // budget finds nothing newer is the freshest reply seen delivered with
  // Ok — the caller keeps its map and its own backoff paces the next
  // attempt. Without this, a client whose session monitor recovered with
  // old state could re-read the same stale map while it retries an OSD the
  // rest of the cluster already failed. A reply that does not decode ends
  // the fetch with kCorruption.
  void GetMap(MapKind kind, MapHandler on_map) {
    GetMapAbove(kind, std::nullopt, std::move(on_map));
  }
  void GetMapAbove(MapKind kind, std::optional<Epoch> have_epoch, MapHandler on_map) {
    // The freshest not-newer reply seen so far; delivered only if the whole
    // budget finds nothing newer.
    struct Fetch {
      MapHandler on_map;
      std::optional<MapUpdate> best;
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
          if (!have_epoch || epoch > *have_epoch) {
            fetch->on_map(mal::Status::Ok(), update);
            return true;
          }
          // Stale (or merely not newer): remember the freshest such reply
          // in case the whole quorum agrees, and try the next member.
          if (!fetch->best || epoch > EpochOf(*fetch->best)) {
            fetch->best = std::move(update);
          }
          return false;
        },
        [fetch] {
          if (fetch->best) {
            // Quorum-wide, nothing newer exists.
            fetch->on_map(mal::Status::Ok(), *fetch->best);
          } else {
            fetch->on_map(mal::Status::Unavailable("monitor quorum unreachable"), MapUpdate{});
          }
        });
  }

  // Registers for push updates (delivered to the owner as kMsgMapUpdate).
  // `have_epoch` reads the owner's current epoch of `kind`.
  void Subscribe(MapKind kind, std::function<Epoch()> have_epoch) {
    subscriptions_[kind] = std::move(have_epoch);
    SendSubscribe(kind);
  }

  // The session monitor, and how often a lost session moved it.
  uint32_t session() const { return mons_[session_]; }
  uint64_t session_moves() const { return session_moves_; }

  // Centralized cluster log (fire-and-forget).
  void Log(const std::string& severity, const std::string& message) {
    ClusterLogEntry entry{owner_->Now(), ++log_seq_, owner_->name().ToString(), severity,
                          message};
    owner_->SendOneWay(sim::EntityName::Mon(session()), kMsgLogEntry, mal::Encode(entry));
  }

  // Every `period`, sends a snapshot of `perf`, even an empty one: the
  // owner's keepalive, tried once (the next one supersedes it). The owner's
  // periodic timer drives it, so `perf` must live as long as the owner.
  static constexpr sim::Time kPerfReportPeriod = 1 * sim::kSecond;
  void StartPerfReports(const mal::PerfRegistry& perf, sim::Time period = kPerfReportPeriod) {
    owner_->StartPeriodic(period, [this, &perf] {
      SendToQuorum(
          kMsgPerfReport, mal::Encode(perf.Snapshot(owner_->name().ToString(), owner_->Now())),
          [this](mal::Status status, const sim::Envelope& reply) {
            auto ack = mal::DecodeReply<KeepaliveAck>(status, reply.payload);
            if (ack.ok()) {
              CatchUp(MapKind::kOsdMap, ack.value().osd_epoch);
              CatchUp(MapKind::kMdsMap, ack.value().mds_epoch);
            }
            return true;
          },
          [] {}, /*max_attempts=*/1);
    });
  }

  // Fetch the cluster-wide perf dump (JSON) and the ClusterHealth JSON.
  void GetPerfDump(TextHandler on_dump) { GetText(kMsgGetPerfDump, std::move(on_dump)); }
  void GetHealth(TextHandler on_health) { GetText(kMsgGetHealth, std::move(on_health)); }

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

 private:
  // Sends one request under the retry loop, whose budget is two full
  // rotations through the quorum unless `max_attempts` is given. The first
  // attempt goes to the session monitor; a retry goes to the session if it
  // moved meanwhile, else to the member after the one that just failed us.
  // Timeouts, outages and sheds retry; every other reply goes to
  // `on_reply`, which returns false to retry anyway (a stale map) or true
  // once it has consumed the reply. `on_exhausted` runs when the budget is
  // spent.
  void SendToQuorum(uint32_t type, mal::Buffer payload,
                    std::function<bool(mal::Status, const sim::Envelope&)> on_reply,
                    std::function<void()> on_exhausted, int max_attempts = 0) {
    svc::RetryPolicy policy;
    policy.max_attempts =
        max_attempts > 0 ? max_attempts : static_cast<int>(mons_.size() * 2);
    // The member tried last, and the session move it was sent under.
    auto hop = std::make_shared<std::pair<size_t, uint64_t>>(session_, session_moves_);
    svc::Retry::Start(
        owner_->simulator(), &retry_rng_, policy,
        [this, type, payload = std::move(payload), on_reply = std::move(on_reply),
         hop](const svc::Retry& retry) {
          if (retry.attempt() > 0) {
            hop->first =
                hop->second == session_moves_ ? (hop->first + 1) % mons_.size() : session_;
          }
          hop->second = session_moves_;
          const size_t mon = hop->first;
          owner_->SendRequest(
              sim::EntityName::Mon(mons_[mon]), type, payload,
              [this, mon, on_reply, retry](mal::Status status, const sim::Envelope& reply) {
                if (!reply.is_reply && status.code() == mal::Code::kTimedOut) {
                  Lost(mon);
                }
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

  // Member `mon` let a request time out; if it is the session monitor, the
  // session moves on (a dead successor times the re-subscription out).
  void Lost(size_t mon) {
    if (mon != session_) {
      return;
    }
    session_ = (session_ + 1) % mons_.size();
    ++session_moves_;
    for (const auto& [kind, have_epoch] : subscriptions_) {
      SendSubscribe(kind);
    }
  }

  // Re-sends the subscription to `kind` if the owner is behind `epoch`.
  void CatchUp(MapKind kind, Epoch epoch) {
    auto it = subscriptions_.find(kind);
    if (it != subscriptions_.end() && it->second() < epoch) {
      SendSubscribe(kind);
    }
  }

  void GetText(uint32_t type, TextHandler on_text) {
    SendWithRetry(type, mal::Buffer(),
                  [on_text = std::move(on_text)](mal::Status status, const sim::Envelope& reply) {
                    on_text(status, reply.payload.front().ToString());
                  });
  }

  void SendSubscribe(MapKind kind) {
    SubscribeRequest req{kind, subscriptions_.at(kind)(), owner_->name()};
    SendWithRetry(kMsgSubscribe, mal::Encode(req), [](mal::Status, const sim::Envelope&) {});
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
  size_t session_ = 0;  // index into mons_
  uint64_t session_moves_ = 0;
  std::map<MapKind, std::function<Epoch()>> subscriptions_;
};

}  // namespace mal::mon

#endif  // MALACOLOGY_MON_MON_CLIENT_H_
