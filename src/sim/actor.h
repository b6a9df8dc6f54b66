// Actor: base class for every daemon and client in the simulation.
//
// Provides request/response RPC with timeouts on top of the one-way
// network, periodic timers, and a single-core CPU service-time model:
// work "reserved" on an actor's CPU serializes, which is what makes an
// overloaded metadata server an actual bottleneck in the balancer
// experiments (paper §6.2).
#ifndef MALACOLOGY_SIM_ACTOR_H_
#define MALACOLOGY_SIM_ACTOR_H_

#include <array>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace mal {
class PerfRegistry;
}  // namespace mal

namespace mal::sim {

// Replay window over one sender's rpc_ids, the RFC 4303 §3.4.3 / RFC 6479
// anti-replay scheme. A sender never reuses an rpc_id, so an id that arrives
// twice is a network-level duplicate. `top_` is the highest id seen; the ring
// holds one bit per id for the kWords 64-id blocks ending with top_'s block.
class ReplayWindow {
 public:
  static constexpr uint64_t kWords = 64;  // 4,096 bits, 512 B

  // Returns true and records `id` if it is fresh; false for a replay. An id
  // whose block has slid out of the ring is accepted (its bit is gone).
  bool Accept(uint64_t id);

 private:
  uint64_t top_ = 0;
  std::array<uint64_t, kWords> bits_{};
};

class Actor : public MessageSink {
 public:
  Actor(Simulator* simulator, Network* network, EntityName name);
  ~Actor() override;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  const EntityName& name() const { return name_; }
  Simulator* simulator() { return simulator_; }
  Network* network() { return network_; }
  const Network* network() const { return network_; }
  Time Now() const { return simulator_->Now(); }

  // -- Messaging ------------------------------------------------------------

  using ReplyHandler = std::function<void(mal::Status, const Envelope&)>;

  // Sends a request; `on_reply` fires exactly once: with the reply, or with
  // kTimedOut after `timeout`, or kUnavailable if this actor crashed.
  //
  // Deadline propagation: when an ambient deadline is set (mal::CurrentDeadline,
  // usually via mal::ScopedOpDeadline at the operation edge), the per-hop
  // timeout is clamped to the remaining budget — a clamped hop that expires
  // fails with kDeadlineExceeded rather than kTimedOut — the deadline is
  // stamped into the envelope so the server can drop expired work, and an
  // already-exhausted budget fails the call locally without a network send.
  void SendRequest(EntityName to, uint32_t type, mal::Payload payload, ReplyHandler on_reply,
                   Time timeout = 5 * kSecond);

  // Fire-and-forget message.
  void SendOneWay(EntityName to, uint32_t type, mal::Payload payload);

  // Replies to a request envelope.
  void Reply(const Envelope& request, mal::Payload payload);
  void ReplyError(const Envelope& request, const mal::Status& status);

  // -- CPU model ------------------------------------------------------------

  // Reserves `cost` of serialized CPU time on this actor; returns the delay
  // from now until that work completes (queueing + service).
  Time ReserveCpu(Time cost);

  // Runs `fn` after the reserved CPU work completes.
  void AfterCpu(Time cost, std::function<void()> fn) {
    ScheduleGuarded(ReserveCpu(cost), std::move(fn));
  }

  // Second service lane modeling a dispatch/messenger thread separate from
  // the lock-bound work queue (as in Ceph's MDS). Forwarded requests ride
  // this lane so they do not queue behind expensive local operations.
  Time ReserveDispatch(Time cost);
  void AfterDispatch(Time cost, std::function<void()> fn) {
    ScheduleGuarded(ReserveDispatch(cost), std::move(fn));
  }

  // Fraction of the last `window` that this actor's CPU was busy — the load
  // metric exported to the balancer. It reads the busy intervals kept by
  // TrackCpuBusy, so it is exact for any `window` up to the tracked one and
  // 0 on an untracked actor.
  double CpuUtilization(Time window) const;

  // Keeps one busy interval per CPU reservation covering the last `window`
  // of virtual time; intervals that end before Now() - window are dropped.
  // Actors start untracked and record nothing, since only a load reporter
  // reads them. Survives crashes; 0 stops tracking new reservations.
  void TrackCpuBusy(Time window) { busy_window_ = window; }
  size_t cpu_busy_intervals() const { return busy_log_.size(); }

  // -- Service layer (admission control; see src/svc/ and docs/service_layer.md)

  // Bounded inbox: when `limit` > 0, at most `limit` rpc requests may be in
  // service on this actor at once (admitted at Deliver, released by the
  // matching Reply/ReplyError). Excess requests are shed at admission with a
  // kBusy reply, before any CPU is reserved. 0 (the default) disables
  // admission control entirely.
  void SetInboxLimit(size_t limit) { inbox_limit_ = limit; }
  size_t inbox_limit() const { return inbox_limit_; }
  size_t queue_depth() const { return admitted_.size(); }
  uint64_t shed_total() const { return shed_total_; }
  uint64_t deadline_drops() const { return deadline_drops_; }
  // Replayed rpc requests suppressed by duplicate detection (see Deliver).
  uint64_t duplicates_dropped() const { return duplicates_dropped_; }

  // Registry that receives svc.queue_depth / svc.shed_total / svc.deadline_drops.
  // May be null (metrics still available via the accessors above). Metrics are
  // only touched when the corresponding knob fires, so a defaults-off run's
  // perf snapshots are byte-identical.
  void SetServicePerf(mal::PerfRegistry* perf) { svc_perf_ = perf; }

  // -- Timers ---------------------------------------------------------------

  // Calls `fn` every `period`, starting one period from now, while alive.
  void StartPeriodic(Time period, std::function<void()> fn);

  // One-shot timer guarded against restarts: `fn` runs only if this actor is
  // still alive AND in the same incarnation as when the timer was armed. Any
  // daemon timer whose callback touches daemon state must use this (or the
  // equally-guarded AfterCpu/AfterDispatch/StartPeriodic) instead of raw
  // Simulator::Schedule — a timer armed before a crash must never fire into
  // the recovered instance. Returns the event id (cancelable like any timer).
  EventId ScheduleGuarded(Time delay, std::function<void()> fn);

  // -- Lifecycle ------------------------------------------------------------

  bool alive() const { return alive_; }
  // Crash: stop receiving, fail in-flight RPCs locally, clear CPU queue.
  virtual void Crash();
  // Restart after a crash; subclasses reset their volatile state.
  virtual void Recover();

  // MessageSink:
  void Deliver(Envelope envelope) final;

 protected:
  // Subclasses implement request handling; replies are routed internally.
  virtual void HandleRequest(const Envelope& request) = 0;

 private:
  struct PendingRpc {
    ReplyHandler handler;
    EventId timeout_event;
    trace::TraceContext span;     // client rpc span (invalid when untraced)
    trace::TraceContext caller;   // ambient context at SendRequest time
    uint64_t caller_deadline = 0;  // ambient deadline at SendRequest time
  };

  // Ends the rpc span (if any) and runs the handler under the caller's
  // trace context and deadline, so continuation work stays attributed to the
  // request and keeps its time budget.
  void FinishRpc(PendingRpc rpc, const mal::Status& status, const Envelope& reply);

  // Shared by Reply/ReplyError: frees the admission slot held by `request`
  // (if any), closes its server span with `span_status`, and sends the reply.
  void SendReply(const Envelope& request, uint32_t error_code, mal::Payload payload,
                 const std::string& span_status);

  Simulator* simulator_;
  Network* network_;
  EntityName name_;
  bool alive_ = true;
  uint64_t next_rpc_id_ = 1;
  uint64_t incarnation_ = 0;  // bumped on crash; stale timers check it
  std::map<uint64_t, PendingRpc> pending_rpcs_;
  // Open server-side handling spans, keyed by (requester, rpc_id); closed
  // when the matching Reply/ReplyError is sent.
  std::map<std::pair<EntityName, uint64_t>, trace::TraceContext> server_spans_;
  // Admission control (active when inbox_limit_ > 0): rpc requests currently
  // in service, admitted at Deliver and released by Reply/ReplyError.
  size_t inbox_limit_ = 0;
  std::set<std::pair<EntityName, uint64_t>> admitted_;
  uint64_t shed_total_ = 0;
  uint64_t deadline_drops_ = 0;
  // Replay suppression: one ReplayWindow per requester, keyed by its packed
  // EntityName. SendRequest never reuses an rpc_id, so a second arrival of
  // the same (requester, rpc_id) can only be a network-level duplicate —
  // executing it twice would double-apply non-idempotent handlers (and its
  // error reply could overtake the original's success reply at the caller).
  // Like Ceph's dup op detection via osd_reqid, the duplicate is dropped; the
  // execution of the first copy already replied (or will). Survives crashes.
  std::unordered_map<uint64_t, ReplayWindow> seen_requests_;
  uint64_t duplicates_dropped_ = 0;
  mal::PerfRegistry* svc_perf_ = nullptr;
  Time cpu_busy_until_ = 0;
  Time dispatch_busy_until_ = 0;
  // Busy-time accounting for utilization: (interval_end, busy_in_interval),
  // appended in nondecreasing interval_end order and trimmed at the front to
  // the last busy_window_; nothing is appended while busy_window_ is 0.
  Time busy_window_ = 0;
  std::deque<std::pair<Time, Time>> busy_log_;
  // Cached name().ToString(); referenced by the zero-copy log context.
  std::string name_str_;
};

}  // namespace mal::sim

#endif  // MALACOLOGY_SIM_ACTOR_H_
