#include "src/sim/actor.h"

#include <algorithm>

#include "src/common/deadline.h"
#include "src/common/log.h"
#include "src/common/perf.h"
#include "src/common/trace.h"
#include "src/sim/profiler.h"

namespace mal::sim {
namespace {

// Packs an EntityName into the key of its ReplayWindow.
uint64_t NameKey(EntityName name) {
  return (static_cast<uint64_t>(name.type) << 32) | name.id;
}

}  // namespace

bool ReplayWindow::Accept(uint64_t id) {
  const uint64_t block = id / 64;
  if (id > top_) {
    // Slide: clear the blocks between the old top's and the new one's (at
    // most the whole ring) so their bits start out unseen.
    for (uint64_t b = top_ / 64 + 1; b <= block && b <= top_ / 64 + kWords; ++b) {
      bits_[b % kWords] = 0;
    }
    top_ = id;
  } else if (block + kWords <= top_ / 64) {
    return true;  // older than the window
  }
  uint64_t& word = bits_[block % kWords];
  const uint64_t mask = uint64_t{1} << (id % 64);
  if ((word & mask) != 0) {
    return false;
  }
  word |= mask;
  return true;
}

Actor::Actor(Simulator* simulator, Network* network, EntityName name)
    : simulator_(simulator), network_(network), name_(name),
      name_str_(name.ToString()) {
  network_->Attach(name_, this);
}

Actor::~Actor() { network_->Detach(name_); }

void Actor::SendRequest(EntityName to, uint32_t type, mal::Payload payload,
                        ReplyHandler on_reply, Time timeout) {
  const uint64_t deadline = mal::CurrentDeadline();
  if (deadline != 0 && Now() >= deadline) {
    // Budget already exhausted: fail locally without a network send. Deferred
    // one event so `on_reply` never runs re-entrantly inside the caller.
    uint64_t incarnation = incarnation_;
    simulator_->Schedule(0, [this, incarnation, on_reply = std::move(on_reply)]() {
      if (incarnation_ != incarnation) {
        return;
      }
      mal::ScopedLogContextRef log_scope(Now(), &name_str_);
      on_reply(mal::Status::DeadlineExceeded("budget exhausted before send"), Envelope{});
    });
    return;
  }
  // Per-hop timeout derives from the remaining end-to-end budget: a hop that
  // would outlive the deadline is clamped, and its expiry reports
  // kDeadlineExceeded (the budget ran out) rather than kTimedOut (the peer
  // did not answer within its allotted slice).
  bool clamped = false;
  if (deadline != 0 && deadline - Now() < timeout) {
    timeout = deadline - Now();
    clamped = true;
  }
  uint64_t rpc_id = next_rpc_id_++;
  EventId timeout_event = simulator_->Schedule(timeout, [this, rpc_id, clamped]() {
    auto it = pending_rpcs_.find(rpc_id);
    if (it == pending_rpcs_.end()) {
      return;
    }
    PendingRpc rpc = std::move(it->second);
    pending_rpcs_.erase(it);
    FinishRpc(std::move(rpc),
              clamped ? mal::Status::DeadlineExceeded() : mal::Status::TimedOut(),
              Envelope{});
  });

  PendingRpc rpc{std::move(on_reply), timeout_event, {}, trace::Current(), deadline};
  if (trace::Collector() != nullptr && rpc.caller.valid()) {
    rpc.span = trace::Collector()->StartSpan(
        "rpc:" + to.ToString() + ":" + trace::MessageTypeName(type),
        name_.ToString(), Now(), rpc.caller);
  }

  Envelope envelope;
  envelope.from = name_;
  envelope.to = to;
  envelope.type = type;
  envelope.rpc_id = rpc_id;
  envelope.payload = std::move(payload);
  envelope.trace = rpc.span.valid() ? rpc.span : rpc.caller;
  envelope.deadline_ns = deadline;
  pending_rpcs_[rpc_id] = std::move(rpc);
  network_->Send(std::move(envelope));
}

void Actor::FinishRpc(PendingRpc rpc, const mal::Status& status, const Envelope& reply) {
  if (rpc.span.valid() && trace::Collector() != nullptr) {
    trace::Collector()->EndSpan(rpc.span, Now(),
                                status.ok() ? "ok" : status.message().empty()
                                                         ? "error"
                                                         : status.message());
  }
  trace::ScopedContext scope(rpc.caller);
  mal::ScopedDeadline budget(rpc.caller_deadline);
  rpc.handler(status, reply);
}

void Actor::SendOneWay(EntityName to, uint32_t type, mal::Payload payload) {
  Envelope envelope;
  envelope.from = name_;
  envelope.to = to;
  envelope.type = type;
  envelope.payload = std::move(payload);
  envelope.trace = trace::Current();
  envelope.deadline_ns = mal::CurrentDeadline();
  network_->Send(std::move(envelope));
}

void Actor::Reply(const Envelope& request, mal::Payload payload) {
  SendReply(request, 0, std::move(payload), "ok");
}

void Actor::ReplyError(const Envelope& request, const mal::Status& status) {
  SendReply(request, static_cast<uint32_t>(status.code()),
            mal::Buffer::FromString(status.message()), status.message());
}

void Actor::SendReply(const Envelope& request, uint32_t error_code, mal::Payload payload,
                      const std::string& span_status) {
  if (admitted_.erase({request.from, request.rpc_id}) != 0 && svc_perf_ != nullptr) {
    svc_perf_->Set("svc.queue_depth", static_cast<double>(admitted_.size()));
  }
  auto span_it = server_spans_.find({request.from, request.rpc_id});
  if (span_it != server_spans_.end()) {
    if (trace::Collector() != nullptr) {
      trace::Collector()->EndSpan(span_it->second, Now(), span_status);
    }
    server_spans_.erase(span_it);
  }
  Envelope envelope;
  envelope.from = name_;
  envelope.to = request.from;
  envelope.type = request.type;
  envelope.rpc_id = request.rpc_id;
  envelope.is_reply = true;
  envelope.error_code = error_code;
  envelope.payload = std::move(payload);
  network_->Send(std::move(envelope));
}

Time Actor::ReserveCpu(Time cost) {
  if (Profiler* profiler = Profiler::Current()) {
    profiler->RecordCpu(name_str_, cost);
  }
  Time start = std::max(Now(), cpu_busy_until_);
  cpu_busy_until_ = start + cost;
  if (busy_window_ > 0) {
    // Appends are keyed by interval end, which never decreases; a zero-cost
    // reservation lands on the same end as its predecessor and replaces it
    // (matching the map-overwrite semantics this deque replaced).
    if (!busy_log_.empty() && busy_log_.back().first == cpu_busy_until_) {
      busy_log_.back().second = cost;
    } else {
      busy_log_.emplace_back(cpu_busy_until_, cost);
    }
    while (!busy_log_.empty() && busy_log_.front().first + busy_window_ < Now()) {
      busy_log_.pop_front();
    }
  }
  return cpu_busy_until_ - Now();
}

Time Actor::ReserveDispatch(Time cost) {
  if (Profiler* profiler = Profiler::Current()) {
    profiler->RecordDispatch(name_str_, cost);
  }
  Time start = std::max(Now(), dispatch_busy_until_);
  dispatch_busy_until_ = start + cost;
  return dispatch_busy_until_ - Now();
}

double Actor::CpuUtilization(Time window) const {
  if (window == 0) {
    return 0;
  }
  Time from = Now() > window ? Now() - window : 0;
  Time busy = 0;
  // Newest first: an interval that ended by `from` adds nothing, and so does
  // every older one.
  for (auto it = busy_log_.rbegin(); it != busy_log_.rend() && it->first > from; ++it) {
    const auto& [end, cost] = *it;
    Time start = end - cost;
    Time lo = std::max(start, from);
    Time hi = std::min(end, Now());
    if (hi > lo) {
      busy += hi - lo;
    }
  }
  return std::min(1.0, static_cast<double>(busy) / static_cast<double>(Now() - from));
}

void Actor::StartPeriodic(Time period, std::function<void()> fn) {
  // Periodic maintenance is not causally part of whatever request happens to
  // be executing when the timer is armed; schedule it untraced and with no
  // inherited deadline.
  trace::ScopedContext untraced(trace::TraceContext{});
  mal::ScopedDeadline no_budget(0);
  ScheduleGuarded(period, [this, period, fn = std::move(fn)]() {
    fn();
    StartPeriodic(period, fn);
  });
}

EventId Actor::ScheduleGuarded(Time delay, std::function<void()> fn) {
  uint64_t incarnation = incarnation_;
  return simulator_->Schedule(delay, [this, incarnation, fn = std::move(fn)]() {
    if (!alive_ || incarnation_ != incarnation) {
      return;
    }
    mal::ScopedLogContextRef log_scope(Now(), &name_str_);
    fn();
  });
}

void Actor::Crash() {
  alive_ = false;
  ++incarnation_;
  network_->SetCrashed(name_, true);
  // Fail local in-flight RPCs: their replies will never arrive.
  auto pending = std::move(pending_rpcs_);
  pending_rpcs_.clear();
  for (auto& [id, rpc] : pending) {
    simulator_->Cancel(rpc.timeout_event);
    FinishRpc(std::move(rpc), mal::Status::Unavailable("local daemon crashed"), Envelope{});
  }
  server_spans_.clear();
  admitted_.clear();
  cpu_busy_until_ = 0;
  dispatch_busy_until_ = 0;
  busy_log_.clear();
}

void Actor::Recover() {
  alive_ = true;
  ++incarnation_;
  network_->SetCrashed(name_, false);
}

void Actor::Deliver(Envelope envelope) {
  if (!alive_) {
    return;
  }
  mal::ScopedLogContextRef log_scope(Now(), &name_str_);
  // Profiler attribution: every CPU/dispatch reservation made while this
  // delivery executes lands in the delivered message's row (replies get
  // their own ".reply" row — a client's completion work is not the server's
  // handling work).
  Profiler* profiler = Profiler::Current();
  ScopedProfileLabel profile_label(
      profiler, name_str_,
      profiler == nullptr ? std::string()
                          : trace::MessageTypeName(envelope.type) +
                                (envelope.is_reply ? ".reply" : ""));
  if (envelope.is_reply) {
    auto it = pending_rpcs_.find(envelope.rpc_id);
    if (it == pending_rpcs_.end()) {
      return;  // reply raced with its timeout; drop
    }
    PendingRpc rpc = std::move(it->second);
    simulator_->Cancel(rpc.timeout_event);
    pending_rpcs_.erase(it);
    mal::Status status = envelope.error_code == 0
                             ? mal::Status::Ok()
                             : mal::Status(static_cast<mal::Code>(envelope.error_code),
                                           envelope.payload.front().ToString());
    FinishRpc(std::move(rpc), status, envelope);
    return;
  }
  // Duplicate suppression: rpc_ids are never reused by a sender, so a
  // repeat (requester, rpc_id) is a network-level replay. Re-executing it
  // would double-apply non-idempotent handlers — and for write-once storage
  // the replay's kReadOnly error reply could overtake the original's ok
  // reply, tricking the caller into a spurious fresh-position retry (a
  // double commit). Every first arrival is accepted, so a duplicate-free run
  // behaves exactly as if there were no check.
  if (envelope.rpc_id != 0 &&
      !seen_requests_[NameKey(envelope.from)].Accept(envelope.rpc_id)) {
    ++duplicates_dropped_;
    MAL_DEBUG(name_str_)
        << "dropping replayed " << trace::MessageTypeName(envelope.type) << " from "
        << envelope.from.ToString() << " rpc_id " << envelope.rpc_id;
    return;
  }
  // Service-layer gates run before any CPU is reserved or span opened.
  //
  // (1) Expired work is dropped: executing it would waste server CPU on a
  // result the caller has already given up on.
  if (envelope.deadline_ns != 0 && Now() >= envelope.deadline_ns) {
    ++deadline_drops_;
    if (svc_perf_ != nullptr) {
      svc_perf_->Inc("svc.deadline_drops");
    }
    MAL_DEBUG(name_.ToString())
        << "dropping expired " << trace::MessageTypeName(envelope.type) << " from "
        << envelope.from.ToString() << " (deadline " << envelope.deadline_ns << " <= now "
        << Now() << ")";
    if (envelope.rpc_id != 0) {
      ReplyError(envelope, mal::Status::DeadlineExceeded("expired before service"));
    }
    return;
  }
  // (2) Admission control: a full bounded inbox sheds the request with kBusy
  // instead of queueing it behind work it cannot overtake.
  if (envelope.rpc_id != 0 && inbox_limit_ > 0) {
    if (admitted_.size() >= inbox_limit_) {
      ++shed_total_;
      if (svc_perf_ != nullptr) {
        svc_perf_->Inc("svc.shed_total");
      }
      MAL_DEBUG(name_.ToString())
          << "shedding " << trace::MessageTypeName(envelope.type) << " from "
          << envelope.from.ToString() << " (inbox " << admitted_.size() << "/"
          << inbox_limit_ << ")";
      ReplyError(envelope, mal::Status::Busy());
      return;
    }
    admitted_.insert({envelope.from, envelope.rpc_id});
    if (svc_perf_ != nullptr) {
      svc_perf_->Set("svc.queue_depth", static_cast<double>(admitted_.size()));
    }
  }
  // Server side: open a handling span parented on the carried context. For
  // rpc requests it closes when the matching Reply/ReplyError goes out; for
  // one-way messages it covers the synchronous part of the handler.
  trace::TraceContext server_ctx = envelope.trace;
  if (trace::Collector() != nullptr && envelope.trace.valid()) {
    server_ctx = trace::Collector()->StartSpan(
        "handle:" + trace::MessageTypeName(envelope.type),
        name_.ToString(), Now(), envelope.trace);
    if (envelope.rpc_id != 0) {
      server_spans_[{envelope.from, envelope.rpc_id}] = server_ctx;
    }
  }
  if (server_ctx.valid() || envelope.deadline_ns != 0 || trace::Current().valid() ||
      mal::CurrentDeadline() != 0) {
    trace::ScopedContext scope(server_ctx);
    // The carried deadline becomes ambient for the handler, so downstream
    // hops (replication fan-out, proxy forwards) inherit the shrinking budget.
    mal::ScopedDeadline budget(envelope.deadline_ns);
    HandleRequest(envelope);
  } else {
    // Untraced, unbudgeted request arriving in an untraced, unbudgeted
    // context: the scopes above would save and restore two ambient slots
    // that are all empty. Skipping them is observationally identical and
    // saves four TLS-style swaps on the hot delivery path.
    HandleRequest(envelope);
  }
  if (envelope.rpc_id == 0 && server_ctx.valid() &&
      server_ctx.span_id != envelope.trace.span_id && trace::Collector() != nullptr) {
    trace::Collector()->EndSpan(server_ctx, Now());
  }
}

}  // namespace mal::sim
