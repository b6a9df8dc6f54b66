// The original binary-heap event scheduler, retained as a
// differential-testing oracle and bench baseline for the timer-wheel core in
// src/sim/simulator.h; nothing in src/ runs it. tests/sim_test.cc runs
// randomized schedule/cancel/RunUntil programs against both and asserts
// identical event orderings and Now() trajectories; bench/cluster_scale.cc
// reports its events/sec next to the wheel's. Verbatim except one corrected
// bug: RunUntil no longer overruns `until` when the queue top is a cancelled
// tombstone (see RunUntil).
// Not for production use: Cancel still leaks a tombstone per already-run id
// and every Schedule pays a std::function heap allocation.
#ifndef MALACOLOGY_TESTS_LEGACY_SIMULATOR_H_
#define MALACOLOGY_TESTS_LEGACY_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/trace.h"
#include "src/sim/simulator.h"

namespace mal::sim {

class LegacySimulator {
 public:
  Time Now() const { return now_; }

  EventId Schedule(Time delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  EventId ScheduleAt(Time when, std::function<void()> fn) {
    assert(when >= now_ && "cannot schedule in the past");
    EventId id = next_id_++;
    if (trace::Current().valid() || mal::CurrentDeadline() != 0) {
      fn = [ctx = trace::Current(), deadline = mal::CurrentDeadline(),
            inner = std::move(fn)]() {
        trace::ScopedContext scope(ctx);
        mal::ScopedDeadline budget(deadline);
        inner();
      };
    }
    queue_.push(Event{when, next_seq_++, id, std::move(fn)});
    return id;
  }

  void Cancel(EventId id) {
    if (id < next_id_) {
      cancelled_[id] = true;
    }
  }

  bool Step() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      auto it = cancelled_.find(ev.id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = ev.when;
      ++events_processed_;
      trace::SetCurrent(trace::TraceContext{});
      mal::SetCurrentDeadline(0);
      ev.fn();
      trace::SetCurrent(trace::TraceContext{});
      mal::SetCurrentDeadline(0);
      return true;
    }
    return false;
  }

  void Run() {
    while (Step()) {
    }
  }

  void RunUntil(Time until) {
    while (!queue_.empty()) {
      // Drop tombstoned entries before the boundary check: it must see the
      // next *live* event. The original guard read queue_.top().when
      // directly, so a cancelled entry at the top let Step() run an event
      // past `until` (the cancelled-top overrun; the wheel's
      // generation-checked Cancel leaves no tombstones to trip on).
      auto it = cancelled_.find(queue_.top().id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        queue_.pop();
        continue;
      }
      if (queue_.top().when > until) {
        break;
      }
      Step();
    }
    if (now_ < until) {
      now_ = until;
    }
  }

  size_t events_processed() const { return events_processed_; }
  size_t pending_events() const { return queue_.size() - cancelled_.size(); }

 private:
  struct Event {
    Time when;
    uint64_t seq;
    EventId id;
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  size_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  std::map<EventId, bool> cancelled_;
};

}  // namespace mal::sim

#endif  // MALACOLOGY_TESTS_LEGACY_SIMULATOR_H_
