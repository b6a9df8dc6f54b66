// Deterministic discrete-event simulator.
//
// This is the substrate substitution for the paper's physical cluster (see
// DESIGN.md §2): daemons are actors, wall-clock time is virtual, and the
// network delivers serialized messages with a configurable latency model.
// Determinism matters: every experiment in bench/ is reproducible
// bit-for-bit from its seed, and property tests can explore thousands of
// schedules.
//
// The scheduler is built for throughput (docs/sim_core.md): a hierarchical
// timer wheel (calendar-queue overflow for far-future events) replaces the
// binary heap, event records live in a slab pool with an inline small-buffer
// callback (no std::function heap allocation for the common capture sizes),
// and Cancel is O(1) via generation-checked slots. The ordering contract is
// unchanged: events run in strict (when, seq) order, where seq is the
// schedule order — byte-identical trajectories to the original
// priority-queue implementation (tests/sim_test.cc checks this against the
// retained oracle in tests/legacy_simulator.h).
#ifndef MALACOLOGY_SIM_SIMULATOR_H_
#define MALACOLOGY_SIM_SIMULATOR_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/trace.h"

namespace mal::sim {

// Virtual time in nanoseconds.
using Time = uint64_t;

constexpr Time kMicrosecond = 1'000;
constexpr Time kMillisecond = 1'000'000;
constexpr Time kSecond = 1'000'000'000;

using EventId = uint64_t;

namespace internal {

// Type-erased callback with small-buffer optimization. The common event
// closures (Actor::AfterCpu continuations, pooled network deliveries, RPC
// timeouts, workload arrivals) fit the inline buffer, so scheduling them
// costs zero heap allocations; larger captures fall back to one.
class EventCallback {
 public:
  static constexpr size_t kInlineBytes = 64;

  EventCallback() = default;
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { Destroy(); }

  template <typename F>
  void Emplace(F&& fn) {
    assert(ops_ == nullptr && "emplacing over a live callback");
    using T = std::decay_t<F>;
    if constexpr (sizeof(T) <= kInlineBytes && alignof(T) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) T(std::forward<F>(fn));
      static constexpr Ops kOps = {
          [](void* p) { (*std::launder(reinterpret_cast<T*>(p)))(); },
          [](void* p) { std::launder(reinterpret_cast<T*>(p))->~T(); },
      };
      ops_ = &kOps;
    } else {
      T* obj = new T(std::forward<F>(fn));
      std::memcpy(buf_, &obj, sizeof(obj));
      static constexpr Ops kOps = {
          [](void* p) {
            T* o;
            std::memcpy(&o, p, sizeof(o));
            (*o)();
          },
          [](void* p) {
            T* o;
            std::memcpy(&o, p, sizeof(o));
            delete o;
          },
      };
      ops_ = &kOps;
    }
  }

  void Invoke() { ops_->invoke(buf_); }

  void Destroy() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
  };
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace internal

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  Time Now() const { return now_; }

  // Schedules `fn` to run at Now() + delay. Events at the same time run in
  // schedule order (stable), which keeps runs deterministic. Accepts any
  // void() callable; capture states up to EventCallback::kInlineBytes are
  // stored inline in the event slot (no heap allocation).
  //
  // Dapper-style propagation through the event loop: work scheduled while a
  // trace context or a deadline is ambient runs under it, so causality and
  // time budgets follow continuations (CPU completions, message deliveries,
  // retries) without per-call-site plumbing.
  template <typename F>
  EventId Schedule(Time delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  template <typename F>
  EventId ScheduleAt(Time when, F&& fn) {
    assert(when >= now_ && "cannot schedule in the past");
    uint32_t idx = AllocSlot();
    EventSlot& slot = SlotRef(idx);
    slot.when = when;
    slot.seq = next_seq_++;
    slot.ctx = trace::Current();
    slot.deadline = mal::CurrentDeadline();
    slot.cb.Emplace(std::forward<F>(fn));
    slot.state = State::kScheduled;
    ++live_;
    InsertScheduled(idx);
    return MakeId(idx, slot.generation);
  }

  // Cancels a pending event in O(1): the id carries (slot, generation), so a
  // stale id — already run, already cancelled, or slot since reused — is a
  // no-op and leaves no tombstone behind.
  void Cancel(EventId id);

  // Runs until the event queue is empty.
  void Run();

  // Runs all events with time <= until, then sets Now() == until.
  void RunUntil(Time until);

  // Runs at most one event; returns false if the queue was empty.
  bool Step();

  size_t events_processed() const { return events_processed_; }
  // Exact count of live (scheduled, not cancelled, not yet run) events.
  size_t pending_events() const { return live_; }

 private:
  // Timer-wheel geometry: level-0 ticks are 2^kTickBits ns (4.096 us) and
  // each of the kLevels levels has 2^kSlotBits slots, so level 0 spans
  // ~1 ms (message latencies, CPU costs — the bulk of events insert here
  // cascade-free), level 1 ~268 ms (retry backoff, periodic timers),
  // level 2 ~69 s (RPC timeouts), level 3 ~4.9 h. Anything farther sits in
  // the calendar overflow list until the wheel advances into its range.
  // The tick is deliberately coarser than the finest event spacing: events
  // inside one tick are ordered exactly by the near heap, and a coarser
  // tick amortizes slot-drain overhead over more events per refill.
  static constexpr uint32_t kTickBits = 12;
  static constexpr uint32_t kSlotBits = 8;
  static constexpr uint32_t kLevels = 4;
  static constexpr uint32_t kSlotsPerLevel = 1u << kSlotBits;
  static constexpr uint32_t kSlotMask = kSlotsPerLevel - 1;
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  // `home` encodings beyond wheel positions (level * kSlotsPerLevel + slot).
  static constexpr uint32_t kHomeNear = 0xFFFFFFF0u;
  static constexpr uint32_t kHomeOverflow = 0xFFFFFFF1u;
  static constexpr uint32_t kHomeNone = 0xFFFFFFF2u;

  static constexpr uint32_t kChunkBits = 9;  // 512 slots per pool chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  enum class State : uint8_t {
    kFree = 0,
    kScheduled = 1,
    kRunning = 2,
    // Cancelled while referenced by the near heap; the slot is reclaimed
    // lazily when its heap entry surfaces (the callback is destroyed
    // eagerly at Cancel time).
    kCancelledNear = 3,
  };

  // One pooled event record. Slots live in fixed chunks (stable addresses),
  // are linked intrusively into wheel/overflow lists, and recycle through a
  // free list; `generation` makes recycled ids unambiguous.
  struct EventSlot {
    Time when = 0;
    uint64_t seq = 0;
    trace::TraceContext ctx;
    uint64_t deadline = 0;
    uint32_t next = kNil;
    uint32_t prev = kNil;
    uint32_t home = kHomeNone;
    uint32_t generation = 0;
    State state = State::kFree;
    internal::EventCallback cb;
  };

  struct NearEntry {
    Time when;
    uint64_t seq;
    uint32_t idx;
  };

  static EventId MakeId(uint32_t idx, uint32_t generation) {
    return (static_cast<EventId>(idx) + 1) << 32 | generation;
  }

  EventSlot& SlotRef(uint32_t idx) {
    return chunks_[idx >> kChunkBits][idx & kChunkMask];
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t idx);

  // Files a scheduled slot into the near heap, a wheel slot, or overflow.
  void InsertScheduled(uint32_t idx);
  // Removes a slot from its wheel/overflow list (O(1), not for near).
  void Unlink(uint32_t idx);

  uint32_t& HeadRef(uint32_t home);
  void ListPush(uint32_t home, uint32_t idx);

  // Near-heap primitives: a tiny binary min-heap ordered by (when, seq)
  // holding only events at or before the drained wheel cursor.
  void NearPush(Time when, uint64_t seq, uint32_t idx);
  void NearPop();

  // Moves events into the near heap until it is non-empty (advancing the
  // wheel cursor / cascading levels / pulling from overflow as needed);
  // false when the whole simulator is empty.
  bool RefillNear();
  // Drops cancelled entries off the top of the near heap; returns whether a
  // live top remains after refilling as needed.
  bool EnsureLiveTop();

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  size_t events_processed_ = 0;
  size_t live_ = 0;

  // Event pool.
  std::vector<std::unique_ptr<EventSlot[]>> chunks_;
  uint32_t free_head_ = kNil;
  uint32_t allocated_ = 0;

  // Scheduler structures.
  std::vector<NearEntry> near_;
  uint64_t drained_tick_ = 0;  // all ticks <= this live in the near heap
  uint32_t wheel_heads_[kLevels * kSlotsPerLevel];
  uint64_t occupancy_[kLevels][kSlotsPerLevel / 64];
  uint32_t overflow_head_ = kNil;
};

}  // namespace mal::sim

#endif  // MALACOLOGY_SIM_SIMULATOR_H_
