// Ambient request deadline, the time-budget analogue of trace::Current().
//
// A deadline is an *absolute* simulator-clock nanosecond timestamp (0 means
// "no deadline"). Like the trace context, it is captured by the simulator's
// event loop when work is scheduled and restored while that work runs, so a
// deadline set at the edge (e.g. a cephfs operation) follows the request
// through every hop — RPC handlers, CPU reservations, replication fan-out —
// without per-call-site plumbing. Actor::SendRequest stamps it into the
// envelope and clamps per-hop timeouts to the remaining budget; servers drop
// already-expired work before reserving CPU.
//
// This lives in common/ (not svc/) because the simulator core must be able
// to capture/restore it without depending on the service layer.
#ifndef MALACOLOGY_COMMON_DEADLINE_H_
#define MALACOLOGY_COMMON_DEADLINE_H_

#include <algorithm>
#include <cstdint>

namespace mal {

// Ambient deadline of the currently-executing event, absolute sim-ns.
// 0 = no deadline.
uint64_t CurrentDeadline();
void SetCurrentDeadline(uint64_t deadline_ns);

// RAII save/set/restore, mirroring trace::ScopedContext.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(uint64_t deadline_ns) : prev_(CurrentDeadline()) {
    SetCurrentDeadline(deadline_ns);
  }
  ~ScopedDeadline() { SetCurrentDeadline(prev_); }

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  uint64_t prev_;
};

// Arms the deadline at an operation's edge (e.g. a bench loop body):
// `budget_ns` after `now_ns`, tightening-only, so an earlier outer deadline
// wins. A zero budget keeps whatever is in force.
class ScopedOpDeadline : public ScopedDeadline {
 public:
  ScopedOpDeadline(uint64_t now_ns, uint64_t budget_ns)
      : ScopedDeadline(Resolve(now_ns, budget_ns)) {}

 private:
  static uint64_t Resolve(uint64_t now_ns, uint64_t budget_ns) {
    uint64_t ambient = CurrentDeadline();
    if (budget_ns == 0) {
      return ambient;
    }
    uint64_t mine = now_ns + budget_ns;
    return ambient == 0 ? mine : std::min(ambient, mine);
  }
};

}  // namespace mal

#endif  // MALACOLOGY_COMMON_DEADLINE_H_
