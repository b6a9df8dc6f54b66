#include "src/svc/retry.h"

#include <algorithm>

namespace mal::svc {

sim::Time Backoff::NextDelay(mal::Rng* rng) {
  ++attempt_;
  if (policy_.base_delay == 0) {
    return 0;  // backoff disabled: no sleep, and deliberately no RNG draw
  }
  // Decorrelated jitter: sleep_n = min(cap, Uniform(base, 3 * sleep_{n-1})),
  // with sleep_0 = base, so the first retry already waits at least base.
  int64_t lo = static_cast<int64_t>(policy_.base_delay);
  int64_t hi = 3 * static_cast<int64_t>(std::max(prev_delay_, policy_.base_delay));
  int64_t drawn = rng->UniformInt(lo, hi);
  prev_delay_ = std::min<sim::Time>(policy_.max_delay, static_cast<sim::Time>(drawn));
  return prev_delay_;
}

void Retry::operator()() const {
  sim::Time delay = loop_->backoff.NextDelay(loop_->rng);
  if (delay == 0) {
    Enter();
    return;
  }
  loop_->simulator->Schedule(delay, [next = *this] { next.Enter(); });
}

void Retry::Enter() const {
  if (loop_->backoff.Exhausted()) {
    loop_->Exhausted();
    return;
  }
  loop_->Attempt(*this);
}

}  // namespace mal::svc
