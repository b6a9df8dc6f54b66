// RetryPolicy / Backoff / Retry: the one retry loop for every client.
//
// RadosClient, MdsClient, MonClient and zlog::Log all retry failed
// requests through svc::Retry. A client supplies only what differs between
// them: where an attempt goes and how it classifies the reply. The loop owns
// the rest: it counts the attempts, reports exhaustion once the budget is
// spent, draws the backoff delay and re-enters the client's attempt.
//
// Backoff is exponential with decorrelated jitter (the AWS scheme:
// sleep_n = min(cap, Uniform(base, 3 * sleep_{n-1}))), deterministic because
// the jitter draws from a mal::Rng the client seeds.
//
// The default policy has base_delay == 0, which makes NextDelay return 0
// without consuming a random draw, and a zero delay re-enters the attempt
// synchronously rather than through a scheduled event — so a defaults-off
// run retries on the same event ordering, RNG stream, and clock as an
// immediate retry (the determinism oracle relies on this).
#ifndef MALACOLOGY_SVC_RETRY_H_
#define MALACOLOGY_SVC_RETRY_H_

#include <memory>
#include <utility>

#include "src/common/rng.h"
#include "src/sim/simulator.h"

namespace mal::svc {

struct RetryPolicy {
  int max_attempts = 5;                      // total tries, including the first
  sim::Time base_delay = 0;                  // 0 = retry immediately, draw no jitter
  sim::Time max_delay = 2 * sim::kSecond;    // cap on any single backoff sleep
};

// Per-operation backoff state: the attempt counter and the jitter schedule.
class Backoff {
 public:
  Backoff() = default;
  explicit Backoff(const RetryPolicy& policy) : policy_(policy) {}

  // True once the attempt budget is spent.
  bool Exhausted() const { return attempt_ >= policy_.max_attempts; }

  // Attempts consumed so far (0 before the first NextDelay call).
  int attempt() const { return attempt_; }

  // Consumes one attempt and returns how long to wait before it: the delay
  // before a retry, since the initial try never asks. Under a zero
  // base_delay every retry starts immediately.
  sim::Time NextDelay(mal::Rng* rng);

 private:
  RetryPolicy policy_;
  int attempt_ = 0;
  sim::Time prev_delay_ = 0;
};

// A handle on one retried operation, passed to each of its attempts. Copies
// share the operation's state; copying one costs a reference count.
class Retry {
 public:
  // Starts an operation and runs its first attempt now.
  //  - attempt(const Retry& retry) sends one try. Its reply handler either
  //    finishes the operation or calls retry() to go again.
  //  - exhausted() reports the failure once the attempt budget is spent.
  template <typename Attempt, typename Exhausted>
  static void Start(sim::Simulator* simulator, mal::Rng* rng, const RetryPolicy& policy,
                    Attempt attempt, Exhausted exhausted) {
    auto loop = std::make_shared<Loop<Attempt, Exhausted>>(std::move(attempt),
                                                           std::move(exhausted));
    loop->simulator = simulator;
    loop->rng = rng;
    loop->backoff = Backoff(policy);
    Retry(std::move(loop)).Enter();
  }

  // Retries taken so far: 0 during the first attempt, N during the Nth retry.
  int attempt() const { return loop_->backoff.attempt(); }

  // Consumes one attempt, waits out its backoff delay, then re-enters:
  // exhausted() once the budget is spent, else attempt().
  void operator()() const;

 private:
  struct LoopBase {
    LoopBase() = default;
    LoopBase(const LoopBase&) = delete;
    LoopBase& operator=(const LoopBase&) = delete;
    virtual ~LoopBase() = default;
    virtual void Attempt(const Retry& retry) = 0;
    virtual void Exhausted() = 0;

    sim::Simulator* simulator = nullptr;
    mal::Rng* rng = nullptr;
    Backoff backoff;
  };

  // One allocation per operation holds the counter and both callbacks.
  template <typename AttemptFn, typename ExhaustedFn>
  struct Loop final : LoopBase {
    Loop(AttemptFn attempt, ExhaustedFn exhausted)
        : attempt_fn(std::move(attempt)), exhausted_fn(std::move(exhausted)) {}
    void Attempt(const Retry& retry) override { attempt_fn(retry); }
    void Exhausted() override { exhausted_fn(); }

    AttemptFn attempt_fn;
    ExhaustedFn exhausted_fn;
  };

  explicit Retry(std::shared_ptr<LoopBase> loop) : loop_(std::move(loop)) {}
  void Enter() const;

  std::shared_ptr<LoopBase> loop_;
};

}  // namespace mal::svc

#endif  // MALACOLOGY_SVC_RETRY_H_
