// Unit tests for the discrete-event simulator, network, and actor layers.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/common/rng.h"
#include "src/sim/actor.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "tests/legacy_simulator.h"

namespace mal::sim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.Schedule(30, [&] { order.push_back(3); });
  simulator.Schedule(10, [&] { order.push_back(1); });
  simulator.Schedule(20, [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.Now(), 30u);
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    simulator.Schedule(7, [&order, i] { order.push_back(i); });
  }
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(5, [&] {
    ++fired;
    simulator.Schedule(5, [&] { ++fired; });
  });
  simulator.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.Now(), 10u);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool ran = false;
  EventId id = simulator.Schedule(5, [&] { ran = true; });
  simulator.Cancel(id);
  simulator.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator simulator;
  int count = 0;
  simulator.Schedule(100, [&] { ++count; });
  simulator.Schedule(500, [&] { ++count; });
  simulator.RunUntil(200);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(simulator.Now(), 200u);
  simulator.RunUntil(1000);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(simulator.Now(), 1000u);
}

class RecordingSink : public MessageSink {
 public:
  void Deliver(Envelope envelope) override { received.push_back(std::move(envelope)); }
  std::vector<Envelope> received;
};

TEST(NetworkTest, DeliversWithLatency) {
  Simulator simulator;
  Network network(&simulator);
  RecordingSink sink;
  network.Attach(EntityName::Osd(1), &sink);

  Envelope envelope;
  envelope.from = EntityName::Client(0);
  envelope.to = EntityName::Osd(1);
  envelope.type = 42;
  envelope.payload = mal::Buffer::FromString("hi");
  network.Send(envelope);

  EXPECT_TRUE(sink.received.empty());
  simulator.Run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].type, 42u);
  EXPECT_EQ(sink.received[0].payload.front().ToString(), "hi");
  EXPECT_GT(simulator.Now(), 0u);  // latency was charged
}

TEST(NetworkTest, CrashedNodeDropsMessages) {
  Simulator simulator;
  Network network(&simulator);
  RecordingSink sink;
  network.Attach(EntityName::Osd(1), &sink);
  network.SetCrashed(EntityName::Osd(1), true);

  Envelope envelope;
  envelope.from = EntityName::Client(0);
  envelope.to = EntityName::Osd(1);
  network.Send(envelope);
  simulator.Run();
  EXPECT_TRUE(sink.received.empty());

  network.SetCrashed(EntityName::Osd(1), false);
  network.Send(envelope);
  simulator.Run();
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST(NetworkTest, CrashWhileInFlightDropsMessage) {
  Simulator simulator;
  Network network(&simulator);
  RecordingSink sink;
  network.Attach(EntityName::Osd(1), &sink);

  Envelope envelope;
  envelope.from = EntityName::Client(0);
  envelope.to = EntityName::Osd(1);
  network.Send(envelope);
  network.SetCrashed(EntityName::Osd(1), true);  // after send, before delivery
  simulator.Run();
  EXPECT_TRUE(sink.received.empty());
}

TEST(NetworkTest, PartitionBlocksBothDirections) {
  Simulator simulator;
  Network network(&simulator);
  RecordingSink a;
  RecordingSink b;
  network.Attach(EntityName::Mon(0), &a);
  network.Attach(EntityName::Mon(1), &b);
  network.SetPartitioned(EntityName::Mon(0), EntityName::Mon(1), true);

  Envelope ab;
  ab.from = EntityName::Mon(0);
  ab.to = EntityName::Mon(1);
  network.Send(ab);
  Envelope ba;
  ba.from = EntityName::Mon(1);
  ba.to = EntityName::Mon(0);
  network.Send(ba);
  simulator.Run();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());

  network.SetPartitioned(EntityName::Mon(0), EntityName::Mon(1), false);
  network.Send(ab);
  simulator.Run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, LargerMessagesTakeLonger) {
  Simulator sim_small;
  Simulator sim_large;
  NetworkConfig config;
  config.jitter_sigma = 0.0;
  config.per_byte_ns = 10.0;
  Network net_small(&sim_small, config);
  Network net_large(&sim_large, config);
  RecordingSink sink_small;
  RecordingSink sink_large;
  net_small.Attach(EntityName::Osd(0), &sink_small);
  net_large.Attach(EntityName::Osd(0), &sink_large);

  Envelope small;
  small.from = EntityName::Client(0);
  small.to = EntityName::Osd(0);
  Envelope large = small;
  large.payload = mal::Buffer::FromString(std::string(100000, 'x'));
  net_small.Send(small);
  net_large.Send(large);
  sim_small.Run();
  sim_large.Run();
  EXPECT_GT(sim_large.Now(), sim_small.Now());
}

namespace {
Envelope ChaosEnvelope(uint32_t type, EntityName to = EntityName::Osd(1)) {
  Envelope envelope;
  envelope.from = EntityName::Client(0);
  envelope.to = to;
  envelope.type = type;
  envelope.payload = mal::Buffer::FromString("x");
  return envelope;
}
}  // namespace

TEST(NetworkTest, ChaosLossIsSeededAndDeterministic) {
  auto run = [](uint64_t fault_seed) {
    Simulator simulator;
    NetworkConfig config;
    config.fault_seed = fault_seed;
    Network network(&simulator, config);
    RecordingSink sink;
    network.Attach(EntityName::Osd(1), &sink);
    FaultSpec faults;
    faults.loss_prob = 0.5;
    network.SetDefaultFaults(faults);
    for (uint32_t i = 0; i < 100; ++i) {
      network.Send(ChaosEnvelope(i));
    }
    simulator.Run();
    std::vector<uint32_t> delivered;
    for (const auto& envelope : sink.received) {
      delivered.push_back(envelope.type);
    }
    return std::make_pair(network.chaos_lost(), delivered);
  };
  auto [lost_a, delivered_a] = run(42);
  auto [lost_b, delivered_b] = run(42);
  EXPECT_GT(lost_a, 0u);
  EXPECT_LT(lost_a, 100u);
  EXPECT_EQ(lost_a, lost_b);  // same seed => identical loss pattern
  EXPECT_EQ(delivered_a, delivered_b);
  auto [lost_c, delivered_c] = run(43);
  EXPECT_NE(delivered_a, delivered_c);  // different seed => different pattern
}

TEST(NetworkTest, ChaosDuplicationDeliversTwiceAndCounts) {
  Simulator simulator;
  Network network(&simulator);
  RecordingSink sink;
  network.Attach(EntityName::Osd(1), &sink);
  FaultSpec faults;
  faults.dup_prob = 1.0;
  network.SetDefaultFaults(faults);
  for (uint32_t i = 0; i < 10; ++i) {
    network.Send(ChaosEnvelope(i));
  }
  simulator.Run();
  EXPECT_EQ(sink.received.size(), 20u);
  EXPECT_EQ(network.chaos_duplicated(), 10u);
  EXPECT_EQ(network.chaos_lost(), 0u);
}

TEST(NetworkTest, ChaosReorderDelaysButDelivers) {
  Simulator simulator;
  Network network(&simulator);
  RecordingSink sink;
  network.Attach(EntityName::Osd(1), &sink);
  FaultSpec faults;
  faults.reorder_prob = 1.0;
  faults.reorder_delay = 50 * kMillisecond;
  network.SetDefaultFaults(faults);
  for (uint32_t i = 0; i < 10; ++i) {
    network.Send(ChaosEnvelope(i));
  }
  simulator.Run();
  EXPECT_EQ(sink.received.size(), 10u);  // delayed, never dropped
  EXPECT_EQ(network.chaos_reordered(), 10u);
}

TEST(NetworkTest, PerLinkFaultsOnlyAffectThatLink) {
  Simulator simulator;
  Network network(&simulator);
  RecordingSink sink1;
  RecordingSink sink2;
  network.Attach(EntityName::Osd(1), &sink1);
  network.Attach(EntityName::Osd(2), &sink2);
  FaultSpec lossy;
  lossy.loss_prob = 1.0;
  network.SetLinkFaults(EntityName::Client(0), EntityName::Osd(1), lossy);
  for (uint32_t i = 0; i < 5; ++i) {
    network.Send(ChaosEnvelope(i, EntityName::Osd(1)));
    network.Send(ChaosEnvelope(i, EntityName::Osd(2)));
  }
  simulator.Run();
  EXPECT_TRUE(sink1.received.empty());
  EXPECT_EQ(sink2.received.size(), 5u);
  EXPECT_EQ(network.chaos_lost(), 5u);

  network.ClearLinkFaults(EntityName::Client(0), EntityName::Osd(1));
  network.Send(ChaosEnvelope(99, EntityName::Osd(1)));
  simulator.Run();
  EXPECT_EQ(sink1.received.size(), 1u);
}

// The determinism contract behind byte-identical benches: when no fault
// spec is enabled, the fault rng is never consulted, so delivery timing is
// exactly that of a network that never heard of chaos.
TEST(NetworkTest, DisabledFaultsPerturbNothing) {
  auto run = [](uint64_t fault_seed, bool toggle_faults) {
    Simulator simulator;
    NetworkConfig config;
    config.fault_seed = fault_seed;
    Network network(&simulator, config);
    RecordingSink sink;
    network.Attach(EntityName::Osd(1), &sink);
    if (toggle_faults) {
      FaultSpec burst;
      burst.loss_prob = 0.5;
      network.SetDefaultFaults(burst);
      network.ClearFaults();
    }
    std::vector<Time> arrival_times;
    for (uint32_t i = 0; i < 20; ++i) {
      network.Send(ChaosEnvelope(i));
      simulator.Run();
      arrival_times.push_back(simulator.Now());
    }
    return std::make_pair(arrival_times, network.chaos_lost() +
                                             network.chaos_duplicated() +
                                             network.chaos_reordered());
  };
  auto [baseline, baseline_chaos] = run(0x1111, false);
  auto [toggled, toggled_chaos] = run(0x2222, true);  // different fault seed!
  EXPECT_EQ(baseline, toggled);  // identical latency stream regardless
  EXPECT_EQ(baseline_chaos, 0u);
  EXPECT_EQ(toggled_chaos, 0u);
}

// Test actor: echoes requests after a configurable CPU cost.
class EchoActor : public Actor {
 public:
  EchoActor(Simulator* simulator, Network* network, EntityName name, Time cpu_cost = 0)
      : Actor(simulator, network, name), cpu_cost_(cpu_cost) {}

  int requests_handled = 0;

 protected:
  void HandleRequest(const Envelope& request) override {
    ++requests_handled;
    if (cpu_cost_ == 0) {
      Reply(request, request.payload);
      return;
    }
    mal::Payload payload = request.payload;
    Envelope req_copy = request;
    AfterCpu(cpu_cost_, [this, req_copy, payload] { Reply(req_copy, payload); });
  }

 private:
  Time cpu_cost_;
};

class ClientActor : public Actor {
 public:
  using Actor::Actor;
  using Actor::SendRequest;

 protected:
  void HandleRequest(const Envelope&) override {}
};

TEST(ActorTest, RequestReplyRoundTrip) {
  Simulator simulator;
  Network network(&simulator);
  EchoActor server(&simulator, &network, EntityName::Osd(0));
  ClientActor client(&simulator, &network, EntityName::Client(0));

  mal::Status got_status = mal::Status::Internal("not called");
  std::string got_payload;
  client.SendRequest(EntityName::Osd(0), 7, mal::Buffer::FromString("ping"),
                     [&](mal::Status s, const Envelope& reply) {
                       got_status = s;
                       got_payload = reply.payload.front().ToString();
                     });
  simulator.Run();
  EXPECT_TRUE(got_status.ok()) << got_status;
  EXPECT_EQ(got_payload, "ping");
  EXPECT_EQ(server.requests_handled, 1);
}

TEST(ActorTest, RequestToCrashedServerTimesOut) {
  Simulator simulator;
  Network network(&simulator);
  EchoActor server(&simulator, &network, EntityName::Osd(0));
  ClientActor client(&simulator, &network, EntityName::Client(0));
  server.Crash();

  mal::Status got_status;
  client.SendRequest(EntityName::Osd(0), 7, mal::Buffer(),
                     [&](mal::Status s, const Envelope&) { got_status = s; },
                     /*timeout=*/1 * kSecond);
  simulator.Run();
  EXPECT_EQ(got_status.code(), mal::Code::kTimedOut);
  EXPECT_EQ(simulator.Now(), 1 * kSecond);
}

TEST(ActorTest, ReplyAfterTimeoutIsDropped) {
  Simulator simulator;
  Network network(&simulator);
  // Server takes 2s of CPU; client timeout is 1s.
  EchoActor server(&simulator, &network, EntityName::Osd(0), 2 * kSecond);
  ClientActor client(&simulator, &network, EntityName::Client(0));

  int calls = 0;
  mal::Status got_status;
  client.SendRequest(EntityName::Osd(0), 7, mal::Buffer(),
                     [&](mal::Status s, const Envelope&) {
                       ++calls;
                       got_status = s;
                     },
                     /*timeout=*/1 * kSecond);
  simulator.Run();
  EXPECT_EQ(calls, 1);  // exactly once, even though the late reply arrived
  EXPECT_EQ(got_status.code(), mal::Code::kTimedOut);
}

TEST(ActorTest, CpuSerializesWork) {
  Simulator simulator;
  Network network(&simulator);
  NetworkConfig config;  // default latencies fine
  EchoActor server(&simulator, &network, EntityName::Osd(0), 100 * kMillisecond);
  ClientActor client(&simulator, &network, EntityName::Client(0));

  std::vector<Time> completions;
  for (int i = 0; i < 3; ++i) {
    client.SendRequest(EntityName::Osd(0), 7, mal::Buffer(),
                       [&](mal::Status s, const Envelope&) {
                         ASSERT_TRUE(s.ok());
                         completions.push_back(simulator.Now());
                       });
  }
  simulator.Run();
  ASSERT_EQ(completions.size(), 3u);
  // Each reply ~100ms after the previous: serialized CPU, not parallel.
  EXPECT_GE(completions[1] - completions[0], 90 * kMillisecond);
  EXPECT_GE(completions[2] - completions[1], 90 * kMillisecond);
}

TEST(ActorTest, CpuUtilizationReflectsLoad) {
  Simulator simulator;
  Network network(&simulator);
  EchoActor busy(&simulator, &network, EntityName::Mds(0));
  busy.TrackCpuBusy(1 * kSecond);
  busy.ReserveCpu(800 * kMillisecond);
  simulator.RunUntil(1 * kSecond);
  double util = busy.CpuUtilization(1 * kSecond);
  EXPECT_NEAR(util, 0.8, 0.01);

  EchoActor idle(&simulator, &network, EntityName::Mds(1));
  EXPECT_NEAR(idle.CpuUtilization(1 * kSecond), 0.0, 1e-9);
}

TEST(ActorTest, CpuBusyIntervalsKeptOnlyWhenTrackedAndOnlyForTheWindow) {
  Simulator simulator;
  Network network(&simulator);
  EchoActor untracked(&simulator, &network, EntityName::Mds(0));
  EchoActor tracked(&simulator, &network, EntityName::Mds(1));
  tracked.TrackCpuBusy(100 * kMillisecond);
  // One 1 ms reservation every 10 ms for a second: 100 intervals each.
  for (int i = 0; i < 100; ++i) {
    simulator.RunUntil(static_cast<Time>(i) * 10 * kMillisecond);
    untracked.ReserveCpu(1 * kMillisecond);
    tracked.ReserveCpu(1 * kMillisecond);
  }
  EXPECT_EQ(untracked.cpu_busy_intervals(), 0u);
  EXPECT_NEAR(untracked.CpuUtilization(100 * kMillisecond), 0.0, 1e-9);
  // At 990 ms the window starts at 890 ms: the intervals ending at 891 ms
  // through 991 ms remain, and the one ending at 881 ms is gone.
  EXPECT_EQ(tracked.cpu_busy_intervals(), 11u);
  simulator.RunUntil(1 * kSecond);
  EXPECT_NEAR(tracked.CpuUtilization(100 * kMillisecond), 0.1, 1e-9);
}

TEST(ActorTest, PeriodicTimerStopsOnCrash) {
  Simulator simulator;
  Network network(&simulator);
  EchoActor actor(&simulator, &network, EntityName::Mds(0));
  int ticks = 0;
  actor.StartPeriodic(100 * kMillisecond, [&] { ++ticks; });
  simulator.RunUntil(550 * kMillisecond);
  EXPECT_EQ(ticks, 5);
  actor.Crash();
  simulator.RunUntil(2 * kSecond);
  EXPECT_EQ(ticks, 5);
}

TEST(ActorTest, CrashFailsPendingLocalRpcs) {
  Simulator simulator;
  Network network(&simulator);
  EchoActor server(&simulator, &network, EntityName::Osd(0), 1 * kSecond);
  ClientActor client(&simulator, &network, EntityName::Client(0));

  mal::Status got_status;
  client.SendRequest(EntityName::Osd(0), 7, mal::Buffer(),
                     [&](mal::Status s, const Envelope&) { got_status = s; });
  simulator.RunUntil(10 * kMillisecond);
  client.Crash();
  EXPECT_EQ(got_status.code(), mal::Code::kUnavailable);
}

TEST(ActorTest, DispatchLaneDoesNotQueueBehindCpuWork) {
  Simulator simulator;
  Network network(&simulator);
  EchoActor actor(&simulator, &network, EntityName::Mds(0));
  // Saturate the work queue for a full second.
  actor.ReserveCpu(1 * kSecond);
  // Dispatch-lane work completes promptly regardless.
  sim::Time dispatched_at = 0;
  actor.AfterDispatch(5 * kMillisecond, [&] { dispatched_at = simulator.Now(); });
  sim::Time cpu_done_at = 0;
  actor.AfterCpu(5 * kMillisecond, [&] { cpu_done_at = simulator.Now(); });
  simulator.Run();
  EXPECT_EQ(dispatched_at, 5 * kMillisecond);
  EXPECT_GE(cpu_done_at, 1 * kSecond);  // queued behind the reserved second
}

TEST(ActorTest, DispatchLaneSerializesItsOwnWork) {
  Simulator simulator;
  Network network(&simulator);
  EchoActor actor(&simulator, &network, EntityName::Mds(0));
  std::vector<sim::Time> completions;
  for (int i = 0; i < 3; ++i) {
    actor.AfterDispatch(10 * kMillisecond, [&] { completions.push_back(simulator.Now()); });
  }
  simulator.Run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], 10 * kMillisecond);
  EXPECT_EQ(completions[1], 20 * kMillisecond);
  EXPECT_EQ(completions[2], 30 * kMillisecond);
}

TEST(ActorTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator simulator;
    Network network(&simulator);
    EchoActor server(&simulator, &network, EntityName::Osd(0), 3 * kMillisecond);
    ClientActor client(&simulator, &network, EntityName::Client(0));
    for (int i = 0; i < 50; ++i) {
      client.SendRequest(EntityName::Osd(0), 1, mal::Buffer::FromString("x"),
                         [](mal::Status, const Envelope&) {});
    }
    simulator.Run();
    return simulator.Now();
  };
  EXPECT_EQ(run_once(), run_once());
}

// -- Replay suppression ------------------------------------------------------

TEST(ReplayWindowTest, AcceptsAscendingIdsAndRejectsAnExactReplay) {
  ReplayWindow window;
  for (uint64_t id = 1; id <= 100; ++id) {
    EXPECT_TRUE(window.Accept(id)) << id;
  }
  EXPECT_FALSE(window.Accept(100));
  EXPECT_FALSE(window.Accept(42));
}

TEST(ReplayWindowTest, OutOfOrderFreshIdsInsideTheWindowAreAccepted) {
  ReplayWindow window;
  for (uint64_t id : {10, 7, 9, 8}) {
    EXPECT_TRUE(window.Accept(id)) << id;
  }
  for (uint64_t id : {10, 7, 9, 8}) {
    EXPECT_FALSE(window.Accept(id)) << id;
  }
}

TEST(ReplayWindowTest, IdsOnEachSideOfAWordBoundary) {
  ReplayWindow window;
  for (uint64_t id : {63, 64, 65}) {
    EXPECT_TRUE(window.Accept(id)) << id;
  }
  for (uint64_t id : {63, 64, 65}) {
    EXPECT_FALSE(window.Accept(id)) << id;
  }
  EXPECT_TRUE(window.Accept(62));
  EXPECT_TRUE(window.Accept(66));
}

TEST(ReplayWindowTest, JumpPastAWholeWindowClearsTheRing) {
  ReplayWindow window;
  for (uint64_t id = 1; id < 2 * 64; ++id) {
    ASSERT_TRUE(window.Accept(id));
  }
  // Block 156 is far more than kWords blocks past block 1: every ring word
  // is reused, including the two that held ids 1..127.
  const uint64_t top = 156 * 64 + 16;
  EXPECT_TRUE(window.Accept(top));
  EXPECT_FALSE(window.Accept(top));
  // 8197 and 8260 share ring words and bit positions with ids 5 and 68.
  EXPECT_TRUE(window.Accept(8197));
  EXPECT_TRUE(window.Accept(8260));
  EXPECT_TRUE(window.Accept(top - 1));
  EXPECT_FALSE(window.Accept(8197));
}

TEST(ReplayWindowTest, AnIdOlderThanTheWindowIsAccepted) {
  ReplayWindow window;
  EXPECT_TRUE(window.Accept(5));
  EXPECT_TRUE(window.Accept(5 + ReplayWindow::kWords * 64));
  // Id 5's block has slid out of the ring, so nothing remembers it.
  EXPECT_TRUE(window.Accept(5));
}

TEST(ActorTest, ReplaySuppressionIsPerSender) {
  Simulator simulator;
  Network network(&simulator);
  FaultSpec faults;
  faults.dup_prob = 1.0;  // every request arrives twice
  network.SetDefaultFaults(faults);
  EchoActor server(&simulator, &network, EntityName::Osd(0));
  ClientActor a(&simulator, &network, EntityName::Client(0));
  ClientActor b(&simulator, &network, EntityName::Client(1));
  // Both clients' first request carries rpc_id 1.
  a.SendRequest(EntityName::Osd(0), 7, mal::Buffer(), [](mal::Status, const Envelope&) {});
  b.SendRequest(EntityName::Osd(0), 7, mal::Buffer(), [](mal::Status, const Envelope&) {});
  simulator.Run();
  EXPECT_EQ(server.requests_handled, 2);
  EXPECT_EQ(server.duplicates_dropped(), 2u);
}

// -- Timer-wheel core: regressions, differential oracle, pool stress ----------

TEST(SimulatorTest, CancelAfterRunIsANoOp) {
  Simulator simulator;
  int fired = 0;
  EventId id = simulator.Schedule(5, [&] { ++fired; });
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.pending_events(), 0u);
  // Regression: cancelling an id that already ran used to leave a tombstone
  // that made pending_events() miscount (and underflow once the tombstone
  // outnumbered live events).
  simulator.Cancel(id);
  EXPECT_EQ(simulator.pending_events(), 0u);
  simulator.Schedule(5, [&] { ++fired; });
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, DoubleCancelIsANoOp) {
  Simulator simulator;
  bool ran = false;
  EventId id = simulator.Schedule(5, [&] { ran = true; });
  simulator.Schedule(6, [] {});
  simulator.Cancel(id);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Cancel(id);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, StaleIdDoesNotCancelRecycledSlot) {
  Simulator simulator;
  int first = 0;
  EventId stale = simulator.Schedule(1, [&] { ++first; });
  simulator.Run();
  // The freed slot recycles with a bumped generation: the stale id must not
  // touch the new occupant.
  bool second = false;
  simulator.Schedule(1, [&] { second = true; });
  simulator.Cancel(stale);
  simulator.Run();
  EXPECT_EQ(first, 1);
  EXPECT_TRUE(second);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryWithCancelledHead) {
  // The old scheduler's RunUntil guard read the raw queue top, so a
  // cancelled entry at the head let it run the next live event past
  // `until`. The wheel must stop exactly at the boundary.
  Simulator simulator;
  bool late = false;
  EventId head = simulator.Schedule(10, [] {});
  simulator.Schedule(100, [&] { late = true; });
  simulator.Cancel(head);
  simulator.RunUntil(50);
  EXPECT_FALSE(late);
  EXPECT_EQ(simulator.Now(), 50u);
  simulator.Run();
  EXPECT_TRUE(late);
}

TEST(SimulatorTest, CancelDestroysCallbackEagerly) {
  Simulator simulator;
  auto token = std::make_shared<int>(1);
  EventId far = simulator.Schedule(100 * kSecond, [token] {});
  EventId near = simulator.Schedule(1, [token] {});
  EXPECT_EQ(token.use_count(), 3);
  // Both the wheel-resident and the imminent event release their captures at
  // Cancel time — a cancel-heavy run must not pin memory until fire time.
  simulator.Cancel(far);
  simulator.Cancel(near);
  EXPECT_EQ(token.use_count(), 1);
  simulator.Run();
  EXPECT_EQ(simulator.pending_events(), 0u);
}

// Interprets one randomized schedule/cancel/step/run-until program on any
// simulator implementation and returns the observable trajectory: (Now() at
// execution, label) for every event that ran, plus the final clock. Events
// also schedule children and cancel peers from inside callbacks. Because
// both implementations must execute events in the identical (when, seq)
// order, the shared Rng is consumed in the same sequence on both — any
// ordering divergence amplifies and fails the comparison.
template <typename Sim>
std::pair<std::vector<std::pair<Time, uint64_t>>, Time> RunDifferentialProgram(
    uint64_t seed) {
  Sim simulator;
  mal::Rng rng(seed);
  std::vector<std::pair<Time, uint64_t>> trace;
  std::vector<EventId> ids;
  uint64_t next_label = 0;

  std::function<void(uint64_t)> body = [&](uint64_t label) {
    trace.emplace_back(simulator.Now(), label);
    if (rng.UniformDouble() < 0.3) {
      uint64_t child = next_label++;
      Time delay = rng.NextBelow(2 * kMillisecond);
      ids.push_back(simulator.Schedule(delay, [&, child] { body(child); }));
    }
    if (!ids.empty() && rng.UniformDouble() < 0.15) {
      simulator.Cancel(ids[rng.NextBelow(ids.size())]);  // may be stale
    }
  };

  for (int op = 0; op < 60; ++op) {
    double u = rng.UniformDouble();
    if (u < 0.55) {
      uint64_t label = next_label++;
      double v = rng.UniformDouble();
      Time delay;
      if (v < 0.1) {
        delay = 0;
      } else if (v < 0.6) {
        delay = rng.NextBelow(500 * kMicrosecond);
      } else if (v < 0.9) {
        delay = rng.NextBelow(50 * kMillisecond);
      } else {
        delay = rng.NextBelow(20 * kSecond);  // wheel upper levels / overflow
      }
      ids.push_back(simulator.Schedule(delay, [&, label] { body(label); }));
    } else if (u < 0.65) {
      if (!ids.empty()) {
        simulator.Cancel(ids[rng.NextBelow(ids.size())]);
      }
    } else if (u < 0.8) {
      simulator.Step();
    } else {
      simulator.RunUntil(simulator.Now() + rng.NextBelow(10 * kMillisecond));
    }
  }
  simulator.Run();
  return {std::move(trace), simulator.Now()};
}

TEST(SimulatorTest, DifferentialAgainstPriorityQueueOracle) {
  // Property: for thousands of randomized programs, the timer wheel executes
  // the exact event sequence — same labels, same Now() at each execution,
  // same final clock — as the retained priority-queue implementation.
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    auto wheel = RunDifferentialProgram<Simulator>(seed);
    auto oracle = RunDifferentialProgram<LegacySimulator>(seed);
    ASSERT_EQ(wheel.first.size(), oracle.first.size()) << "seed " << seed;
    ASSERT_TRUE(wheel.first == oracle.first) << "trajectory diverged, seed " << seed;
    ASSERT_EQ(wheel.second, oracle.second) << "final clock diverged, seed " << seed;
  }
}

// Schedules one event whose capture is exactly `sizeof(shared_ptr) + N`
// bytes, spanning the inline small-buffer boundary of the pooled callback.
template <size_t N>
void SchedulePadded(Simulator* simulator, std::shared_ptr<int> token, int* ran) {
  struct Pad {
    char bytes[N];
  } pad{};
  simulator->Schedule(1, [token = std::move(token), pad, ran] {
    *ran += static_cast<int>(sizeof(pad));
  });
}

TEST(SimulatorTest, PooledCallbacksAcrossSboBoundary) {
  // Every size must run exactly once and destroy its captures exactly once,
  // on both the inline path (small captures) and the heap fallback (large
  // captures). The ASan/UBSan CI job runs this against the pooled allocator.
  Simulator simulator;
  auto token = std::make_shared<int>(0);
  int ran = 0;
  SchedulePadded<1>(&simulator, token, &ran);
  SchedulePadded<16>(&simulator, token, &ran);
  SchedulePadded<32>(&simulator, token, &ran);    // at/near the inline limit
  SchedulePadded<48>(&simulator, token, &ran);    // straddles it
  SchedulePadded<100>(&simulator, token, &ran);   // heap fallback
  SchedulePadded<256>(&simulator, token, &ran);   // heap fallback, large
  EXPECT_EQ(token.use_count(), 7);
  simulator.Run();
  EXPECT_EQ(ran, 1 + 16 + 32 + 48 + 100 + 256);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulatorTest, PoolStressChurnReleasesEverything) {
  // Slab-pool stress: heavy schedule/cancel/fire churn across chunk growth
  // and free-list recycling, with reentrant scheduling and heap-sized
  // captures mixed in. Leak-checked structurally via the shared token;
  // byte-level by the sanitizer job.
  Simulator simulator;
  mal::Rng rng(0xfeedface);
  auto token = std::make_shared<int>(0);
  uint64_t fired = 0;
  std::vector<EventId> cancelable;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 1000; ++i) {
      Time delay = 1 + rng.NextBelow(10 * kMillisecond);
      if (i % 3 == 0) {
        struct Big {
          char pad[96];
        } big{};
        cancelable.push_back(
            simulator.Schedule(delay, [token, big, &fired] { ++fired; (void)big; }));
      } else {
        cancelable.push_back(simulator.Schedule(delay, [token, &fired, &simulator] {
          ++fired;
          if (fired % 7 == 0) {
            simulator.Schedule(1, [&fired] { ++fired; });  // reentrant
          }
        }));
      }
    }
    // Cancel a third of this round's events, some twice.
    for (size_t i = 0; i < cancelable.size(); i += 3) {
      simulator.Cancel(cancelable[i]);
      if (i % 9 == 0) {
        simulator.Cancel(cancelable[i]);
      }
    }
    cancelable.clear();
    simulator.RunUntil(simulator.Now() + 2 * kMillisecond);
  }
  simulator.Run();
  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace mal::sim
