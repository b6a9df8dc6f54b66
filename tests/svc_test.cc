// Service-layer tests: RetryPolicy/Backoff determinism, the retry loop as
// each client drives it (monitor rotation, stale-map fallback, RADOS and MDS
// attempt budgets, map refresh after an unanswered hop), typed dispatch
// error mapping, deadline propagation (client clamp, server-side drop,
// shrinking multi-hop budgets), bounded-inbox admission control under
// overload, the message-type name registry, and per-reason network drop
// counters.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/deadline.h"
#include "src/common/rng.h"
#include "src/common/trace.h"
#include "src/svc/dispatch.h"
#include "src/svc/retry.h"

namespace mal {
namespace {

// ---------------------------------------------------------------------------
// Backoff / RetryPolicy

TEST(BackoffTest, DefaultPolicyDrawsNothingAndSleepsNothing) {
  // The defaults-off oracle: base_delay == 0 must return 0 delays AND leave
  // the RNG stream untouched, so enabling the service layer in a binary
  // that never configures it cannot perturb a deterministic run.
  mal::Rng used(42);
  mal::Rng untouched(42);
  svc::Backoff backoff(svc::RetryPolicy{});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(backoff.NextDelay(&used), 0u);
  }
  EXPECT_EQ(used.Next(), untouched.Next());
}

TEST(BackoffTest, AttemptBudgetMatchesLegacyCounters) {
  svc::RetryPolicy policy;
  policy.max_attempts = 3;
  svc::Backoff backoff(policy);
  mal::Rng rng(1);
  EXPECT_FALSE(backoff.Exhausted());
  EXPECT_EQ(backoff.attempt(), 0);
  backoff.NextDelay(&rng);  // attempt 0 -> 1
  EXPECT_EQ(backoff.attempt(), 1);
  EXPECT_FALSE(backoff.Exhausted());
  backoff.NextDelay(&rng);
  backoff.NextDelay(&rng);
  EXPECT_EQ(backoff.attempt(), 3);
  EXPECT_TRUE(backoff.Exhausted());
}

TEST(BackoffTest, DecorrelatedJitterStaysInBoundsAndIsDeterministic) {
  svc::RetryPolicy policy;
  policy.max_attempts = 32;
  policy.base_delay = 1 * sim::kMillisecond;
  policy.max_delay = 8 * sim::kMillisecond;

  mal::Rng rng_a(7);
  mal::Rng rng_b(7);
  svc::Backoff a(policy);
  svc::Backoff b(policy);

  // NextDelay is only asked before a retry, so the first one already backs
  // off: it draws from [base, 3 * base], like every later one from
  // [base, 3 * prev].
  sim::Time prev = policy.base_delay;
  for (int i = 0; i < 32; ++i) {
    sim::Time da = a.NextDelay(&rng_a);
    sim::Time db = b.NextDelay(&rng_b);
    EXPECT_EQ(da, db) << "same seed must give the same schedule";
    EXPECT_GE(da, policy.base_delay);
    EXPECT_LE(da, policy.max_delay);
    // Decorrelated jitter: each sleep is drawn from [base, 3 * prev_sleep].
    EXPECT_LE(da, std::max<sim::Time>(policy.base_delay, 3 * prev));
    prev = da;
  }
}

// ---------------------------------------------------------------------------
// Toy actors for dispatcher / deadline / drop-counter tests.

constexpr uint32_t kMsgPing = 4242;

struct PingReq {
  uint64_t value = 0;
  template <class Ar>
  void Fields(Ar& ar) { ar(value); }
};

class PingServer : public sim::Actor {
 public:
  PingServer(sim::Simulator* simulator, sim::Network* network, uint32_t id)
      : Actor(simulator, network, sim::EntityName::Osd(id)) {
    dispatcher_.OnTyped<PingReq>(
        kMsgPing, [this](const sim::Envelope& env, PingReq req) {
          ++pings_;
          mal::Buffer out;
          mal::Encoder enc(&out);
          enc.PutU64(req.value + 1);
          Reply(env, std::move(out));
        });
  }

  uint64_t pings() const { return pings_; }

 protected:
  void HandleRequest(const sim::Envelope& request) override {
    dispatcher_.Dispatch(request);
  }

 private:
  svc::ServiceDispatcher dispatcher_{this};
  uint64_t pings_ = 0;
};

// Accepts every request and never answers: the shape of a hung server.
class SilentServer : public sim::Actor {
 public:
  SilentServer(sim::Simulator* simulator, sim::Network* network, uint32_t id)
      : Actor(simulator, network, sim::EntityName::Mds(id)) {}
  uint64_t seen = 0;

 protected:
  void HandleRequest(const sim::Envelope&) override { ++seen; }
};

// Proxies every request to a backend (the MDS-forwarding shape); the hop
// it issues inherits the shrinking deadline ambiently.
class ProxyServer : public sim::Actor {
 public:
  ProxyServer(sim::Simulator* simulator, sim::Network* network, uint32_t id,
              sim::EntityName backend)
      : Actor(simulator, network, sim::EntityName::Mds(id)), backend_(backend) {}

 protected:
  void HandleRequest(const sim::Envelope& request) override {
    sim::Envelope pinned = request;
    SendRequest(backend_, request.type, request.payload,
                [this, pinned](mal::Status status, const sim::Envelope& reply) {
                  if (!status.ok()) {
                    ReplyError(pinned, status);
                    return;
                  }
                  Reply(pinned, reply.payload);
                });
  }

 private:
  sim::EntityName backend_;
};

class TestClient : public sim::Actor {
 public:
  TestClient(sim::Simulator* simulator, sim::Network* network, uint32_t id)
      : Actor(simulator, network, sim::EntityName::Client(id)) {}

 protected:
  void HandleRequest(const sim::Envelope&) override {}
};

mal::Buffer EncodePing(uint64_t value) {
  PingReq req{value};
  mal::Buffer payload;
  mal::Encoder enc(&payload);
  enc(req);
  return payload;
}

// ---------------------------------------------------------------------------
// ServiceDispatcher error mapping

TEST(ServiceDispatcherTest, TypedHandlerDecodesAndReplies) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  PingServer server(&simulator, &network, 1);
  TestClient client(&simulator, &network, 1);

  mal::Status status;
  uint64_t answer = 0;
  client.SendRequest(server.name(), kMsgPing, EncodePing(41),
                     [&](mal::Status s, const sim::Envelope& reply) {
                       status = s;
                       if (s.ok()) {
                         mal::Decoder dec(reply.payload);
                         answer = dec.GetU64();
                       }
                     });
  simulator.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(answer, 42u);
  EXPECT_EQ(server.pings(), 1u);
}

TEST(ServiceDispatcherTest, UnknownTypeMapsToUnimplemented) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  PingServer server(&simulator, &network, 1);
  TestClient client(&simulator, &network, 1);

  mal::Status status;
  client.SendRequest(server.name(), /*type=*/999, mal::Buffer(),
                     [&](mal::Status s, const sim::Envelope&) { status = s; });
  simulator.Run();
  EXPECT_EQ(status.code(), mal::Code::kUnimplemented) << status.ToString();
  EXPECT_EQ(server.pings(), 0u);
}

TEST(ServiceDispatcherTest, MalformedPayloadMapsToCorruption) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  PingServer server(&simulator, &network, 1);
  TestClient client(&simulator, &network, 1);

  mal::Buffer truncated;
  mal::Encoder enc(&truncated);
  enc.PutU8(1);  // PingReq wants a u64
  mal::Status status;
  client.SendRequest(server.name(), kMsgPing, std::move(truncated),
                     [&](mal::Status s, const sim::Envelope&) { status = s; });
  simulator.Run();
  EXPECT_EQ(status.code(), mal::Code::kCorruption) << status.ToString();
  EXPECT_EQ(server.pings(), 0u);
}

// ---------------------------------------------------------------------------
// Deadline propagation

TEST(DeadlineTest, ClampedHopFailsWithDeadlineExceededNotTimedOut) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  SilentServer server(&simulator, &network, 1);
  TestClient client(&simulator, &network, 1);

  // Without a deadline the hung server costs the full 5 s rpc timeout.
  mal::Status no_budget;
  client.SendRequest(server.name(), kMsgPing, EncodePing(1),
                     [&](mal::Status s, const sim::Envelope&) { no_budget = s; });
  // With a 2 s budget the same hop is clamped and fails earlier, with the
  // budget-specific code.
  mal::Status with_budget;
  sim::Time budget_failed_at = 0;
  {
    ScopedOpDeadline budget(client.Now(), 2 * sim::kSecond);
    client.SendRequest(server.name(), kMsgPing, EncodePing(2),
                       [&](mal::Status s, const sim::Envelope&) {
                         with_budget = s;
                         budget_failed_at = simulator.Now();
                       });
  }
  simulator.Run();
  EXPECT_EQ(no_budget.code(), mal::Code::kTimedOut) << no_budget.ToString();
  EXPECT_EQ(with_budget.code(), mal::Code::kDeadlineExceeded) << with_budget.ToString();
  EXPECT_EQ(budget_failed_at, 2 * sim::kSecond);
  EXPECT_EQ(server.seen, 2u);  // neither request expired before arrival
}

TEST(DeadlineTest, ExpiredWorkIsDroppedBeforeExecutionServerSide) {
  sim::Simulator simulator;
  sim::NetworkConfig net_config;
  net_config.base_latency = 100 * sim::kMicrosecond;
  sim::Network network(&simulator, net_config);
  PingServer server(&simulator, &network, 1);
  TestClient client(&simulator, &network, 1);

  // The budget is shorter than one network hop: the request is already
  // expired when it reaches the server, which must drop it before doing
  // any work.
  mal::Status status;
  {
    ScopedOpDeadline budget(client.Now(), 20 * sim::kMicrosecond);
    client.SendRequest(server.name(), kMsgPing, EncodePing(7),
                       [&](mal::Status s, const sim::Envelope&) { status = s; });
  }
  simulator.Run();
  EXPECT_EQ(status.code(), mal::Code::kDeadlineExceeded) << status.ToString();
  EXPECT_EQ(server.pings(), 0u) << "expired request must never execute";
  EXPECT_EQ(server.deadline_drops(), 1u);
}

TEST(DeadlineTest, ExhaustedBudgetFailsLocallyWithoutSending) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  PingServer server(&simulator, &network, 1);
  TestClient client(&simulator, &network, 1);

  mal::Status status;
  simulator.Schedule(1 * sim::kSecond, [&] {
    // An already-expired ambient deadline: the rpc must fail locally, with
    // no bytes put on the wire.
    mal::ScopedDeadline spent(simulator.Now());
    client.SendRequest(server.name(), kMsgPing, EncodePing(9),
                       [&](mal::Status s, const sim::Envelope&) { status = s; });
  });
  simulator.Run();
  EXPECT_EQ(status.code(), mal::Code::kDeadlineExceeded) << status.ToString();
  EXPECT_EQ(network.messages_sent(), 0u);
}

TEST(DeadlineTest, BudgetShrinksAcrossProxyHops) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  SilentServer backend(&simulator, &network, 2);
  ProxyServer proxy(&simulator, &network, 1, backend.name());
  TestClient client(&simulator, &network, 1);

  mal::Status status;
  sim::Time failed_at = 0;
  {
    ScopedOpDeadline budget(client.Now(), 1 * sim::kSecond);
    client.SendRequest(proxy.name(), kMsgPing, EncodePing(3),
                       [&](mal::Status s, const sim::Envelope&) {
                         status = s;
                         failed_at = simulator.Now();
                       });
  }
  simulator.Run();
  // The proxy's hop to the hung backend inherited the remaining budget, so
  // the whole chain fails at the 1 s deadline instead of a 5 s timeout
  // (let alone two stacked ones).
  EXPECT_EQ(status.code(), mal::Code::kDeadlineExceeded) << status.ToString();
  EXPECT_EQ(failed_at, 1 * sim::kSecond);
  EXPECT_EQ(backend.seen, 1u);
}

// ---------------------------------------------------------------------------
// Message-type names

TEST(MessageTypeNameTest, CoversEveryDaemonNamespaceAndFallsBack) {
  EXPECT_EQ(trace::MessageTypeName(100), "mon.paxos");
  EXPECT_EQ(trace::MessageTypeName(101), "mon.command");
  EXPECT_EQ(trace::MessageTypeName(200), "osd.op");
  EXPECT_EQ(trace::MessageTypeName(201), "osd.repop");
  EXPECT_EQ(trace::MessageTypeName(300), "mds.client_request");
  EXPECT_EQ(trace::MessageTypeName(306), "mds.coherence");
  EXPECT_EQ(trace::MessageTypeName(999999), "msg.999999");
}

// ---------------------------------------------------------------------------
// Network drop counters

TEST(NetworkDropTest, CountsDropsPerReason) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  PingServer server(&simulator, &network, 1);
  TestClient client(&simulator, &network, 1);

  // Destination crashed at send time.
  network.SetCrashed(server.name(), true);
  client.SendOneWay(server.name(), kMsgPing, EncodePing(1));
  EXPECT_EQ(network.dropped_crashed(), 1u);
  network.SetCrashed(server.name(), false);

  // Link partitioned.
  network.SetPartitioned(client.name(), server.name(), true);
  client.SendOneWay(server.name(), kMsgPing, EncodePing(2));
  EXPECT_EQ(network.dropped_partitioned(), 1u);
  network.SetPartitioned(client.name(), server.name(), false);

  // Destination crashes while the message is in flight.
  client.SendOneWay(server.name(), kMsgPing, EncodePing(3));
  network.SetCrashed(server.name(), true);
  simulator.Run();
  EXPECT_EQ(network.dropped_crashed_inflight(), 1u);
  network.SetCrashed(server.name(), false);

  // Destination never attached.
  client.SendOneWay(sim::EntityName::Osd(77), kMsgPing, EncodePing(4));
  simulator.Run();
  EXPECT_EQ(network.dropped_unattached(), 1u);

  EXPECT_EQ(network.dropped_total(), 4u);
  EXPECT_EQ(server.pings(), 0u);
}

// ---------------------------------------------------------------------------
// The retry loop, as each client drives it

// Answers every request through `on_request` and counts what it saw: a
// stand-in monitor or MDS whose replies a test scripts.
class ScriptedServer : public sim::Actor {
 public:
  using Handler = std::function<void(ScriptedServer*, const sim::Envelope&)>;
  ScriptedServer(sim::Simulator* simulator, sim::Network* network, sim::EntityName name,
                 Handler on_request)
      : Actor(simulator, network, name), on_request_(std::move(on_request)) {}
  uint64_t seen = 0;

 protected:
  void HandleRequest(const sim::Envelope& request) override {
    ++seen;
    on_request_(this, request);
  }

 private:
  Handler on_request_;
};

mal::Buffer EncodeMapUpdate(uint64_t epoch) {
  mon::MapUpdate update;
  mal::Encoder map_enc(&update.map_payload);
  map_enc.PutU64(epoch);
  return mal::Encode(update);
}

TEST(RetryLoopTest, MonClientRotatesFromThePreferredMonitorThenGivesUp) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  std::vector<uint32_t> asked;
  std::vector<std::unique_ptr<ScriptedServer>> mons;
  for (uint32_t id = 0; id < 3; ++id) {
    mons.push_back(std::make_unique<ScriptedServer>(
        &simulator, &network, sim::EntityName::Mon(id),
        [&asked, id](ScriptedServer* self, const sim::Envelope& request) {
          asked.push_back(id);
          self->ReplyError(request, mal::Status::Unavailable("not serving"));
        }));
  }
  TestClient client(&simulator, &network, 1);
  // Monitor 1 is the preferred member: attempt N goes to the Nth after it.
  mon::MonClient mon_client(&client, {1, 2, 0});
  std::optional<mal::Status> result;
  mon::Transaction txn;
  txn.op = mon::Transaction::Op::kSetServiceMetadata;
  txn.key = "k";
  mon_client.SubmitTransaction(txn, [&](mal::Status s) { result = s; });
  simulator.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->code(), mal::Code::kUnavailable);
  EXPECT_EQ(result->message(), "monitor quorum unreachable");
  // The budget is two rotations through the quorum.
  EXPECT_EQ(asked, (std::vector<uint32_t>{1, 2, 0, 1, 2, 0}));
}

TEST(RetryLoopTest, GetMapAboveFallsBackToTheFreshestStaleReply) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  std::vector<uint64_t> epochs = {3, 5, 4};
  std::vector<std::unique_ptr<ScriptedServer>> mons;
  for (uint32_t id = 0; id < 3; ++id) {
    mons.push_back(std::make_unique<ScriptedServer>(
        &simulator, &network, sim::EntityName::Mon(id),
        [&epochs, id](ScriptedServer* self, const sim::Envelope& request) {
          self->Reply(request, EncodeMapUpdate(epochs[id]));
        }));
  }
  TestClient client(&simulator, &network, 1);
  mon::MonClient mon_client(&client, {0, 1, 2});

  // Nothing above epoch 5 exists: the whole budget runs, and the freshest
  // reply that was not newer comes back with Ok.
  std::optional<mal::Status> status;
  uint64_t got = 0;
  mon_client.GetMapAbove(mon::MapKind::kOsdMap, 5,
                         [&](mal::Status s, const mon::MapUpdate& update) {
                           status = s;
                           got = EpochOf(update);
                         });
  simulator.Run();
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok()) << status->ToString();
  EXPECT_EQ(got, 5u);
  EXPECT_EQ(mons[0]->seen + mons[1]->seen + mons[2]->seen, 6u);

  // A newer map ends the rotation at the member that has it.
  status.reset();
  mon_client.GetMapAbove(mon::MapKind::kOsdMap, 4,
                         [&](mal::Status s, const mon::MapUpdate& update) {
                           status = s;
                           got = EpochOf(update);
                         });
  simulator.Run();
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok()) << status->ToString();
  EXPECT_EQ(got, 5u);
  EXPECT_EQ(mons[0]->seen + mons[1]->seen + mons[2]->seen, 8u);

  // The session monitor dies, and the member the session moves to is a
  // stale follower that recovered with old state: it is still skipped.
  mons[0]->Crash();
  epochs = {7, 2, 6};
  status.reset();
  mon_client.GetMapAbove(mon::MapKind::kOsdMap, 5,
                         [&](mal::Status s, const mon::MapUpdate& update) {
                           status = s;
                           got = EpochOf(update);
                         });
  simulator.Run();
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok()) << status->ToString();
  EXPECT_EQ(got, 6u);
  EXPECT_EQ(mon_client.session(), 1u);
  EXPECT_EQ(mon_client.session_moves(), 1u);
  EXPECT_EQ(mons[1]->seen + mons[2]->seen, 7u);
}

TEST(RetryLoopTest, RadosExecuteGivesUpAfterFiveAttempts) {
  cluster::ClusterOptions options;
  options.num_osds = 3;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();
  for (size_t i = 0; i < cluster.num_osds(); ++i) {
    cluster.osd(i).Crash();
  }

  std::optional<mal::Status> result;
  client->rados.Read("lost", [&](mal::Status s, const mal::Buffer&) { result = s; });
  ASSERT_TRUE(cluster.RunUntil([&] { return result.has_value(); }, 120 * sim::kSecond));
  EXPECT_EQ(result->code(), mal::Code::kUnavailable);
  EXPECT_EQ(result->message(), "no reachable primary for lost");
  EXPECT_EQ(client->perf.counter("rados.ops"), 1u);
  EXPECT_EQ(client->perf.counter("rados.retries"), 4u);
}

TEST(RetryLoopTest, ShedClientsFirstRetryWaitsAtLeastTheBaseDelay) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  mon::OsdMap map;
  map.epoch = 1;
  map.osds[0] = {true, 1.0};
  ScriptedServer mon(&simulator, &network, sim::EntityName::Mon(0),
                     [&map](ScriptedServer* self, const sim::Envelope& request) {
                       self->Reply(request, mal::Encode(mon::MapUpdate{mon::MapKind::kOsdMap,
                                                                       mal::Encode(map)}));
                     });
  // The OSD sheds the first try at admission and serves the retry.
  osd::OsdOpReply served;
  served.map_epoch = 1;
  served.results.push_back({mal::Status::Ok(), mal::Buffer::FromString("stored")});
  std::vector<sim::Time> arrivals;
  ScriptedServer osd(&simulator, &network, sim::EntityName::Osd(0),
                     [&](ScriptedServer* self, const sim::Envelope& request) {
                       arrivals.push_back(simulator.Now());
                       if (arrivals.size() == 1) {
                         self->ReplyError(request, mal::Status::Busy());
                       } else {
                         self->Reply(request, mal::Encode(served));
                       }
                     });
  TestClient client(&simulator, &network, 1);
  rados::RadosClient rados(&client, {0}, /*replicas=*/1);
  svc::RetryPolicy policy;
  policy.base_delay = 10 * sim::kMillisecond;
  policy.max_delay = 100 * sim::kMillisecond;
  rados.set_retry_policy(policy);
  std::optional<mal::Status> connected;
  rados.Connect([&](mal::Status s) { connected = s; });
  simulator.Run();
  ASSERT_TRUE(connected.has_value() && connected->ok());

  std::optional<mal::Status> result;
  rados.Read("obj", [&](mal::Status s, const mal::Buffer&) { result = s; });
  simulator.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->ToString();
  ASSERT_EQ(arrivals.size(), 2u);
  // The first retry draws its sleep from [base, 3 * base], so the resend
  // reaches the OSD at least base_delay after the shed try did.
  EXPECT_GE(arrivals[1] - arrivals[0], policy.base_delay);
  EXPECT_LT(arrivals[1] - arrivals[0], 4 * policy.base_delay);
}

TEST(RetryLoopTest, MdsRedirectsMoveTheCacheForwardOnlyThenGiveUp) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  // Rank 0 redirects to rank 1 at map epoch 5; rank 1 answers with an
  // older redirect (to rank 2, epoch 3), which must not displace it.
  ScriptedServer rank0(&simulator, &network, sim::EntityName::Mds(0),
                       [](ScriptedServer* self, const sim::Envelope& request) {
                         self->ReplyError(request, mds::WrongRankReply(1, 5));
                       });
  ScriptedServer rank1(&simulator, &network, sim::EntityName::Mds(1),
                       [](ScriptedServer* self, const sim::Envelope& request) {
                         self->ReplyError(request, mds::WrongRankReply(2, 3));
                       });
  ScriptedServer rank2(&simulator, &network, sim::EntityName::Mds(2),
                       [](ScriptedServer* self, const sim::Envelope& request) {
                         self->ReplyError(request, mal::Status::NotFound("no such path"));
                       });
  TestClient client(&simulator, &network, 1);
  mds::MdsClient mds_client(&client);

  std::optional<mal::Status> result;
  mds_client.Lookup("/seq", [&](mal::Status s, const mds::MdsReply&) { result = s; });
  simulator.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->code(), mal::Code::kUnavailable);
  EXPECT_EQ(result->message(), "mds unreachable");
  // Four attempts: one to the home rank, three to the epoch-5 authority.
  EXPECT_EQ(rank0.seen, 1u);
  EXPECT_EQ(rank1.seen, 3u);
  EXPECT_EQ(rank2.seen, 0u);
}

TEST(RetryLoopTest, UnansweredHopUnderDeadlineRefreshesTheMap) {
  cluster::ClusterOptions options;
  options.num_mons = 3;
  options.num_osds = 4;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();
  auto* admin = cluster.NewClient();
  const mon::OsdMap before = client->rados.osd_map();

  // The client's map pushes come from its session monitor: with that
  // monitor gone, and no monitor traffic of its own to find out, it misses
  // the next epoch.
  cluster.monitor(0).Crash();
  const std::string oid = "routed";
  const uint32_t victim = osd::ActingSetForOid(oid, before, 3).front();
  cluster.osd(victim).Crash();
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = victim;
  std::optional<mal::Status> failed;
  admin->rados.mon_client().SubmitTransaction(fail, [&](mal::Status s) { failed = s; });
  ASSERT_TRUE(cluster.RunUntil([&] { return failed.has_value(); }, 60 * sim::kSecond));
  ASSERT_TRUE(failed->ok()) << failed->ToString();
  cluster.RunFor(1 * sim::kSecond);
  ASSERT_EQ(client->rados.osd_map().epoch, before.epoch) << "the push must have been missed";

  // Under a deadline the op to the failed OSD goes unanswered and ends
  // kDeadlineExceeded; it stays terminal, but the client catches up on
  // the map in the background.
  std::optional<mal::Status> first;
  {
    ScopedOpDeadline budget(cluster.simulator().Now(), 50 * sim::kMillisecond);
    client->rados.WriteFull(oid, Buffer::FromString("v1"), [&](mal::Status s) { first = s; });
  }
  ASSERT_TRUE(cluster.RunUntil([&] { return first.has_value(); }));
  EXPECT_EQ(first->code(), mal::Code::kDeadlineExceeded) << first->ToString();
  cluster.RunFor(20 * sim::kSecond);
  EXPECT_GT(client->rados.osd_map().epoch, before.epoch);
  EXPECT_FALSE(client->rados.osd_map().osds.at(victim).up);

  // The next op routes by the new map and lands within its budget.
  std::optional<mal::Status> second;
  {
    ScopedOpDeadline budget(cluster.simulator().Now(), 50 * sim::kMillisecond);
    client->rados.WriteFull(oid, Buffer::FromString("v2"), [&](mal::Status s) { second = s; });
  }
  ASSERT_TRUE(cluster.RunUntil([&] { return second.has_value(); }));
  EXPECT_TRUE(second->ok()) << second->ToString();
}

// Monitor 0 is lost for good while an OSD fails: every survivor's session
// moves to a live monitor, so the survivors learn the failure commit, and
// their perf reports and cluster-log entries keep reaching a live monitor.
TEST(MonSessionTest, SurvivorsFollowTheMapsAfterMonitorZeroIsLost) {
  cluster::ClusterOptions options;
  options.num_mons = 3;
  options.num_osds = 6;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* admin = cluster.NewClient();
  const uint32_t victim = 2;
  auto survivors = [&] {
    std::vector<uint32_t> ids;
    for (uint32_t id = 0; id < cluster.num_osds(); ++id) {
      if (id != victim) {
        ids.push_back(id);
      }
    }
    return ids;
  };

  const sim::Time lost_at = cluster.simulator().Now();
  cluster.monitor(0).Crash();
  cluster.osd(victim).Crash();
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = victim;
  std::optional<mal::Status> failed;
  admin->rados.mon_client().SubmitTransaction(fail, [&](mal::Status s) { failed = s; });
  ASSERT_TRUE(cluster.RunUntil([&] { return failed.has_value(); }, 60 * sim::kSecond));
  ASSERT_TRUE(failed->ok()) << failed->ToString();

  auto leader_epoch = [&]() -> mon::Epoch {
    for (size_t i = 1; i < cluster.num_mons(); ++i) {
      if (cluster.monitor(i).IsLeader()) {
        return cluster.monitor(i).osd_map().epoch;
      }
    }
    return 0;
  };
  ASSERT_TRUE(cluster.RunUntil(
      [&] {
        const mon::Epoch epoch = leader_epoch();
        for (uint32_t id : survivors()) {
          if (epoch == 0 || cluster.osd(id).osd_map().epoch != epoch) {
            return false;
          }
        }
        return true;
      },
      2 * sim::kSecond))
      << "leader at epoch " << leader_epoch() << ", osd.0 at "
      << cluster.osd(0).osd_map().epoch;
  for (uint32_t id : survivors()) {
    EXPECT_FALSE(cluster.osd(id).osd_map().osds.at(victim).up) << id;
  }

  // An interface that does not compile makes every survivor log an error.
  std::optional<mal::Status> published;
  admin->rados.InstallScriptInterface("broken", "v1", "function (",
                                      [&](mal::Status s) { published = s; });
  ASSERT_TRUE(cluster.RunUntil([&] { return published.has_value(); }, 10 * sim::kSecond));
  cluster.RunFor(2 * sim::kSecond);
  for (uint32_t id : survivors()) {
    const std::string entity = "osd." + std::to_string(id);
    bool reported = false;
    bool logged = false;
    for (size_t i = 1; i < cluster.num_mons(); ++i) {
      const auto& reports = cluster.monitor(i).perf_reports();
      auto it = reports.find(entity);
      reported = reported || (it != reports.end() && it->second.time_ns > lost_at);
      for (const mon::ClusterLogEntry& entry : cluster.monitor(i).cluster_log()) {
        logged = logged || (entry.source == entity && entry.time_ns > lost_at);
      }
    }
    EXPECT_TRUE(reported) << entity;
    EXPECT_TRUE(logged) << entity;
  }
}

// ---------------------------------------------------------------------------
// Admission control under overload (cluster-level)

TEST(AdmissionControlTest, OverloadedOsdShedsAndBackoffConverges) {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 1;
  options.num_mds = 1;
  options.osd.replicas = 1;
  options.osd.inbox_depth = 4;  // tiny bounded inbox
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  // Clients back off with decorrelated jitter instead of hammering the
  // shedding server.
  svc::RetryPolicy retry;
  retry.max_attempts = 30;
  retry.base_delay = 200 * sim::kMicrosecond;
  retry.max_delay = 10 * sim::kMillisecond;
  client->rados.set_retry_policy(retry);

  constexpr int kOps = 24;
  int succeeded = 0;
  int failed = 0;
  for (int i = 0; i < kOps; ++i) {
    client->rados.WriteFull("burst" + std::to_string(i), Buffer::FromString("v"),
                            [&](Status s) { s.ok() ? ++succeeded : ++failed; });
  }
  ASSERT_TRUE(cluster.RunUntil([&] { return succeeded + failed == kOps; },
                               60 * sim::kSecond));

  EXPECT_EQ(failed, 0) << "backoff must converge: every shed op eventually lands";
  EXPECT_EQ(succeeded, kOps);
  // The burst overran the 4-deep inbox, so the OSD must have shed, and the
  // client must have observed kBusy and retried.
  EXPECT_GT(cluster.osd(0).shed_total(), 0u);
  EXPECT_GT(client->perf.counter("rados.busy_rejections"), 0u);
  // Every admission slot was released on reply.
  EXPECT_EQ(cluster.osd(0).queue_depth(), 0u);
  // The shed accounting is exported through the perf registry.
  EXPECT_EQ(cluster.osd(0).perf().counter("svc.shed_total"),
            cluster.osd(0).shed_total());
}

TEST(AdmissionControlTest, DisabledByDefault) {
  cluster::ClusterOptions options;
  options.num_osds = 1;
  options.osd.replicas = 1;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  int succeeded = 0;
  for (int i = 0; i < 16; ++i) {
    client->rados.WriteFull("open" + std::to_string(i), Buffer::FromString("v"),
                            [&](Status s) { succeeded += s.ok() ? 1 : 0; });
  }
  ASSERT_TRUE(cluster.RunUntil([&] { return succeeded == 16; }));
  EXPECT_EQ(cluster.osd(0).shed_total(), 0u);
  EXPECT_EQ(cluster.osd(0).inbox_limit(), 0u);
}

// ---------------------------------------------------------------------------
// Malformed replies reach the caller as kCorruption, never as a zero-filled
// message

// `msg` encoded with its last byte cut off, as a reply cut short on the wire.
template <typename Msg>
mal::Buffer Truncated(const Msg& msg) {
  mal::Buffer wire = mal::Encode(msg);
  wire.Resize(wire.size() - 1);
  return wire;
}

TEST(MalformedReplyTest, TruncatedOsdOpReplyIsCorruption) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  mon::OsdMap map;
  map.epoch = 1;
  map.osds[0] = {true, 1.0};
  ScriptedServer mon(&simulator, &network, sim::EntityName::Mon(0),
                     [&map](ScriptedServer* self, const sim::Envelope& request) {
                       self->Reply(request, mal::Encode(mon::MapUpdate{mon::MapKind::kOsdMap,
                                                                       mal::Encode(map)}));
                     });
  osd::OsdOpReply reply;
  reply.map_epoch = 1;
  reply.results.push_back({mal::Status::Ok(), mal::Buffer::FromString("stored")});
  ScriptedServer osd(&simulator, &network, sim::EntityName::Osd(0),
                     [&reply](ScriptedServer* self, const sim::Envelope& request) {
                       self->Reply(request, Truncated(reply));
                     });
  TestClient client(&simulator, &network, 1);
  rados::RadosClient rados(&client, {0}, /*replicas=*/1);

  std::optional<mal::Status> result;
  rados.Read("obj", [&](mal::Status s, const mal::Buffer&) { result = s; });
  simulator.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->code(), mal::Code::kCorruption) << result->ToString();
  EXPECT_EQ(osd.seen, 1u);
}

TEST(MalformedReplyTest, TruncatedMdsReplyIsCorruption) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  mds::MdsReply reply;
  reply.inode.ino = 7;
  reply.inode.params = {{"epoch", "2"}};
  ScriptedServer rank0(&simulator, &network, sim::EntityName::Mds(0),
                       [&reply](ScriptedServer* self, const sim::Envelope& request) {
                         self->Reply(request, Truncated(reply));
                       });
  TestClient client(&simulator, &network, 1);
  mds::MdsClient mds_client(&client);

  std::optional<mal::Status> result;
  mds_client.Lookup("/seq", [&](mal::Status s, const mds::MdsReply&) { result = s; });
  simulator.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->code(), mal::Code::kCorruption) << result->ToString();
  EXPECT_EQ(rank0.seen, 1u);
}

TEST(MalformedReplyTest, TruncatedGetMapReplyIsCorruption) {
  sim::Simulator simulator;
  sim::Network network(&simulator);
  mon::OsdMap map;
  map.epoch = 9;
  ScriptedServer mon(&simulator, &network, sim::EntityName::Mon(0),
                     [&map](ScriptedServer* self, const sim::Envelope& request) {
                       self->Reply(request, Truncated(mon::MapUpdate{mon::MapKind::kOsdMap,
                                                                     mal::Encode(map)}));
                     });
  TestClient client(&simulator, &network, 1);
  mon::MonClient mon_client(&client, {0});

  std::optional<mal::Status> get;
  mon_client.GetMap(mon::MapKind::kOsdMap,
                    [&](mal::Status s, const mon::MapUpdate&) { get = s; });
  simulator.Run();
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(get->code(), mal::Code::kCorruption) << get->ToString();

  // The stale-map fetch ends at the first malformed reply too.
  std::optional<mal::Status> above;
  mon_client.GetMapAbove(mon::MapKind::kOsdMap, 3,
                         [&](mal::Status s, const mon::MapUpdate&) { above = s; });
  simulator.Run();
  ASSERT_TRUE(above.has_value());
  EXPECT_EQ(above->code(), mal::Code::kCorruption) << above->ToString();
  EXPECT_EQ(mon.seen, 2u);
}

}  // namespace
}  // namespace mal
