// ec_repair: durability on the clock (§4.4). An EC k=3 pool on 6 OSDs
// behind 3 monitors; 4 clients run a closed loop of 80% ec::Pool::Read and
// 20% ec::Pool::Write, each on its own disjoint set of objects. Early in
// the phase the shard-heaviest OSD is permanently lost (Crash + store
// Clear + a kOsdFail map commit through Paxos) and a scrub::Agent is
// started; the phase runs past the end of the rebuild. EC decode, scrub
// repair and monitor consensus all sit on the clock here and nowhere else.
//
// Objects are write-once (every write creates a new object, like segment
// or blob stores): the scrub agent re-encodes a degraded object without
// any guard against a concurrent client overwrite, so overwrites racing a
// repair could be rolled back to the repaired generation. Write-once
// objects keep the oracle exact while repair and client I/O overlap.
//
// Client ops carry a 50 ms deadline per try: a try that was routed to the
// lost OSD before the client's map moved on misses it, and the user
// retries (counted in ec_op_retries); the op's latency spans every try.
//
// Oracle: every read returns exactly the payload the client wrote to that
// object. After the phase chaos::Checkers::EcMissingShards must report
// full k+1 redundancy; sim_repair_s is the simulated time from the loss to
// the scrub repair after which it first does.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "malbench/harness.h"
#include "src/chaos/chaos.h"
#include "src/common/deadline.h"
#include "src/common/rng.h"
#include "src/ec/pool.h"

namespace malbench {
namespace {

using mal::Buffer;
using mal::Status;
using mal::sim::kMillisecond;
using mal::sim::kSecond;

constexpr uint32_t kClients = 4;
constexpr uint32_t kK = 3;
constexpr uint32_t kPreloadObjects = 256;  // split evenly over the clients
constexpr size_t kObjectBytes = 4096;
constexpr double kReadFraction = 0.8;
constexpr char kPool[] = "ecb";
constexpr Time kLossAt = 200 * kMillisecond;
constexpr Time kPhase = 2 * kSecond;
// Repair detection: scrub progress is sampled every kPoll, the (costly)
// redundancy audit runs every kAudit.
constexpr Time kPoll = 1 * kMillisecond;
constexpr Time kAudit = 200 * kMillisecond;
// Per-try budget of a client op, and tries per op.
constexpr Time kOpDeadline = 50 * kMillisecond;
constexpr int kMaxTries = 40;

// Zero-padded so the pool index (and so each scrub pass) lists objects in
// creation order: the preloaded ones first.
std::string Name(uint32_t object) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "o%08u", object);
  return buf;
}

std::string Payload(uint32_t object) {
  std::string out = Name(object) + ";";
  out.reserve(kObjectBytes);
  uint64_t x = SubSeed(object, 0xec);
  while (out.size() < kObjectBytes) {
    out.push_back(static_cast<char>('a' + x % 26));
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return out;
}

struct ClientLoop {
  uint32_t id = 0;
  mal::cluster::Client* client = nullptr;
  std::optional<mal::ec::Pool> pool;
  mal::Rng rng;
  std::vector<uint32_t> owned;  // acked objects of this client
  bool inflight = false;
};

class EcRepair : public Workload {
 public:
  explicit EcRepair(uint64_t seed) : seed_(seed) {}

  bool Setup(std::string* error) override {
    mal::cluster::ClusterOptions options;
    options.num_mons = 3;
    options.num_osds = 6;
    options.num_mds = 0;
    options.osd.replicas = 3;  // the pool's object index is replicated
    // A dead monitor must cost one short stall, not the 5 s transport
    // default, so the rebuild clock measures the rebuild.
    options.osd.mon_request_timeout = 1 * kSecond;
    options.mon.proposal_interval = 200 * kMillisecond;
    options.network.seed = SubSeed(seed_, 1);
    cluster_ = std::make_unique<mal::cluster::Cluster>(options);
    cluster_->Boot();
    baseline_bytes_ = StoredBytes(cluster_.get());
    checkers_ = std::make_unique<mal::chaos::Checkers>(cluster_.get());

    for (uint32_t i = 0; i < kClients; ++i) {
      auto loop = std::make_unique<ClientLoop>();
      loop->id = i;
      loop->client = cluster_->NewClient();
      loop->client->rados.mon_client().set_request_timeout(1 * kSecond);
      loop->rng.Seed(SubSeed(seed_, 200 + i));
      loops_.push_back(std::move(loop));
    }
    std::optional<Status> done;
    mal::ec::Pool::Create(&loops_[0]->client->rados, kPool, mal::mon::PoolLayout::Erasure(kK),
                          [&](Status s) { done = s; });
    if (!cluster_->RunUntil([&] { return done.has_value(); }, 60 * kSecond) || !done->ok()) {
      *error = "ec_repair: pool create failed";
      return false;
    }
    for (auto& loop : loops_) {
      done.reset();
      loop->client->rados.RefreshMap([&](Status s) { done = s; });
      cluster_->RunUntil([&] { return done.has_value(); }, 60 * kSecond);
      loop->pool = mal::ec::Pool::Bind(&loop->client->rados, kPool);
      if (!loop->pool.has_value()) {
        *error = "ec_repair: pool bind failed";
        return false;
      }
    }
    // Preload, one write in flight per client.
    int pending = 0;
    bool failed = false;
    while (next_object_ < kPreloadObjects) {
      for (auto& loop : loops_) {
        uint32_t object = next_object_++;
        ++pending;
        loop->pool->Write(Name(object), Buffer::FromString(Payload(object)),
                          [&, object, l = loop.get()](Status s) {
                            --pending;
                            failed = failed || !s.ok();
                            Acked(l, object);
                          });
      }
      if (!cluster_->RunUntil([&] { return pending == 0; }, 60 * kSecond) || failed) {
        *error = "ec_repair: preload failed";
        return false;
      }
    }
    return true;
  }

  void Phase(RoundResult* r) override {
    result_ = r;
    start_ = cluster_->simulator().Now();
    end_ = start_ + kPhase;
    for (auto& loop : loops_) {
      Issue(loop.get());
    }
    cluster_->RunFor(kLossAt);
    Time loss_time = cluster_->simulator().Now();
    if (!LoseOsd(r)) {
      return;
    }
    mal::scrub::ScrubConfig scrub_config;
    scrub_config.interval = 10 * kMillisecond;
    scrub_config.objects_per_tick = 8;
    agent_ = cluster_->NewScrubAgent(scrub_config);
    agent_->rados().mon_client().set_request_timeout(1 * kSecond);
    // Redundancy is restored by the scrub repair completing just before
    // the first clean audit.
    Time repaired_at = 0;
    Time last_repair = loss_time;
    uint64_t rebuilt = 0;
    uint64_t polls = 0;
    while (cluster_->simulator().Now() < end_) {
      cluster_->RunFor(kPoll);
      if (repaired_at != 0) {
        continue;
      }
      uint64_t now_rebuilt = agent_->perf().counter("scrub.shards_rebuilt");
      if (now_rebuilt != rebuilt) {
        rebuilt = now_rebuilt;
        last_repair = cluster_->simulator().Now();
      }
      if (++polls % (kAudit / kPoll) == 0 && checkers_->EcMissingShards(kPool, kK) == 0) {
        repaired_at = last_repair;
      }
    }
    bool drained = cluster_->RunUntil(
        [&] {
          for (auto& loop : loops_) {
            if (loop->inflight) {
              return false;
            }
          }
          return true;
        },
        60 * kSecond);
    if (!drained) {
      r->error = "ec_repair: in-flight ops did not drain";
    }
    r->phase_ns = kPhase;
    r->profiled_ns = cluster_->simulator().Now() - start_;
    uint32_t missing = checkers_->EcMissingShards(kPool, kK);
    r->extra["ec_missing_shards"] = missing;
    r->extra["ec_op_retries"] = static_cast<double>(retries_);
    if (repaired_at == 0 || missing != 0) {
      r->error = "ec_repair: redundancy not restored within the phase (" +
                 std::to_string(missing) + " shards missing)";
    } else {
      r->extra["sim_repair_s"] = static_cast<double>(repaired_at - loss_time) / 1e9;
    }
    // User bytes: every acked object, each live with its one version.
    r->stored_bytes_per_user_byte =
        static_cast<double>(StoredBytes(cluster_.get()) - baseline_bytes_) /
        static_cast<double>(acked_objects_ * kObjectBytes);
  }

  ClusterHandles handles() override {
    ClusterHandles h;
    h.cluster = cluster_.get();
    for (auto& loop : loops_) {
      h.clients.push_back(loop->client);
    }
    h.scrub = agent_;
    return h;
  }

 private:
  void Acked(ClientLoop* loop, uint32_t object) {
    loop->owned.push_back(object);
    ++acked_objects_;
    checkers_->RecordEcAck(kPool, Name(object), Payload(object));
  }

  // Permanently loses the OSD holding the most shards of the pool.
  bool LoseOsd(RoundResult* r) {
    uint32_t victim = 0;
    uint64_t victim_shards = 0;
    const std::string prefix = std::string(kPool) + "/";
    for (size_t o = 0; o < cluster_->num_osds(); ++o) {
      uint64_t shards = 0;
      for (const std::string& oid : cluster_->osd(o).store().List()) {
        if (oid.rfind(prefix, 0) == 0 && oid.find(".shard") != std::string::npos) {
          ++shards;
        }
      }
      if (shards > victim_shards) {
        victim_shards = shards;
        victim = static_cast<uint32_t>(o);
      }
    }
    r->extra["shards_lost"] = static_cast<double>(victim_shards);
    cluster_->osd(victim).Crash();
    cluster_->osd(victim).store().Clear();
    mal::mon::Transaction fail;
    fail.op = mal::mon::Transaction::Op::kOsdFail;
    fail.daemon_id = victim;
    std::optional<Status> done;
    mal::trace::ScopedContext untraced(mal::trace::TraceContext{});
    loops_[0]->client->rados.mon_client().SubmitTransaction(fail, [&](Status s) { done = s; });
    if (!cluster_->RunUntil([&] { return done.has_value(); }, 30 * kSecond) || !done->ok()) {
      r->error = "ec_repair: kOsdFail commit failed";
      return false;
    }
    return true;
  }

  void Completed(Time issued, bool write) {
    OpStats& ops = result_->ops;
    Time now = cluster_->simulator().Now();
    ops.Complete(1, now, end_, now - issued, write);
  }

  // Starts the client's next op (closed loop).
  void Issue(ClientLoop* loop) {
    if (cluster_->simulator().Now() >= end_) {
      return;
    }
    bool read = loop->rng.Bernoulli(kReadFraction);
    uint32_t object = read ? loop->owned[loop->rng.NextBelow(loop->owned.size())]
                           : next_object_++;
    ++result_->ops.attempted;
    loop->inflight = true;
    mal::trace::TraceContext span = BeginOp(read ? "ec.read" : "ec.write", loop->client);
    Attempt(loop, object, read, cluster_->simulator().Now(), span, kMaxTries);
  }

  // One try of an op under its deadline; `span` is the op's root span.
  void Attempt(ClientLoop* loop, uint32_t object, bool read, Time issued,
               mal::trace::TraceContext span, int tries_left) {
    mal::ScopedDeadline deadline(cluster_->simulator().Now() + kOpDeadline);
    mal::trace::ScopedContext scope(span);
    auto retry_or_fail = [=, this](const Status& s) {
      if (s.code() == mal::Code::kDeadlineExceeded && tries_left > 1) {
        ++retries_;
        Attempt(loop, object, read, issued, span, tries_left - 1);
        return;
      }
      EndOp(span, loop->client, false);
      loop->inflight = false;
      ++result_->ops.failed;
      Issue(loop);
    };
    if (read) {
      loop->pool->Read(Name(object), [=, this](Status s, const Buffer& data) {
        if (!s.ok()) {
          retry_or_fail(s);
          return;
        }
        EndOp(span, loop->client, true);
        loop->inflight = false;
        ++result_->ops.calls["ec.read"];
        Completed(issued, false);
        if (data.ToString() != Payload(object)) {
          result_->ops.Wrong(Name(object) + " read back a different payload");
        }
        Issue(loop);
      });
      return;
    }
    loop->pool->Write(Name(object), Buffer::FromString(Payload(object)), [=, this](Status s) {
      if (!s.ok()) {
        retry_or_fail(s);
        return;
      }
      EndOp(span, loop->client, true);
      loop->inflight = false;
      ++result_->ops.calls["ec.write"];
      Acked(loop, object);
      Completed(issued, true);
      Issue(loop);
    });
  }

  uint64_t seed_;
  std::unique_ptr<mal::cluster::Cluster> cluster_;
  std::unique_ptr<mal::chaos::Checkers> checkers_;
  std::vector<std::unique_ptr<ClientLoop>> loops_;
  mal::scrub::Agent* agent_ = nullptr;
  uint32_t next_object_ = 0;
  uint64_t acked_objects_ = 0;
  uint64_t retries_ = 0;
  uint64_t baseline_bytes_ = 0;
  RoundResult* result_ = nullptr;
  Time start_ = 0;
  Time end_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeEcRepair(uint64_t seed) {
  return std::make_unique<EcRepair>(seed);
}

}  // namespace malbench
