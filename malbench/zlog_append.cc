// zlog_append: the paper's flagship service (§5.2). Eight clients each
// drive one ZLog through a closed loop of AppendBatch calls (16 x 64 B
// entries, window 4); the sequencers of the eight logs are spread over two
// MDS ranks with MigrateSequencer, so every batch grant crosses the
// sharded MDS sequencer and every entry lands through the native `zlog`
// object class. After each acked batch, with probability 0.25 the client
// also reads back a random position it has already had acked.
//
// Oracle: every payload encodes (client, sequence number); a read of an
// acked position must return exactly the payload written there, and no
// position may be acked twice.
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "malbench/harness.h"
#include "src/common/rng.h"

namespace malbench {
namespace {

using mal::Buffer;
using mal::Status;
using mal::sim::kMillisecond;
using mal::sim::kSecond;

constexpr uint32_t kClients = 8;
constexpr uint32_t kBatch = 16;
constexpr uint32_t kWindow = 4;
constexpr size_t kEntryBytes = 64;
constexpr double kReadProb = 0.25;
constexpr Time kPhase = 600 * kMillisecond;

std::string Payload(uint32_t client, uint64_t seq) {
  char head[32];
  int n = std::snprintf(head, sizeof(head), "c%u:s%llu:", client,
                        static_cast<unsigned long long>(seq));
  std::string out(head, static_cast<size_t>(n));
  uint64_t x = SubSeed(client, seq);
  while (out.size() < kEntryBytes) {
    out.push_back(static_cast<char>('a' + x % 26));
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return out;
}

struct Acked {
  uint64_t position;
  uint64_t seq;
};

struct ClientLoop {
  uint32_t id = 0;
  mal::cluster::Client* client = nullptr;
  std::unique_ptr<mal::zlog::Log> log;
  mal::Rng rng;
  uint64_t next_seq = 0;
  std::vector<Acked> acked;
  std::unordered_set<uint64_t> positions;
  uint32_t inflight = 0;  // batches + reads on the wire
};

class ZlogAppend : public Workload {
 public:
  explicit ZlogAppend(uint64_t seed) : seed_(seed) {}

  bool Setup(std::string* error) override {
    mal::cluster::ClusterOptions options;
    options.num_mons = 1;
    options.num_osds = 4;
    options.osd.replicas = 2;
    options.num_mds = 2;
    options.mds.seq_ownership = true;
    options.mon.proposal_interval = 200 * kMillisecond;
    options.network.seed = SubSeed(seed_, 1);
    cluster_ = std::make_unique<mal::cluster::Cluster>(options);
    cluster_->Boot();
    baseline_bytes_ = StoredBytes(cluster_.get());

    for (uint32_t i = 0; i < kClients; ++i) {
      auto loop = std::make_unique<ClientLoop>();
      loop->id = i;
      loop->client = cluster_->NewClient();
      loop->rng.Seed(SubSeed(seed_, 100 + i));
      mal::zlog::LogOptions log_options;
      log_options.name = "log" + std::to_string(i);
      log_options.max_inflight = kWindow;
      loop->log = loop->client->OpenLog(log_options);
      loops_.push_back(std::move(loop));
    }
    int opened = 0;
    bool open_failed = false;
    for (auto& loop : loops_) {
      loop->log->Open([&](Status s) {
        ++opened;
        open_failed = open_failed || !s.ok();
      });
    }
    if (!cluster_->RunUntil([&] { return opened == static_cast<int>(kClients); }) ||
        open_failed) {
      *error = "zlog_append: log open failed";
      return false;
    }
    // Spread the sequencers: odd logs move to rank 1.
    int outstanding = 0;
    bool migrate_failed = false;
    for (auto& loop : loops_) {
      if (loop->id % 2 == 1) {
        ++outstanding;
        cluster_->mds(0).MigrateSequencer(loop->log->sequencer_path(), 1, [&](Status s) {
          --outstanding;
          migrate_failed = migrate_failed || !s.ok();
        });
      }
    }
    if (!cluster_->RunUntil([&] { return outstanding == 0; }, 60 * kSecond) ||
        migrate_failed) {
      *error = "zlog_append: sequencer spread failed";
      return false;
    }
    cluster_->RunFor(2 * kSecond);  // let the ownership publishes commit
    return true;
  }

  void Phase(RoundResult* r) override {
    result_ = r;
    start_ = cluster_->simulator().Now();
    end_ = start_ + kPhase;
    for (auto& loop : loops_) {
      for (uint32_t w = 0; w < kWindow; ++w) {
        IssueBatch(loop.get());
      }
    }
    cluster_->RunFor(kPhase);
    bool drained = cluster_->RunUntil(
        [&] {
          for (auto& loop : loops_) {
            if (loop->inflight != 0) {
              return false;
            }
          }
          return true;
        },
        60 * kSecond);
    if (!drained) {
      r->error = "zlog_append: in-flight ops did not drain";
    }
    r->phase_ns = kPhase;
    r->profiled_ns = cluster_->simulator().Now() - start_;
    uint64_t user_bytes = 0;
    for (auto& loop : loops_) {
      user_bytes += loop->acked.size() * kEntryBytes;
    }
    r->stored_bytes_per_user_byte =
        user_bytes == 0
            ? 0
            : static_cast<double>(StoredBytes(cluster_.get()) - baseline_bytes_) /
                  static_cast<double>(user_bytes);
  }

  ClusterHandles handles() override {
    ClusterHandles h;
    h.cluster = cluster_.get();
    for (auto& loop : loops_) {
      h.clients.push_back(loop->client);
    }
    return h;
  }

 private:
  // New calls start only inside the load window.
  bool Issuing() const { return cluster_->simulator().Now() < end_; }

  void Completed(uint64_t n, Time issued, bool write) {
    Time now = cluster_->simulator().Now();
    result_->ops.Complete(n, now, end_, now - issued, write);
  }

  void IssueBatch(ClientLoop* loop) {
    std::vector<Buffer> entries;
    std::vector<uint64_t> seqs;
    entries.reserve(kBatch);
    for (uint32_t i = 0; i < kBatch; ++i) {
      seqs.push_back(loop->next_seq);
      entries.push_back(Buffer::FromString(Payload(loop->id, loop->next_seq++)));
    }
    result_->ops.attempted += kBatch;
    ++loop->inflight;
    Time issued = cluster_->simulator().Now();
    mal::trace::TraceContext span = BeginOp("zlog.append_batch", loop->client);
    mal::trace::ScopedContext scope(span);
    loop->log->AppendBatch(
        std::move(entries), [this, loop, seqs = std::move(seqs), issued, span](
                                Status s, const std::vector<uint64_t>& positions) {
          EndOp(span, loop->client, s.ok());
          --loop->inflight;
          OpStats& ops = result_->ops;
          if (!s.ok() || positions.size() != seqs.size()) {
            ops.failed += kBatch;
          } else {
            ++ops.calls["zlog.append_batch"];
            Completed(kBatch, issued, true);
            for (size_t i = 0; i < positions.size(); ++i) {
              if (!loop->positions.insert(positions[i]).second) {
                ops.Wrong("log" + std::to_string(loop->id) + " position " +
                          std::to_string(positions[i]) + " acked twice");
              }
              loop->acked.push_back({positions[i], seqs[i]});
            }
          }
          if (!Issuing()) {
            return;
          }
          if (loop->rng.Bernoulli(kReadProb) && !loop->acked.empty()) {
            IssueRead(loop);
          }
          IssueBatch(loop);
        });
  }

  void IssueRead(ClientLoop* loop) {
    Acked target = loop->acked[loop->rng.NextBelow(loop->acked.size())];
    result_->ops.attempted += 1;
    ++loop->inflight;
    Time issued = cluster_->simulator().Now();
    mal::trace::TraceContext span = BeginOp("zlog.read", loop->client);
    mal::trace::ScopedContext scope(span);
    loop->log->Read(target.position, [this, loop, target, issued, span](
                                         Status s, mal::zlog::EntryState state,
                                         const Buffer& data) {
      EndOp(span, loop->client, s.ok());
      --loop->inflight;
      OpStats& ops = result_->ops;
      if (!s.ok()) {
        ++ops.failed;
        return;
      }
      ++ops.calls["zlog.read"];
      Completed(1, issued, false);
      if (state != mal::zlog::EntryState::kData ||
          data.ToString() != Payload(loop->id, target.seq)) {
        ops.Wrong("log" + std::to_string(loop->id) + " position " +
                  std::to_string(target.position) + " read back the wrong entry");
      }
    });
  }

  uint64_t seed_;
  std::unique_ptr<mal::cluster::Cluster> cluster_;
  std::vector<std::unique_ptr<ClientLoop>> loops_;
  uint64_t baseline_bytes_ = 0;
  RoundResult* result_ = nullptr;
  Time start_ = 0;
  Time end_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeZlogAppend(uint64_t seed) {
  return std::make_unique<ZlogAppend>(seed);
}

}  // namespace malbench
