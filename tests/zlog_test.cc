// End-to-end ZLog tests on a full simulated cluster: append/read ordering,
// striping, holes, trims, both sequencer modes, epoch fencing, and the
// CORFU sequencer-recovery protocol after a client crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/cluster/cluster.h"

namespace mal::zlog {
namespace {

using cluster::Cluster;
using cluster::ClusterOptions;

class ZlogFixture : public ::testing::Test {
 protected:
  void Start(uint32_t num_osds = 4, uint32_t num_mds = 1) {
    ClusterOptions options;
    options.num_osds = num_osds;
    options.num_mds = num_mds;
    options.osd.replicas = 2;
    options.mon.proposal_interval = 200 * sim::kMillisecond;
    cluster = std::make_unique<Cluster>(options);
    cluster->Boot();
  }

  std::unique_ptr<Log> OpenLog(cluster::Client* client, LogOptions options = {}) {
    auto log = client->OpenLog(std::move(options));
    bool opened = false;
    Status open_status;
    log->Open([&](Status s) {
      open_status = s;
      opened = true;
    });
    EXPECT_TRUE(cluster->RunUntil([&] { return opened; }));
    EXPECT_TRUE(open_status.ok()) << open_status;
    return log;
  }

  Result<uint64_t> Append(Log* log, const std::string& data) {
    std::optional<Result<uint64_t>> result;
    log->Append(Buffer::FromString(data), [&](Status s, uint64_t pos) {
      result = s.ok() ? Result<uint64_t>(pos) : Result<uint64_t>(s);
    });
    EXPECT_TRUE(cluster->RunUntil([&] { return result.has_value(); }));
    return result.value_or(Status::TimedOut("append"));
  }

  struct ReadResult {
    Status status;
    EntryState state = EntryState::kData;
    std::string data;
  };

  ReadResult Read(Log* log, uint64_t pos) {
    std::optional<ReadResult> result;
    log->Read(pos, [&](Status s, EntryState state, const Buffer& data) {
      result = ReadResult{s, state, data.ToString()};
    });
    EXPECT_TRUE(cluster->RunUntil([&] { return result.has_value(); }));
    return result.value_or(ReadResult{Status::TimedOut("read")});
  }

  struct BatchResult {
    Status status;
    std::vector<uint64_t> positions;
  };

  BatchResult AppendBatch(Log* log, const std::vector<std::string>& payloads,
                          sim::Time timeout = 30 * sim::kSecond) {
    std::vector<Buffer> entries;
    entries.reserve(payloads.size());
    for (const std::string& p : payloads) {
      entries.push_back(Buffer::FromString(p));
    }
    std::optional<BatchResult> result;
    log->AppendBatch(std::move(entries),
                     [&](Status s, const std::vector<uint64_t>& positions) {
                       result = BatchResult{s, positions};
                     });
    EXPECT_TRUE(cluster->RunUntil([&] { return result.has_value(); }, timeout));
    return result.value_or(BatchResult{Status::TimedOut("append batch")});
  }

  // Issues `batches` AppendBatch calls of `size` entries on `log` at once
  // (the in-flight window queues the excess). Batch b, entry i carries
  // prefix + (b * size + i); results land in `out` by batch index.
  void IssueBatches(Log* log, const std::string& prefix, int batches, int size,
                    std::vector<std::optional<BatchResult>>* out) {
    out->assign(batches, std::nullopt);
    for (int b = 0; b < batches; ++b) {
      std::vector<Buffer> entries;
      for (int i = 0; i < size; ++i) {
        entries.push_back(Buffer::FromString(prefix + std::to_string(b * size + i)));
      }
      log->AppendBatch(std::move(entries),
                       [out, b](Status s, const std::vector<uint64_t>& positions) {
                         ASSERT_FALSE((*out)[b].has_value()) << "batch " << b << " twice";
                         (*out)[b] = BatchResult{s, positions};
                       });
    }
  }

  static bool AllDone(const std::vector<std::optional<BatchResult>>& results) {
    return std::all_of(results.begin(), results.end(),
                       [](const auto& r) { return r.has_value(); });
  }

  // Every batch succeeded, no position was acked twice, and every entry
  // reads back exactly. Returns the acked positions.
  std::set<uint64_t> ExpectBatchesLanded(
      Log* log, const std::string& prefix, int size,
      const std::vector<std::optional<BatchResult>>& results) {
    std::set<uint64_t> acked;
    for (size_t b = 0; b < results.size(); ++b) {
      EXPECT_TRUE(results[b]->status.ok()) << "batch " << b << ": " << results[b]->status;
      if (!results[b]->status.ok()) {
        continue;
      }
      EXPECT_EQ(results[b]->positions.size(), static_cast<size_t>(size));
      for (size_t i = 0; i < results[b]->positions.size(); ++i) {
        uint64_t pos = results[b]->positions[i];
        EXPECT_TRUE(acked.insert(pos).second) << "position " << pos << " acked twice";
        ReadResult r = Read(log, pos);
        EXPECT_TRUE(r.status.ok()) << "pos " << pos << ": " << r.status;
        EXPECT_EQ(r.data, prefix + std::to_string(b * size + i)) << "pos " << pos;
      }
    }
    return acked;
  }

  std::vector<std::string> Payloads(const std::string& prefix, int n) {
    std::vector<std::string> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(prefix + std::to_string(i));
    }
    return out;
  }

  std::unique_ptr<Cluster> cluster;
};

TEST_F(ZlogFixture, AppendAssignsContiguousPositions) {
  Start();
  auto* client = cluster->NewClient();
  auto log = OpenLog(client);
  for (uint64_t expected = 0; expected < 10; ++expected) {
    auto pos = Append(log.get(), "entry-" + std::to_string(expected));
    ASSERT_TRUE(pos.ok()) << pos.status();
    EXPECT_EQ(pos.value(), expected);
  }
}

TEST_F(ZlogFixture, ReadBackMatchesAppends) {
  Start();
  auto* client = cluster->NewClient();
  auto log = OpenLog(client);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(Append(log.get(), "payload-" + std::to_string(i)).ok());
  }
  for (uint64_t pos = 0; pos < 8; ++pos) {
    ReadResult r = Read(log.get(), pos);
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.state, EntryState::kData);
    EXPECT_EQ(r.data, "payload-" + std::to_string(pos));
  }
}

TEST_F(ZlogFixture, EntriesStripeAcrossObjects) {
  Start(6);
  auto* client = cluster->NewClient();
  LogOptions options;
  options.name = "striped";
  options.stripe_width = 3;
  auto log = OpenLog(client, options);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(Append(log.get(), "x").ok());
  }
  EXPECT_EQ(log->ObjectFor(0), "striped.0");
  EXPECT_EQ(log->ObjectFor(4), "striped.1");
  // All three stripe objects materialized on the OSDs.
  int stripe_objects = 0;
  for (size_t i = 0; i < cluster->num_osds(); ++i) {
    for (const std::string& oid : cluster->osd(i).store().List()) {
      if (oid.rfind("striped.", 0) == 0) {
        ++stripe_objects;
      }
    }
  }
  EXPECT_EQ(stripe_objects, 3 * 2);  // 3 stripes x 2 replicas
}

TEST_F(ZlogFixture, MultipleClientsShareTotalOrder) {
  Start();
  auto* client_a = cluster->NewClient();
  auto* client_b = cluster->NewClient();
  auto log_a = OpenLog(client_a);
  auto log_b = OpenLog(client_b);
  std::set<uint64_t> positions;
  for (int i = 0; i < 6; ++i) {
    auto pos = Append(i % 2 == 0 ? log_a.get() : log_b.get(), "multi");
    ASSERT_TRUE(pos.ok());
    EXPECT_TRUE(positions.insert(pos.value()).second) << "duplicate position";
  }
  EXPECT_EQ(*positions.rbegin(), 5u);  // dense prefix 0..5
}

TEST_F(ZlogFixture, ReadUnwrittenReportsNotWritten) {
  Start();
  auto* client = cluster->NewClient();
  auto log = OpenLog(client);
  ASSERT_TRUE(Append(log.get(), "only-entry").ok());
  ReadResult r = Read(log.get(), 100);
  EXPECT_EQ(r.status.code(), Code::kNotWritten);
}

TEST_F(ZlogFixture, FillAndTrim) {
  Start();
  auto* client = cluster->NewClient();
  auto log = OpenLog(client);
  ASSERT_TRUE(Append(log.get(), "keep").ok());

  bool filled = false;
  log->Fill(5, [&](Status s) {
    EXPECT_TRUE(s.ok()) << s;
    filled = true;
  });
  ASSERT_TRUE(cluster->RunUntil([&] { return filled; }));
  EXPECT_EQ(Read(log.get(), 5).state, EntryState::kFilled);

  bool trimmed = false;
  log->Trim(0, [&](Status s) {
    EXPECT_TRUE(s.ok()) << s;
    trimmed = true;
  });
  ASSERT_TRUE(cluster->RunUntil([&] { return trimmed; }));
  EXPECT_EQ(Read(log.get(), 0).state, EntryState::kTrimmed);
}

TEST_F(ZlogFixture, CheckTailDoesNotAllocate) {
  Start();
  auto* client = cluster->NewClient();
  auto log = OpenLog(client);
  ASSERT_TRUE(Append(log.get(), "a").ok());
  ASSERT_TRUE(Append(log.get(), "b").ok());

  std::optional<uint64_t> tail;
  log->CheckTail([&](Status s, uint64_t pos) {
    ASSERT_TRUE(s.ok()) << s;
    tail = pos;
  });
  ASSERT_TRUE(cluster->RunUntil([&] { return tail.has_value(); }));
  EXPECT_EQ(*tail, 2u);
  // And the next append still gets position 2 (tail check didn't consume).
  EXPECT_EQ(Append(log.get(), "c").value(), 2u);
}

TEST_F(ZlogFixture, CachedSequencerAppendsLocally) {
  Start();
  auto* client = cluster->NewClient();
  LogOptions options;
  options.name = "cached";
  options.sequencer_mode = SequencerMode::kCached;
  options.lease.mode = mds::LeaseMode::kDelay;
  options.lease.max_hold_ns = 10 * sim::kSecond;
  auto log = OpenLog(client, options);
  for (uint64_t expected = 0; expected < 20; ++expected) {
    auto pos = Append(log.get(), "local");
    ASSERT_TRUE(pos.ok()) << pos.status();
    EXPECT_EQ(pos.value(), expected);
  }
  EXPECT_TRUE(client->mds.HasCap(log->sequencer_path()));
}

TEST_F(ZlogFixture, CachedSequencerHandsOffBetweenClients) {
  Start();
  auto* client_a = cluster->NewClient();
  auto* client_b = cluster->NewClient();
  LogOptions options;
  options.name = "handoff";
  options.sequencer_mode = SequencerMode::kCached;
  options.lease.mode = mds::LeaseMode::kBestEffort;
  auto log_a = OpenLog(client_a, options);
  auto log_b = OpenLog(client_b, options);

  std::set<uint64_t> positions;
  for (int round = 0; round < 4; ++round) {
    auto pos_a = Append(log_a.get(), "from-a");
    ASSERT_TRUE(pos_a.ok()) << pos_a.status();
    EXPECT_TRUE(positions.insert(pos_a.value()).second);
    auto pos_b = Append(log_b.get(), "from-b");
    ASSERT_TRUE(pos_b.ok()) << pos_b.status();
    EXPECT_TRUE(positions.insert(pos_b.value()).second);
  }
  EXPECT_EQ(positions.size(), 8u);
  EXPECT_EQ(*positions.rbegin(), 7u);  // no gaps, no duplicates
}

TEST_F(ZlogFixture, StaleEpochClientIsFencedAfterRecovery) {
  Start();
  auto* client = cluster->NewClient();
  auto log = OpenLog(client);
  ASSERT_TRUE(Append(log.get(), "pre").ok());

  // Another client runs recovery (e.g. it believed the sequencer failed).
  auto* recoverer = cluster->NewClient();
  auto log2 = OpenLog(recoverer, LogOptions{});
  std::optional<uint64_t> recovered_tail;
  log2->Recover([&](Status s, uint64_t tail) {
    ASSERT_TRUE(s.ok()) << s;
    recovered_tail = tail;
  });
  ASSERT_TRUE(cluster->RunUntil([&] { return recovered_tail.has_value(); }));
  EXPECT_EQ(*recovered_tail, 1u);
  EXPECT_EQ(log2->epoch(), 1u);

  // The first client still has epoch 0; its next append gets fenced, then
  // transparently refreshes and retries. The position it was handed while
  // stale (1) leaks as a hole — faithful CORFU behavior — and the retried
  // append lands at the next tail position (2).
  auto pos = Append(log.get(), "post-fence");
  ASSERT_TRUE(pos.ok()) << pos.status();
  EXPECT_EQ(pos.value(), 2u);
  EXPECT_EQ(log->epoch(), 1u);
  // The leaked position is a hole that readers repair with Fill.
  EXPECT_EQ(Read(log.get(), 1).status.code(), Code::kNotWritten);
  bool filled = false;
  log->Fill(1, [&](Status s) {
    EXPECT_TRUE(s.ok()) << s;
    filled = true;
  });
  ASSERT_TRUE(cluster->RunUntil([&] { return filled; }));
  EXPECT_EQ(Read(log.get(), 1).state, EntryState::kFilled);
}

TEST_F(ZlogFixture, SequencerRecoveryAfterCapHolderCrash) {
  ClusterOptions options;
  options.num_osds = 4;
  options.num_mds = 1;
  options.osd.replicas = 2;
  options.mds.cap_reclaim_timeout = 2 * sim::kSecond;
  cluster = std::make_unique<Cluster>(options);
  cluster->Boot();

  // Client A holds the cached sequencer cap and appends entries.
  auto* client_a = cluster->NewClient();
  LogOptions log_options;
  log_options.name = "crashlog";
  log_options.sequencer_mode = SequencerMode::kCached;
  log_options.lease.mode = mds::LeaseMode::kDelay;
  log_options.lease.max_hold_ns = 60 * sim::kSecond;
  auto log_a = OpenLog(client_a, log_options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Append(log_a.get(), "a" + std::to_string(i)).ok());
  }

  // A crashes while holding the cap: the locally advanced tail dies too.
  client_a->Crash();

  // Client B wants the sequencer; the MDS reclaims after the timeout and
  // demands recovery, which B's Append runs transparently (seal all stripe
  // objects, take the max tail, install it).
  auto* client_b = cluster->NewClient();
  auto log_b = OpenLog(client_b, log_options);
  std::optional<Result<uint64_t>> pos;
  log_b->Append(Buffer::FromString("b0"), [&](Status s, uint64_t p) {
    pos = s.ok() ? Result<uint64_t>(p) : Result<uint64_t>(s);
  });
  ASSERT_TRUE(cluster->RunUntil([&] { return pos.has_value(); }, 120 * sim::kSecond));
  ASSERT_TRUE(pos->ok()) << pos->status();
  // Positions 0..4 were written by A; recovery must place B at 5 — no lost
  // or duplicated positions.
  EXPECT_EQ(pos->value(), 5u);
  EXPECT_GE(log_b->epoch(), 1u);

  ReadResult r = Read(log_b.get(), 4);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.data, "a4");
}

TEST_F(ZlogFixture, ReadsNeverBlockDuringSequencerOutage) {
  // Immutability: reads work even while the sequencer needs recovery.
  ClusterOptions options;
  options.num_osds = 4;
  options.mds.cap_reclaim_timeout = 1 * sim::kSecond;
  cluster = std::make_unique<Cluster>(options);
  cluster->Boot();

  auto* writer = cluster->NewClient();
  LogOptions log_options;
  log_options.name = "readable";
  log_options.sequencer_mode = SequencerMode::kCached;
  log_options.lease.max_hold_ns = 60 * sim::kSecond;
  log_options.lease.mode = mds::LeaseMode::kDelay;
  auto log_w = OpenLog(writer, log_options);
  ASSERT_TRUE(Append(log_w.get(), "durable").ok());
  writer->Crash();

  auto* reader = cluster->NewClient();
  auto log_r = OpenLog(reader, log_options);
  ReadResult r = Read(log_r.get(), 0);
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.data, "durable");
}

TEST_F(ZlogFixture, ReconfigureChangesStripeWidthLive) {
  Start(8);
  auto* client = cluster->NewClient();
  LogOptions options;
  options.name = "reconfig";
  options.stripe_width = 2;
  auto log = OpenLog(client, options);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(Append(log.get(), "old-" + std::to_string(i)).ok());
  }
  ASSERT_EQ(log->views().size(), 1u);

  // Widen the stripe to 4 objects.
  std::optional<Result<uint64_t>> sealed_tail;
  log->Reconfigure(4, [&](Status s, uint64_t tail) {
    sealed_tail = s.ok() ? Result<uint64_t>(tail) : Result<uint64_t>(s);
  });
  ASSERT_TRUE(cluster->RunUntil([&] { return sealed_tail.has_value(); }));
  ASSERT_TRUE(sealed_tail->ok()) << sealed_tail->status();
  EXPECT_EQ(sealed_tail->value(), 6u);
  ASSERT_EQ(log->views().size(), 2u);
  EXPECT_EQ(log->views()[1].width, 4u);
  EXPECT_EQ(log->views()[1].base_pos, 6u);

  // New appends stripe over the new objects...
  for (int i = 0; i < 8; ++i) {
    auto pos = Append(log.get(), "new-" + std::to_string(i));
    ASSERT_TRUE(pos.ok()) << pos.status();
    EXPECT_EQ(pos.value(), 6u + static_cast<uint64_t>(i));
    EXPECT_EQ(log->ObjectFor(pos.value()),
              "reconfig.v" + std::to_string(log->epoch()) + "." + std::to_string(i % 4));
  }
  // ...while old positions stay readable through the old view.
  for (uint64_t pos = 0; pos < 6; ++pos) {
    ReadResult r = Read(log.get(), pos);
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.data, "old-" + std::to_string(pos));
  }
}

TEST_F(ZlogFixture, ReconfigureFencesStaleClients) {
  Start(6);
  auto* client_a = cluster->NewClient();
  auto* client_b = cluster->NewClient();
  LogOptions options;
  options.name = "fenced";
  options.stripe_width = 2;
  auto log_a = OpenLog(client_a, options);
  auto log_b = OpenLog(client_b, options);
  ASSERT_TRUE(Append(log_a.get(), "seed").ok());

  // B reconfigures; A still has the old epoch and view.
  std::optional<Status> reconfigured;
  log_b->Reconfigure(3, [&](Status s, uint64_t) { reconfigured = s; });
  ASSERT_TRUE(cluster->RunUntil([&] { return reconfigured.has_value(); }));
  ASSERT_TRUE(reconfigured->ok()) << *reconfigured;

  // A's next append is fenced, refreshes, lands under the new view.
  auto pos = Append(log_a.get(), "post-reconfig");
  ASSERT_TRUE(pos.ok()) << pos.status();
  EXPECT_EQ(log_a->epoch(), log_b->epoch());
  EXPECT_EQ(log_a->views().size(), 2u);
  // The entry is readable by B through the shared view history.
  ReadResult r = Read(log_b.get(), pos.value());
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.data, "post-reconfig");
}

TEST_F(ZlogFixture, ViewEncodingRoundTrips) {
  Start(4);
  auto* client = cluster->NewClient();
  LogOptions options;
  options.name = "vrt";
  options.stripe_width = 2;
  auto log = OpenLog(client, options);
  ASSERT_TRUE(Append(log.get(), "x").ok());
  std::optional<Status> done;
  log->Reconfigure(5, [&](Status s, uint64_t) { done = s; });
  ASSERT_TRUE(cluster->RunUntil([&] { return done.has_value(); }));
  ASSERT_TRUE(done->ok());

  // A fresh client opening the log sees the identical view history.
  auto* late = cluster->NewClient();
  auto log2 = OpenLog(late, options);
  ASSERT_EQ(log2->views().size(), log->views().size());
  for (size_t i = 0; i < log->views().size(); ++i) {
    EXPECT_EQ(log2->views()[i].epoch, log->views()[i].epoch);
    EXPECT_EQ(log2->views()[i].width, log->views()[i].width);
    EXPECT_EQ(log2->views()[i].base_pos, log->views()[i].base_pos);
  }
}

TEST_F(ZlogFixture, StressAppendsAcrossReconfigurationNoEntryLost) {
  // Property: interleaving appends from two clients with a mid-stream
  // stripe reconfiguration never loses or corrupts an entry; every
  // committed position reads back exactly what its append wrote.
  Start(8);
  auto* client_a = cluster->NewClient();
  auto* client_b = cluster->NewClient();
  LogOptions options;
  options.name = "stress";
  options.stripe_width = 2;
  options.retry.max_attempts = 8;
  auto log_a = OpenLog(client_a, options);
  auto log_b = OpenLog(client_b, options);

  std::map<uint64_t, std::string> committed;  // position -> payload
  auto append_one = [&](Log* log, const std::string& payload) {
    auto pos = Append(log, payload);
    ASSERT_TRUE(pos.ok()) << pos.status();
    ASSERT_EQ(committed.count(pos.value()), 0u) << "duplicate " << pos.value();
    committed[pos.value()] = payload;
  };
  for (int i = 0; i < 10; ++i) {
    append_one(i % 2 == 0 ? log_a.get() : log_b.get(), "phase1-" + std::to_string(i));
  }
  // Reconfigure via A while B is unaware.
  std::optional<Status> reconfigured;
  log_a->Reconfigure(5, [&](Status s, uint64_t) { reconfigured = s; });
  ASSERT_TRUE(cluster->RunUntil([&] { return reconfigured.has_value(); }));
  ASSERT_TRUE(reconfigured->ok()) << *reconfigured;
  for (int i = 0; i < 10; ++i) {
    append_one(i % 2 == 0 ? log_b.get() : log_a.get(), "phase2-" + std::to_string(i));
  }

  // Full audit: every committed position readable with the right payload;
  // every uncommitted position below the tail is a hole, never garbage.
  uint64_t tail = committed.rbegin()->first + 1;
  for (uint64_t pos = 0; pos < tail; ++pos) {
    ReadResult r = Read(log_b.get(), pos);
    auto it = committed.find(pos);
    if (it != committed.end()) {
      ASSERT_TRUE(r.status.ok()) << "pos " << pos << ": " << r.status;
      EXPECT_EQ(r.data, it->second) << "pos " << pos;
    } else {
      EXPECT_EQ(r.status.code(), Code::kNotWritten) << "pos " << pos;
    }
  }
}

TEST_F(ZlogFixture, AppendBatchAssignsContiguousPositionsAndReadsBack) {
  Start();
  auto* client = cluster->NewClient();
  auto log = OpenLog(client);
  auto payloads = Payloads("batch-", 10);
  BatchResult r = AppendBatch(log.get(), payloads);
  ASSERT_TRUE(r.status.ok()) << r.status;
  ASSERT_EQ(r.positions.size(), 10u);
  // One sequencer grant: positions are 0..9 in entry order.
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(r.positions[i], i);
  }
  for (uint64_t i = 0; i < 10; ++i) {
    ReadResult read = Read(log.get(), r.positions[i]);
    ASSERT_TRUE(read.status.ok()) << read.status;
    EXPECT_EQ(read.state, EntryState::kData);
    EXPECT_EQ(read.data, payloads[i]);
  }
  // The batch striped across objects starting at the first stripe member.
  EXPECT_EQ(log->ObjectFor(r.positions[0]), "log.0");
}

TEST_F(ZlogFixture, AppendBatchInterleavesWithSingleAppends) {
  Start();
  auto* client = cluster->NewClient();
  auto log = OpenLog(client);
  auto first = Append(log.get(), "single-0");
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first.value(), 0u);
  BatchResult r = AppendBatch(log.get(), Payloads("mid-", 5));
  ASSERT_TRUE(r.status.ok()) << r.status;
  ASSERT_EQ(r.positions.size(), 5u);
  EXPECT_EQ(r.positions.front(), 1u);
  EXPECT_EQ(r.positions.back(), 5u);
  auto second = Append(log.get(), "single-1");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.value(), 6u);
  EXPECT_EQ(Read(log.get(), 3).data, "mid-2");
}

TEST_F(ZlogFixture, AppendBatchPipelinesUpToWindow) {
  Start();
  auto* client = cluster->NewClient();
  LogOptions options;
  options.name = "windowed";
  options.max_inflight = 4;
  auto log = OpenLog(client, options);

  // Launch 8 batches back to back; the window should keep several on the
  // wire at once while the rest queue, and all must complete correctly.
  constexpr int kBatches = 8;
  constexpr int kBatchSize = 4;
  int completed = 0;
  std::vector<BatchResult> results(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Buffer> entries;
    for (int i = 0; i < kBatchSize; ++i) {
      entries.push_back(Buffer::FromString("w" + std::to_string(b * kBatchSize + i)));
    }
    log->AppendBatch(std::move(entries),
                     [&, b](Status s, const std::vector<uint64_t>& positions) {
                       results[b] = BatchResult{s, positions};
                       ++completed;
                     });
  }
  uint32_t max_inflight_seen = 0;
  ASSERT_TRUE(cluster->RunUntil([&] {
    max_inflight_seen = std::max(max_inflight_seen, log->inflight_batches());
    return completed == kBatches;
  }));
  EXPECT_GT(max_inflight_seen, 1u) << "window never overlapped batches";
  EXPECT_LE(max_inflight_seen, 4u) << "window limit exceeded";

  // Every position 0..31 granted exactly once, every payload intact.
  std::set<uint64_t> all_positions;
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(results[b].status.ok()) << results[b].status;
    for (uint64_t pos : results[b].positions) {
      EXPECT_TRUE(all_positions.insert(pos).second) << "duplicate position " << pos;
    }
  }
  EXPECT_EQ(all_positions.size(), static_cast<size_t>(kBatches * kBatchSize));
  EXPECT_EQ(*all_positions.rbegin(), static_cast<uint64_t>(kBatches * kBatchSize - 1));
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kBatchSize; ++i) {
      EXPECT_EQ(Read(log.get(), results[b].positions[i]).data,
                "w" + std::to_string(b * kBatchSize + i));
    }
  }
}

TEST_F(ZlogFixture, AppendBatchCachedSequencerGrantsLocally) {
  Start();
  auto* client = cluster->NewClient();
  LogOptions options;
  options.name = "cachedbatch";
  options.sequencer_mode = SequencerMode::kCached;
  options.lease.mode = mds::LeaseMode::kDelay;
  options.lease.max_hold_ns = 10 * sim::kSecond;
  auto log = OpenLog(client, options);
  BatchResult first = AppendBatch(log.get(), Payloads("a-", 6));
  ASSERT_TRUE(first.status.ok()) << first.status;
  BatchResult second = AppendBatch(log.get(), Payloads("b-", 6));
  ASSERT_TRUE(second.status.ok()) << second.status;
  EXPECT_EQ(first.positions.front(), 0u);
  EXPECT_EQ(second.positions.front(), 6u);
  EXPECT_TRUE(client->mds.HasCap(log->sequencer_path()));
}

TEST_F(ZlogFixture, AppendRetriesExhaustedReportsUnavailable) {
  // Seal every stripe object at a far-future epoch directly, without
  // installing it in the sequencer inode: the client's refresh can never
  // catch up, so both append paths must burn their retry budget and
  // surface Unavailable instead of spinning forever.
  Start();
  auto* client = cluster->NewClient();
  LogOptions options;
  options.name = "sealed";
  options.retry.max_attempts = 3;
  auto log = OpenLog(client, options);
  ASSERT_TRUE(Append(log.get(), "pre").ok());

  int sealed = 0;
  for (uint64_t pos = 0; pos < options.stripe_width; ++pos) {
    client->rados.Exec(log->ObjectFor(pos), "zlog", "seal",
                       cls::ZlogOps::MakeSeal(1000),
                       [&](Status s, const Buffer&) {
                         EXPECT_TRUE(s.ok()) << s;
                         ++sealed;
                       });
  }
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return sealed == static_cast<int>(options.stripe_width); }));

  auto pos = Append(log.get(), "stuck");
  ASSERT_FALSE(pos.ok());
  EXPECT_EQ(pos.status().code(), Code::kUnavailable) << pos.status();

  BatchResult batch = AppendBatch(log.get(), Payloads("stuck-", 8));
  ASSERT_FALSE(batch.status.ok());
  EXPECT_EQ(batch.status.code(), Code::kUnavailable) << batch.status;
}

TEST_F(ZlogFixture, SealRaceMidBatchInvalidatesPerEntryAndRetries) {
  // Client B seals the log (sequencer recovery) while client A's batch is
  // in flight: A's write_batch transactions are fenced with kStaleEpoch,
  // and A must refresh + retry with fresh positions — per entry, without
  // corrupting anything that already landed.
  Start();
  auto* client_a = cluster->NewClient();
  auto* client_b = cluster->NewClient();
  auto log_a = OpenLog(client_a);
  auto log_b = OpenLog(client_b);
  ASSERT_TRUE(Append(log_a.get(), "pre").ok());

  auto payloads = Payloads("race-", 16);
  std::vector<Buffer> entries;
  for (const auto& p : payloads) {
    entries.push_back(Buffer::FromString(p));
  }
  // Hold A's OSD traffic on the wire (every message on an A<->OSD link is
  // delayed up to 50 ms), so the seal, launched in the same event round,
  // lands while A's write_batch ops are still in flight.
  sim::FaultSpec held;
  held.reorder_prob = 1.0;
  held.reorder_delay = 50 * sim::kMillisecond;
  for (size_t o = 0; o < cluster->num_osds(); ++o) {
    cluster->network().SetLinkFaults(client_a->name(),
                                     sim::EntityName::Osd(static_cast<uint32_t>(o)), held);
  }
  std::optional<BatchResult> batch;
  log_a->AppendBatch(std::move(entries),
                     [&](Status s, const std::vector<uint64_t>& positions) {
                       batch = BatchResult{s, positions};
                     });
  std::optional<Status> recovered;
  log_b->Recover([&](Status s, uint64_t) { recovered = s; });
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return batch.has_value() && recovered.has_value(); },
      120 * sim::kSecond));
  ASSERT_TRUE(recovered->ok()) << *recovered;
  ASSERT_TRUE(batch->status.ok()) << batch->status;
  EXPECT_GE(log_a->epoch(), 1u);

  // Audit: every reported position holds exactly its payload; no duplicate
  // grants; nothing below the tail reads as garbage.
  std::set<uint64_t> seen;
  for (size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(seen.insert(batch->positions[i]).second)
        << "duplicate position " << batch->positions[i];
    ReadResult r = Read(log_b.get(), batch->positions[i]);
    ASSERT_TRUE(r.status.ok()) << "pos " << batch->positions[i] << ": " << r.status;
    EXPECT_EQ(r.data, payloads[i]) << "pos " << batch->positions[i];
  }
  uint64_t tail = *seen.rbegin() + 1;
  for (uint64_t pos = 0; pos < tail; ++pos) {
    ReadResult r = Read(log_b.get(), pos);
    if (pos == 0) {
      EXPECT_EQ(r.data, "pre");
    } else if (seen.count(pos) == 0) {
      // Positions leaked by fencing are holes, never data.
      EXPECT_EQ(r.status.code(), Code::kNotWritten) << "pos " << pos;
    }
  }
}

TEST_F(ZlogFixture, RecoveryWithInFlightBatchesLeaksHolesNotData) {
  // Acceptance: sequencer recovery racing a windowed batched append never
  // hands a reader a granted-but-unwritten position as data.
  Start();
  auto* writer = cluster->NewClient();
  LogOptions options;
  options.name = "recbatch";
  options.max_inflight = 4;
  options.retry.max_attempts = 8;
  auto log_w = OpenLog(writer, options);

  constexpr int kBatches = 4;
  constexpr int kBatchSize = 8;
  int completed = 0;
  std::vector<BatchResult> results(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Buffer> entries;
    for (int i = 0; i < kBatchSize; ++i) {
      entries.push_back(
          Buffer::FromString("rb" + std::to_string(b * kBatchSize + i)));
    }
    log_w->AppendBatch(std::move(entries),
                       [&, b](Status s, const std::vector<uint64_t>& positions) {
                         results[b] = BatchResult{s, positions};
                         ++completed;
                       });
  }
  // Recovery fires while all four batches are in flight.
  auto* recoverer = cluster->NewClient();
  auto log_r = OpenLog(recoverer, options);
  std::optional<Status> recovered;
  log_r->Recover([&](Status s, uint64_t) { recovered = s; });
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return completed == kBatches && recovered.has_value(); },
      120 * sim::kSecond));
  ASSERT_TRUE(recovered->ok()) << *recovered;

  std::map<uint64_t, std::string> committed;
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(results[b].status.ok()) << results[b].status;
    for (int i = 0; i < kBatchSize; ++i) {
      auto [it, inserted] = committed.emplace(
          results[b].positions[i], "rb" + std::to_string(b * kBatchSize + i));
      ASSERT_TRUE(inserted) << "duplicate position " << results[b].positions[i];
    }
  }
  // Every position up to the final tail: committed data reads back exactly,
  // everything else (grants invalidated by the seal) is a hole.
  std::optional<uint64_t> tail;
  log_r->CheckTail([&](Status s, uint64_t t) {
    ASSERT_TRUE(s.ok()) << s;
    tail = t;
  });
  ASSERT_TRUE(cluster->RunUntil([&] { return tail.has_value(); }));
  EXPECT_GE(*tail, committed.rbegin()->first + 1);
  for (uint64_t pos = 0; pos < *tail; ++pos) {
    ReadResult r = Read(log_r.get(), pos);
    auto it = committed.find(pos);
    if (it != committed.end()) {
      ASSERT_TRUE(r.status.ok()) << "pos " << pos << ": " << r.status;
      ASSERT_EQ(r.state, EntryState::kData) << "pos " << pos;
      EXPECT_EQ(r.data, it->second) << "pos " << pos;
    } else {
      EXPECT_NE(r.state == EntryState::kData && r.status.ok(), true)
          << "phantom data at pos " << pos << ": " << r.data;
    }
  }
}

TEST_F(ZlogFixture, RecoveryOutbidsHalfAppliedSeal) {
  // A recovery that sealed part of the stripe and never installed its
  // epoch (an object was unreachable, then the recoverer gave up) leaves
  // objects sealed past the inode's epoch. The next recovery must seal past
  // them instead of failing on the stale seal forever.
  Start();
  auto* client = cluster->NewClient();
  LogOptions options;
  options.name = "halfsealed";
  auto log = OpenLog(client, options);
  ASSERT_TRUE(Append(log.get(), "before").ok());
  int sealed = 0;
  for (uint64_t pos = 0; pos + 1 < options.stripe_width; ++pos) {
    client->rados.Exec(log->ObjectFor(pos), "zlog", "seal", cls::ZlogOps::MakeSeal(5),
                       [&](Status s, const Buffer&) {
                         EXPECT_TRUE(s.ok()) << s;
                         ++sealed;
                       });
  }
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return sealed == static_cast<int>(options.stripe_width) - 1; }));

  std::optional<Status> recovered;
  log->Recover([&](Status s, uint64_t) { recovered = s; });
  ASSERT_TRUE(cluster->RunUntil([&] { return recovered.has_value(); }));
  ASSERT_TRUE(recovered->ok()) << *recovered;
  EXPECT_EQ(log->epoch(), 6u);
  auto pos = Append(log.get(), "after");
  ASSERT_TRUE(pos.ok()) << pos.status();
  EXPECT_EQ(Read(log.get(), pos.value()).data, "after");
  EXPECT_EQ(Read(log.get(), 0).data, "before");
}

// -- contention-aware grant coalescing ------------------------------------------

TEST_F(ZlogFixture, UncontendedGrantsOnePerBatch) {
  // One client on an idle rank: its own queued grants are no contention,
  // so every batch keeps its own grant, exactly as without coalescing.
  Start();
  auto* client = cluster->NewClient();
  LogOptions options;
  options.name = "solo";
  options.max_inflight = 4;
  auto log = OpenLog(client, options);
  const uint64_t grants_before = cluster->mds(0).perf().counter("mds.seq.batch_grants");

  constexpr int kBatches = 12;
  constexpr int kSize = 8;
  std::vector<std::optional<BatchResult>> results;
  IssueBatches(log.get(), "solo-", kBatches, kSize, &results);
  ASSERT_TRUE(cluster->RunUntil([&] { return AllDone(results); }));
  ExpectBatchesLanded(log.get(), "solo-", kSize, results);

  EXPECT_EQ(cluster->mds(0).perf().counter("mds.seq.batch_grants") - grants_before,
            static_cast<uint64_t>(kBatches));
  EXPECT_EQ(cluster->mds(0).perf().counter("mds.seq.contended_grants"), 0u);
  EXPECT_EQ(client->perf.counter("zlog.grants"), static_cast<uint64_t>(kBatches));
}

TEST_F(ZlogFixture, ContendedClientsCoalesceGrants) {
  // Four clients, one log each, all on one rank: the rank reports
  // contention, and each log folds its ready batches into shared grants.
  Start();
  constexpr int kClients = 4;
  constexpr int kBatches = 16;
  constexpr int kSize = 8;
  std::vector<cluster::Client*> clients;
  std::vector<std::unique_ptr<Log>> logs;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(cluster->NewClient());
    LogOptions options;
    options.name = "busy" + std::to_string(c);
    options.max_inflight = 4;
    logs.push_back(OpenLog(clients.back(), options));
  }
  const uint64_t grants_before = cluster->mds(0).perf().counter("mds.seq.batch_grants");
  std::vector<std::vector<std::optional<BatchResult>>> results(kClients);
  for (int c = 0; c < kClients; ++c) {
    IssueBatches(logs[c].get(), "c" + std::to_string(c) + "-", kBatches, kSize, &results[c]);
  }
  ASSERT_TRUE(cluster->RunUntil([&] {
    return std::all_of(results.begin(), results.end(), AllDone);
  }));

  const uint64_t grants =
      cluster->mds(0).perf().counter("mds.seq.batch_grants") - grants_before;
  EXPECT_LT(grants, static_cast<uint64_t>(kClients * kBatches));
  EXPECT_GT(cluster->mds(0).perf().counter("mds.seq.contended_grants"), 0u);
  for (int c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    EXPECT_LT(clients[c]->perf.counter("zlog.grants"),
              clients[c]->perf.counter("zlog.batches"));
    std::set<uint64_t> acked =
        ExpectBatchesLanded(logs[c].get(), "c" + std::to_string(c) + "-", kSize, results[c]);
    // Fault-free, so the FIFO split leaves no holes: positions 0..n-1, and
    // each batch holds a contiguous ascending run.
    ASSERT_EQ(acked.size(), static_cast<size_t>(kBatches * kSize));
    EXPECT_EQ(*acked.begin(), 0u);
    EXPECT_EQ(*acked.rbegin(), static_cast<uint64_t>(kBatches * kSize - 1));
    for (const auto& r : results[c]) {
      for (size_t i = 1; i < r->positions.size(); ++i) {
        EXPECT_EQ(r->positions[i], r->positions[i - 1] + 1);
      }
    }
  }
}

TEST_F(ZlogFixture, ContendedGroupSealedMidGroupRetriesEveryMember) {
  // A recovery from another client seals the log while grouped batches are
  // on the wire: every fenced member retries with fresh positions, nothing
  // is acked twice, and each fenced group refreshes the epoch once (so
  // fewer refreshes than retried members).
  Start();
  constexpr int kClients = 4;
  constexpr int kBatches = 24;
  constexpr int kSize = 8;
  std::vector<cluster::Client*> clients;
  std::vector<std::unique_ptr<Log>> logs;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(cluster->NewClient());
    LogOptions options;
    options.name = "sealed" + std::to_string(c);
    options.max_inflight = 4;
    options.retry.max_attempts = 8;
    logs.push_back(OpenLog(clients.back(), options));
  }
  std::vector<std::vector<std::optional<BatchResult>>> results(kClients);
  for (int c = 0; c < kClients; ++c) {
    IssueBatches(logs[c].get(), "s" + std::to_string(c) + "-", kBatches, kSize, &results[c]);
  }
  // Seal log 0 once coalescing is under way.
  ASSERT_TRUE(cluster->RunUntil([&] {
    return clients[0]->perf.counter("zlog.grants") + 4 <
           clients[0]->perf.counter("zlog.batches");
  }));
  const uint64_t refreshes_before = clients[0]->perf.counter("zlog.epoch_refreshes");
  const uint64_t retries_before = clients[0]->perf.counter("zlog.batch_retries");
  auto* sealer = cluster->NewClient();
  LogOptions sealer_options;
  sealer_options.name = "sealed0";
  auto sealer_log = OpenLog(sealer, sealer_options);
  std::optional<Status> recovered;
  sealer_log->Recover([&](Status s, uint64_t) { recovered = s; });
  ASSERT_TRUE(cluster->RunUntil(
      [&] {
        return recovered.has_value() &&
               std::all_of(results.begin(), results.end(), AllDone);
      },
      120 * sim::kSecond));
  ASSERT_TRUE(recovered->ok()) << *recovered;
  EXPECT_GE(logs[0]->epoch(), 1u);

  const uint64_t refreshes =
      clients[0]->perf.counter("zlog.epoch_refreshes") - refreshes_before;
  const uint64_t retries = clients[0]->perf.counter("zlog.batch_retries") - retries_before;
  EXPECT_GE(refreshes, 1u) << "the seal never fenced a write";
  EXPECT_LT(refreshes, retries) << "fenced members refreshed one by one";
  for (int c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    std::set<uint64_t> acked =
        ExpectBatchesLanded(logs[c].get(), "s" + std::to_string(c) + "-", kSize, results[c]);
    EXPECT_EQ(acked.size(), static_cast<size_t>(kBatches * kSize));
  }
}

TEST_F(ZlogFixture, ContendedGroupSurvivesRankCrash) {
  // Sharded sequencers on two ranks, four contending logs on rank 0. Rank
  // 0 crashes with grouped grants queued: every member of every group
  // retries through one takeover per group and lands exactly once.
  ClusterOptions options;
  options.num_osds = 4;
  options.num_mds = 2;
  options.osd.replicas = 2;
  options.mds.seq_ownership = true;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster = std::make_unique<Cluster>(options);
  cluster->Boot();
  constexpr int kClients = 4;
  constexpr int kBatches = 24;
  constexpr int kSize = 8;
  std::vector<cluster::Client*> clients;
  std::vector<std::unique_ptr<Log>> logs;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(cluster->NewClient());
    LogOptions log_options;
    log_options.name = "crash" + std::to_string(c);
    log_options.max_inflight = 4;
    log_options.retry.max_attempts = 8;
    logs.push_back(OpenLog(clients.back(), log_options));
  }
  cluster->RunFor(2 * sim::kSecond);  // let the ownership publishes commit
  std::vector<std::vector<std::optional<BatchResult>>> results(kClients);
  for (int c = 0; c < kClients; ++c) {
    IssueBatches(logs[c].get(), "k" + std::to_string(c) + "-", kBatches, kSize, &results[c]);
  }
  // Crash once the start-up burst (every window slot sending its own grant)
  // has drained and each log runs one shared grant at a time.
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return cluster->mds(0).perf().counter("mds.seq.batch_grants") >= 24; }));
  ASSERT_GT(cluster->mds(0).perf().counter("mds.seq.contended_grants"), 0u);
  cluster->mds(0).Crash();
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return std::all_of(results.begin(), results.end(), AllDone); },
      300 * sim::kSecond));

  for (int c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    // One grant in flight per contended log: one takeover covers the group.
    EXPECT_EQ(clients[c]->perf.counter("zlog.takeovers"), 1u);
    EXPECT_GT(clients[c]->perf.counter("zlog.batch_retries"), 0u);
    std::set<uint64_t> acked =
        ExpectBatchesLanded(logs[c].get(), "k" + std::to_string(c) + "-", kSize, results[c]);
    EXPECT_EQ(acked.size(), static_cast<size_t>(kBatches * kSize));
  }
}

TEST_F(ZlogFixture, TakeoverOutbidsSealsFarPastCachedEpoch) {
  // Sharded sequencers on two ranks. The stripe is sealed five epochs past
  // the client's cached epoch (a recoverer that sealed and never installed)
  // when the owning rank dies. Takeover must seal past the stripe's highest
  // seal, as recovery does, instead of giving up after a few bumps.
  ClusterOptions options;
  options.num_osds = 4;
  options.num_mds = 2;
  options.osd.replicas = 2;
  options.mds.seq_ownership = true;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster = std::make_unique<Cluster>(options);
  cluster->Boot();
  auto* client = cluster->NewClient();
  LogOptions log_options;
  log_options.name = "farsealed";
  auto log = OpenLog(client, log_options);
  cluster->RunFor(2 * sim::kSecond);  // let the ownership publish commit
  ASSERT_TRUE(Append(log.get(), "before").ok());
  ASSERT_EQ(log->epoch(), 0u);
  constexpr uint64_t kSealed = 5;
  int sealed = 0;
  for (uint64_t pos = 0; pos < log_options.stripe_width; ++pos) {
    client->rados.Exec(log->ObjectFor(pos), "zlog", "seal", cls::ZlogOps::MakeSeal(kSealed),
                       [&](Status s, const Buffer&) {
                         EXPECT_TRUE(s.ok()) << s;
                         ++sealed;
                       });
  }
  ASSERT_TRUE(cluster->RunUntil(
      [&] { return sealed == static_cast<int>(log_options.stripe_width); }));

  std::optional<uint32_t> owner =
      mon::SeqOwnerOf(cluster->monitor().mds_map(), log->sequencer_path());
  ASSERT_TRUE(owner.has_value());
  cluster->mds(*owner).Crash();
  BatchResult after = AppendBatch(log.get(), {"after"}, 300 * sim::kSecond);
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_EQ(client->perf.counter("zlog.takeovers"), 1u);
  EXPECT_EQ(log->epoch(), kSealed + 1);
  EXPECT_EQ(Read(log.get(), after.positions[0]).data, "after");
  EXPECT_EQ(Read(log.get(), 0).data, "before");
}

TEST_F(ZlogFixture, MdsCrashClearsContentionCounts) {
  // Requests queued at a crash die with it; their contention counts must
  // too, or every later grant would report phantom contention.
  Start();
  auto* a = cluster->NewClient();
  auto* b = cluster->NewClient();
  LogOptions options;
  options.name = "qa";
  auto log_a = OpenLog(a, options);
  options.name = "qb";
  auto log_b = OpenLog(b, options);
  for (int i = 0; i < 4; ++i) {
    a->mds.SeqNextBatch(log_a->sequencer_path(), 4, [](Status, uint64_t, bool) {});
    b->mds.SeqNextBatch(log_b->sequencer_path(), 4, [](Status, uint64_t, bool) {});
  }
  mds::MdsDaemon& mds = cluster->mds(0);
  ASSERT_TRUE(cluster->RunUntil([&] { return mds.queued_requests() >= 6; }));
  mds.Crash();
  EXPECT_EQ(mds.queued_requests(), 0u);
  mds.Recover();
  cluster->RunFor(2 * sim::kSecond);
  EXPECT_EQ(mds.queued_requests(), 0u);

  std::optional<bool> contended;
  a->mds.SeqNextBatch(log_a->sequencer_path(), 4,
                      [&](Status s, uint64_t, bool c) {
                        EXPECT_TRUE(s.ok()) << s;
                        contended = c;
                      });
  ASSERT_TRUE(cluster->RunUntil([&] { return contended.has_value(); }));
  EXPECT_FALSE(*contended);
}

}  // namespace
}  // namespace mal::zlog
