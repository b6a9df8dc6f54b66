// Chaos engine tests: seed-reproducible fault schedules against a live
// cluster with ZLog append + capability workloads, cluster-wide invariant
// checking, and the dedicated crash-recovery regressions (MDS crash
// mid-batch-grant, forced network duplication).
//
// The soak test honors MAL_CHAOS_SEED so CI can fan a seed matrix across
// jobs; without it a small built-in seed set runs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"

namespace mal::chaos {
namespace {

using cluster::Cluster;
using cluster::ClusterOptions;

// Closed-loop appender: one append in flight at a time, unique payload
// tags, every ack recorded with the checkers. Errors (daemon down, retry
// budget exhausted) are counted and the loop continues — exactly the
// availability behavior the soak bench measures.
struct Appender {
  Checkers* checkers = nullptr;
  zlog::Log* log = nullptr;
  std::string prefix;
  uint64_t next_tag = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  bool stop = false;
  bool inflight = false;

  void Pump() {
    if (stop) {
      inflight = false;
      return;
    }
    inflight = true;
    std::string tag = prefix + std::to_string(next_tag++);
    log->Append(Buffer::FromString(tag), [this, tag](Status status, uint64_t pos) {
      if (status.ok()) {
        ++ok;
        checkers->RecordAck(log->sequencer_path(), pos, tag);
      } else {
        ++failed;
      }
      Pump();
    });
  }
};

// Same, batched: reserves windows of contiguous positions through the
// sequencer's batch grant path (the state the MDS must rebuild from the
// inode counter after a crash).
struct BatchAppender {
  Checkers* checkers = nullptr;
  zlog::Log* log = nullptr;
  std::string prefix;
  size_t batch_size = 8;
  uint64_t next_tag = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t max_pos = 0;
  bool stop = false;
  bool inflight = false;

  void Pump() {
    if (stop) {
      inflight = false;
      return;
    }
    inflight = true;
    std::vector<Buffer> entries;
    std::vector<std::string> tags;
    for (size_t i = 0; i < batch_size; ++i) {
      tags.push_back(prefix + std::to_string(next_tag++));
      entries.push_back(Buffer::FromString(tags.back()));
    }
    log->AppendBatch(std::move(entries),
                     [this, tags](Status status, const std::vector<uint64_t>& positions) {
                       if (status.ok()) {
                         for (size_t i = 0; i < positions.size(); ++i) {
                           checkers->RecordAck(log->sequencer_path(), positions[i], tags[i]);
                           max_pos = std::max(max_pos, positions[i]);
                         }
                         ok += positions.size();
                       } else {
                         ++failed;
                       }
                       Pump();
                     });
  }
};

std::unique_ptr<zlog::Log> OpenLog(Cluster* cluster, cluster::Client* client,
                                   zlog::LogOptions options) {
  auto log = client->OpenLog(std::move(options));
  bool opened = false;
  log->Open([&](Status) { opened = true; });
  EXPECT_TRUE(cluster->RunUntil([&] { return opened; }));
  return log;
}

struct ScenarioResult {
  std::string trace;
  std::string report;      // cluster invariants + round-trip log acks
  std::string cap_report;  // cached-mode (capability) log acks
  uint64_t ok = 0;
  uint64_t failed = 0;
};

// One full chaos run: 3 mons / 4 OSDs / 2 MDS, two round-trip appenders
// and two cached-mode (capability ping-pong) appenders, faults for 15
// virtual seconds, then heal, settle, and deep-verify both logs.
ScenarioResult RunScenario(uint64_t seed) {
  ClusterOptions options;
  options.num_mons = 3;
  options.num_osds = 4;
  options.num_mds = 2;
  options.osd.replicas = 2;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  options.mon.election_timeout = 1 * sim::kSecond;
  Cluster cluster(options);
  cluster.Boot();

  auto* client_a = cluster.NewClient();
  auto* client_b = cluster.NewClient();
  auto* client_c = cluster.NewClient();
  auto* client_d = cluster.NewClient();
  // The perf report is a client's keepalive: its ack lets a client whose
  // map push was lost in a burst catch up after the heal.
  for (auto* client : {client_a, client_b, client_c, client_d}) {
    client->StartPerfReports(mon::MonClient::kPerfReportPeriod);
  }

  zlog::LogOptions rt;
  rt.name = "chaoslog";
  auto log_a = OpenLog(&cluster, client_a, rt);
  auto log_b = OpenLog(&cluster, client_b, rt);

  zlog::LogOptions cached;
  cached.name = "caplog";
  cached.sequencer_mode = zlog::SequencerMode::kCached;
  cached.lease.mode = mds::LeaseMode::kDelay;
  cached.lease.max_hold_ns = 2 * sim::kSecond;
  auto log_c = OpenLog(&cluster, client_c, cached);
  auto log_d = OpenLog(&cluster, client_d, cached);

  Checkers checkers(&cluster);
  Checkers cap_checkers(&cluster);  // ack bookkeeping for the second log only
  checkers.WatchSequencer(log_a->sequencer_path());
  checkers.WatchSequencer(log_c->sequencer_path());
  checkers.Arm();

  Appender a{&checkers, log_a.get(), "a:"};
  Appender b{&checkers, log_b.get(), "b:"};
  Appender c{&cap_checkers, log_c.get(), "c:"};
  Appender d{&cap_checkers, log_d.get(), "d:"};
  a.Pump();
  b.Pump();
  c.Pump();
  d.Pump();

  FaultPlan plan;
  plan.seed = seed;
  plan.duration = 15 * sim::kSecond;
  plan.mean_interval = 1500 * sim::kMillisecond;
  Runner runner(&cluster, plan);
  runner.on_healed = [&] { checkers.ExpectMapsConverge(); };
  runner.Arm();

  cluster.RunFor(plan.duration + sim::kSecond);
  EXPECT_TRUE(runner.quiescent());
  // Post-heal settle: every OSD finishes its map catch-up, a leader exists.
  EXPECT_TRUE(cluster.RunUntil(
      [&] {
        for (size_t i = 0; i < cluster.num_osds(); ++i) {
          if (cluster.osd(i).rejoining()) {
            return false;
          }
        }
        for (size_t i = 0; i < cluster.num_mons(); ++i) {
          if (cluster.monitor(i).alive() && cluster.monitor(i).IsLeader()) {
            return true;
          }
        }
        return false;
      },
      60 * sim::kSecond));
  cluster.RunFor(3 * sim::kSecond);

  a.stop = b.stop = c.stop = d.stop = true;
  EXPECT_TRUE(cluster.RunUntil(
      [&] { return !a.inflight && !b.inflight && !c.inflight && !d.inflight; },
      120 * sim::kSecond));

  bool verified_rt = false;
  bool verified_cap = false;
  checkers.VerifyLog(log_a.get(), [&] { verified_rt = true; });
  cap_checkers.VerifyLog(log_c.get(), [&] { verified_cap = true; });
  EXPECT_TRUE(cluster.RunUntil([&] { return verified_rt && verified_cap; },
                               300 * sim::kSecond));

  EXPECT_TRUE(checkers.violations().empty()) << checkers.Report() << "\ntrace:\n"
                                             << runner.TraceString();
  EXPECT_TRUE(cap_checkers.violations().empty()) << cap_checkers.Report();
  EXPECT_GT(checkers.samples(), 0u);
  EXPECT_FALSE(runner.events().empty());

  uint64_t total_ok = a.ok + b.ok + c.ok + d.ok;
  uint64_t total_failed = a.failed + b.failed + c.failed + d.failed;
  EXPECT_GT(total_ok, 0u);
  return ScenarioResult{runner.TraceString(), checkers.Report(), cap_checkers.Report(),
                        total_ok, total_failed};
}

// The reproducibility contract: same seed, same cluster options => the
// exact same fault trace, checker output, and workload outcome.
TEST(ChaosDeterminism, SameSeedReplaysIdenticalTrace) {
  ScenarioResult first = RunScenario(7);
  ScenarioResult second = RunScenario(7);
  EXPECT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.cap_report, second.cap_report);
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.failed, second.failed);
}

TEST(ChaosDeterminism, DifferentSeedsDiverge) {
  ScenarioResult first = RunScenario(11);
  ScenarioResult second = RunScenario(12);
  EXPECT_NE(first.trace, second.trace);
}

// Soak: zero invariant violations across seeds. CI fans MAL_CHAOS_SEED
// across a matrix; locally a small built-in set runs.
TEST(ChaosSoak, SeedsProduceNoViolations) {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("MAL_CHAOS_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else {
    seeds = {1, 2, 3};
  }
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunScenario(seed);
  }
}

// §4.3.2 / §5.2.2: the sequencer's batch grants are recorded in the
// durable inode counter *before* the reply leaves the MDS, so a forced
// crash mid-grant must recover with no position ever re-issued.
TEST(ChaosRecovery, MdsCrashMidBatchGrantNeverReusesPositions) {
  ClusterOptions options;
  options.num_osds = 3;
  options.osd.replicas = 2;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  Cluster cluster(options);
  cluster.Boot();

  auto* client = cluster.NewClient();
  // Round-trip batched appends: every window of positions is a
  // kSeqNextBatch grant recorded in the durable inode counter before the
  // reply leaves the MDS.
  zlog::LogOptions rt;
  rt.name = "grants";
  auto log = OpenLog(&cluster, client, rt);

  Checkers checkers(&cluster);
  checkers.WatchSequencer(log->sequencer_path());
  checkers.Arm();

  BatchAppender writer{&checkers, log.get(), "w:"};
  writer.Pump();
  cluster.RunFor(2 * sim::kSecond);
  uint64_t before_crash = writer.ok;
  EXPECT_GT(before_crash, 0u);

  // Crash the MDS while grants are in flight; restart a second later.
  cluster.mds(0).Crash();
  cluster.RunFor(1 * sim::kSecond);
  cluster.mds(0).Recover();

  // The workload must make substantial progress after recovery (the
  // client re-runs CORFU recovery on kAborted and resumes).
  EXPECT_TRUE(cluster.RunUntil([&] { return writer.ok >= before_crash + 200; },
                               120 * sim::kSecond));
  writer.stop = true;
  EXPECT_TRUE(cluster.RunUntil([&] { return !writer.inflight; }, 60 * sim::kSecond));

  // No position acked twice, sequencer tail never regressed.
  EXPECT_TRUE(checkers.violations().empty()) << checkers.Report();

  bool verified = false;
  checkers.VerifyLog(log.get(), [&] { verified = true; });
  EXPECT_TRUE(cluster.RunUntil([&] { return verified; }, 300 * sim::kSecond));
  EXPECT_TRUE(checkers.violations().empty()) << checkers.Report();
  EXPECT_GT(checkers.acked_count(), 0u);

  // The durable counter sits past every position ever acked: re-issued
  // grants after the crash could not have regressed into granted space.
  const auto* inode = cluster.mds(0).GetInode(log->sequencer_path());
  ASSERT_NE(inode, nullptr);
  EXPECT_GE(inode->seq_tail, writer.max_pos + 1);
}

// Duplicate-delivery idempotence: with every message duplicated, a
// replayed zlog.write must never double-commit an entry nor cause its
// kReadOnly replay reply to trick the client into a spurious retry that
// lands the payload at two positions.
TEST(ChaosDuplication, ForcedDuplicationNeverDoubleCommits) {
  ClusterOptions options;
  options.num_osds = 3;
  options.osd.replicas = 2;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();
  zlog::LogOptions rt;
  rt.name = "duplog";
  auto log = OpenLog(&cluster, client, rt);

  sim::FaultSpec dup_everything;
  dup_everything.dup_prob = 1.0;
  cluster.network().SetDefaultFaults(dup_everything);

  Checkers checkers(&cluster);
  const int kAppends = 40;
  for (int i = 0; i < kAppends; ++i) {
    std::string tag = "dup:" + std::to_string(i);
    std::optional<Status> done;
    log->Append(Buffer::FromString(tag), [&, tag](Status status, uint64_t pos) {
      if (status.ok()) {
        checkers.RecordAck(log->sequencer_path(), pos, tag);
      }
      done = status;
    });
    ASSERT_TRUE(cluster.RunUntil([&] { return done.has_value(); }));
    EXPECT_TRUE(done->ok()) << *done;
  }
  EXPECT_GT(cluster.network().chaos_duplicated(), 0u);
  uint64_t suppressed = 0;
  for (size_t i = 0; i < cluster.num_osds(); ++i) {
    suppressed += cluster.osd(i).duplicates_dropped();
  }
  suppressed += cluster.mds(0).duplicates_dropped();
  EXPECT_GT(suppressed, 0u);

  cluster.network().SetDefaultFaults(sim::FaultSpec{});
  // Every ack unique (RecordAck flags double-acks) and durable with the
  // exact payload; every committed entry appears exactly once.
  EXPECT_TRUE(checkers.violations().empty()) << checkers.Report();
  EXPECT_EQ(checkers.acked_count(), static_cast<uint64_t>(kAppends));

  std::optional<uint64_t> tail;
  log->CheckTail([&](Status status, uint64_t t) {
    ASSERT_TRUE(status.ok()) << status;
    tail = t;
  });
  ASSERT_TRUE(cluster.RunUntil([&] { return tail.has_value(); }));
  std::map<std::string, int> occurrences;
  for (uint64_t pos = 0; pos < *tail; ++pos) {
    std::optional<bool> read_done;
    log->Read(pos, [&](Status status, zlog::EntryState state, const Buffer& data) {
      if (status.ok() && state == zlog::EntryState::kData) {
        ++occurrences[data.ToString()];
      }
      read_done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&] { return read_done.has_value(); }));
  }
  for (const auto& [tag, count] : occurrences) {
    EXPECT_EQ(count, 1) << "payload " << tag << " committed " << count << " times";
  }
  EXPECT_EQ(occurrences.size(), static_cast<size_t>(kAppends));

  bool verified = false;
  checkers.VerifyLog(log.get(), [&] { verified = true; });
  EXPECT_TRUE(cluster.RunUntil([&] { return verified; }, 120 * sim::kSecond));
  EXPECT_TRUE(checkers.violations().empty()) << checkers.Report();
}

// Sharded sequencers under chaos: several logs with monitor-published
// ownership on a 2-rank metadata cluster, a live MigrateSequencer under
// traffic, then MDS-crash faults that force clients through the CORFU
// takeover path. The invariants are the paper's migration/failover claim:
// no sequencer tail ever regresses, no inode is lost, and every log's
// committed prefix reads back intact after the cluster heals.
TEST(ChaosShardedSequencers, MigrationAndFailoverPreserveEveryLog) {
  ClusterOptions options;
  options.num_mons = 3;
  options.num_osds = 4;
  options.num_mds = 2;
  options.osd.replicas = 2;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  options.mon.election_timeout = 1 * sim::kSecond;
  options.mds.seq_ownership = true;
  Cluster cluster(options);
  cluster.Boot();

  constexpr int kLogs = 4;
  Checkers checkers(&cluster);
  std::vector<std::unique_ptr<zlog::Log>> logs;
  std::vector<std::unique_ptr<Appender>> appenders;
  for (int i = 0; i < kLogs; ++i) {
    auto* client = cluster.NewClient();
    zlog::LogOptions rt;
    rt.name = "shard" + std::to_string(i);
    logs.push_back(OpenLog(&cluster, client, rt));
    checkers.WatchSequencer(logs.back()->sequencer_path());
    auto appender = std::make_unique<Appender>();
    appender->checkers = &checkers;
    appender->log = logs.back().get();
    appender->prefix = "s" + std::to_string(i) + ":";
    appenders.push_back(std::move(appender));
  }
  checkers.Arm();
  for (auto& appender : appenders) {
    appender->Pump();
  }
  cluster.RunFor(2 * sim::kSecond);

  // Hot-log migration under live traffic: move log 0's sequencer from its
  // birth rank to the other rank without dropping a grant.
  std::optional<Status> migrated;
  cluster.mds(0).MigrateSequencer(logs[0]->sequencer_path(), 1,
                                  [&](Status s) { migrated = s; });
  EXPECT_TRUE(cluster.RunUntil([&] { return migrated.has_value(); }));
  EXPECT_TRUE(migrated->ok()) << *migrated;

  // MDS-only fault schedule: crash owning ranks so clients must run the
  // seal-and-takeover failover, repeatedly.
  FaultPlan plan;
  plan.seed = 23;
  plan.duration = 10 * sim::kSecond;
  plan.mean_interval = 1500 * sim::kMillisecond;
  plan.w_osd_crash = 0;
  plan.w_mon_crash = 0;
  plan.w_leader_crash = 0;
  plan.w_partition = 0;
  plan.w_burst = 0;
  Runner runner(&cluster, plan);
  runner.on_healed = [&] { checkers.ExpectMapsConverge(); };
  runner.Arm();
  cluster.RunFor(plan.duration + sim::kSecond);
  EXPECT_TRUE(runner.quiescent());
  cluster.RunFor(3 * sim::kSecond);

  for (auto& appender : appenders) {
    appender->stop = true;
  }
  EXPECT_TRUE(cluster.RunUntil(
      [&] {
        for (auto& appender : appenders) {
          if (appender->inflight) {
            return false;
          }
        }
        return true;
      },
      120 * sim::kSecond));

  // Post-heal deep verify, one scan per log against its own ack map.
  int verified = 0;
  for (int i = 0; i < kLogs; ++i) {
    checkers.VerifyLog(logs[i].get(), [&] { ++verified; });
  }
  EXPECT_TRUE(cluster.RunUntil([&] { return verified == kLogs; }, 300 * sim::kSecond));

  EXPECT_TRUE(checkers.violations().empty()) << checkers.Report();
  EXPECT_GT(checkers.samples(), 0u);
  uint64_t total_ok = 0;
  for (auto& appender : appenders) {
    total_ok += appender->ok;
  }
  EXPECT_GT(total_ok, 0u);
}

// -- Erasure-coded pools under chaos -----------------------------------------

// Write-once EC workload: each write targets a fresh object, so a failed
// (unacked) write can never supersede an acked generation of the same
// object — the checkers then demand every acked object back, bit-exact.
struct EcWriter {
  Checkers* checkers = nullptr;
  ec::Pool* pool = nullptr;
  uint64_t next = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  bool inflight = false;

  void StartOne() {
    inflight = true;
    std::string object = "obj" + std::to_string(next++);
    std::string payload =
        object + ": erasure-coded payload that spans all k+1 shards with room "
                 "for the codec to stripe and pad";
    pool->Write(object, Buffer::FromString(payload),
                [this, object, payload](Status status) {
                  if (status.ok()) {
                    ++ok;
                    checkers->RecordEcAck(pool->name(), object, payload);
                  } else {
                    ++failed;
                  }
                  inflight = false;
                });
  }
};

struct EcScenarioResult {
  std::string trace;
  std::string report;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint32_t missing_shards = 0;
};

// EC chaos run: an 8-OSD cluster with a k=3 pool, a paced write-once
// workload, the scrub agent healing in the background, and a fault plan
// that includes the robustness classes (permanent OSD loss, silent shard
// corruption) alongside crashes and partitions. After heal + two clean
// scrub passes, every acked object must read back exactly and every acked
// shard slot must be checksum-valid on its canonical home.
EcScenarioResult RunEcScenario(uint64_t seed) {
  ClusterOptions options;
  options.num_mons = 3;
  options.num_osds = 8;
  options.num_mds = 1;
  options.osd.replicas = 3;
  // Fast monitor failover everywhere: with the default 5s per-attempt RPC
  // timeout, one dead monitor stalls kOsdFail commits and OSD map catch-up
  // for longer than the scrubber's repair window between damage faults.
  options.osd.mon_request_timeout = 1 * sim::kSecond;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  options.mon.election_timeout = 1 * sim::kSecond;
  Cluster cluster(options);
  cluster.Boot();

  auto* client = cluster.NewClient();
  client->rados.mon_client().set_request_timeout(1 * sim::kSecond);
  client->StartPerfReports(mon::MonClient::kPerfReportPeriod);
  const uint32_t k = 3;
  std::optional<Status> created;
  ec::Pool::Create(&client->rados, "ecchaos", mon::PoolLayout::Erasure(k),
                   [&](Status s) { created = s; });
  EXPECT_TRUE(cluster.RunUntil([&] { return created.has_value(); }));
  EXPECT_TRUE(created->ok()) << *created;
  auto pool = ec::Pool::Bind(&client->rados, "ecchaos");
  EXPECT_TRUE(pool.has_value());

  Checkers checkers(&cluster);
  checkers.Arm();

  // Scrub paced fast enough to walk the whole pool between faults.
  scrub::ScrubConfig scrub_config;
  scrub_config.interval = 200 * sim::kMillisecond;
  scrub_config.objects_per_tick = 8;
  auto* agent = cluster.NewScrubAgent(scrub_config);
  agent->rados().mon_client().set_request_timeout(1 * sim::kSecond);

  FaultPlan plan;
  plan.seed = seed;
  plan.duration = 12 * sim::kSecond;
  plan.mean_interval = 1500 * sim::kMillisecond;
  plan.w_mds_crash = 0.2;  // EC path has no MDS dependency
  plan.w_osd_perm_loss = 2.0;
  plan.w_shard_corrupt = 2.5;
  plan.mon_request_timeout = 1 * sim::kSecond;
  Runner runner(&cluster, plan);
  runner.on_healed = [&] { checkers.ExpectMapsConverge(); };
  runner.Arm();

  // Paced writer: one fresh object every 200 ms while faults rain.
  EcWriter writer{&checkers, &*pool};
  for (int step = 0; step < 60; ++step) {
    if (!writer.inflight) {
      writer.StartOne();
    }
    cluster.RunFor(200 * sim::kMillisecond);
  }
  cluster.RunFor(plan.duration + sim::kSecond);
  EXPECT_TRUE(runner.quiescent());
  EXPECT_TRUE(cluster.RunUntil(
      [&] {
        for (size_t i = 0; i < cluster.num_osds(); ++i) {
          if (cluster.osd(i).alive() && cluster.osd(i).rejoining()) {
            return false;
          }
        }
        return true;
      },
      60 * sim::kSecond));
  EXPECT_TRUE(
      cluster.RunUntil([&] { return !writer.inflight; }, 120 * sim::kSecond));

  // Two more full scrub passes: the first repairs anything the faults
  // left degraded, the second must come back clean.
  uint64_t base = agent->passes_completed();
  EXPECT_TRUE(cluster.RunUntil([&] { return agent->passes_completed() >= base + 2; },
                               120 * sim::kSecond));
  // Note: last_pass_degraded() may stay non-zero here — a torn unacked
  // write can commit fewer than k shards, leaving debris scrub reports
  // (correctly) as unrecoverable. The invariants below are about acked
  // data only.

  bool verified = false;
  checkers.VerifyEcPool(&*pool, [&] { verified = true; });
  EXPECT_TRUE(cluster.RunUntil([&] { return verified; }, 300 * sim::kSecond));
  EXPECT_TRUE(checkers.violations().empty())
      << checkers.Report() << "\ntrace:\n"
      << runner.TraceString();

  uint32_t missing = checkers.EcMissingShards("ecchaos", k);
  EXPECT_EQ(missing, 0u) << "scrub left " << missing << " shard slots unhealed";
  EXPECT_GT(writer.ok, 0u);
  EXPECT_FALSE(runner.events().empty());

  return EcScenarioResult{runner.TraceString(), checkers.Report(), writer.ok,
                          writer.failed, missing};
}

TEST(ChaosEc, SameSeedReplaysIdenticalTrace) {
  EcScenarioResult first = RunEcScenario(5);
  EcScenarioResult second = RunEcScenario(5);
  EXPECT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.failed, second.failed);
}

// Soak across seeds: permanent losses and bit-rot rain on the pool, yet no
// acked byte is lost and scrub restores full k+1 redundancy every time.
// CI fans MAL_CHAOS_SEED across a matrix; locally a built-in set runs.
TEST(ChaosEcSoak, SeedsLoseNoAckedDataAndRestoreRedundancy) {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("MAL_CHAOS_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else {
    seeds = {1, 2, 3};
  }
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunEcScenario(seed);
  }
}

}  // namespace
}  // namespace mal::chaos
