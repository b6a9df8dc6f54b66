// Erasure-coded pool bench: storage overhead, degraded-read penalty, and
// self-healing rebuild throughput (paper §4.4: "RADOS protects data using
// common techniques such as erasure coding, replication, and scrubbing").
//
// For each object-count point the bench runs a fresh cluster and measures:
//   - storage overhead: stored bytes / logical bytes for an EC k=3 pool
//     (its shards, nothing else) against a 3-way replicated pool;
//   - write latency: an EC write is the k+1 shard transactions, one round
//     trip, so it costs about what a healthy read does;
//   - read latency: the same objects read healthy, then degraded (one OSD
//     permanently lost, map updated, scrub not yet run) — every degraded
//     read decodes around the missing shard, deciding on the first k
//     agreeing shards instead of waiting for the lost one's new home;
//   - rebuild: virtual time for the scrub agent to re-encode every lost
//     shard back to full k+1 redundancy, and the resulting rebuild rate.
// Deterministic in virtual time: same build, same numbers (wall_* fields
// are the only host-dependent outputs).
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/chaos/chaos.h"
#include "src/scrub/agent.h"

namespace mal {
namespace {

using bench::JsonReporter;
using bench::PrintColumns;
using bench::PrintHeader;
using bench::PrintSection;
using bench::ShapeCheck;

constexpr uint32_t kK = 3;                  // EC data shards (k+1 stored)
constexpr uint32_t kReplicas = 3;           // replicated pool width
constexpr size_t kObjectBytes = 4096;

struct PointResult {
  double logical_mb = 0;
  double ec_stored_mb = 0;
  double rep_stored_mb = 0;
  Histogram ec_write_us;
  Histogram read_us;
  Histogram degraded_read_us;
  uint64_t degraded_reads = 0;
  uint64_t reads_failed = 0;
  uint64_t shards_lost = 0;
  uint64_t shards_rebuilt = 0;
  double rebuild_mb = 0;
  double rebuild_ms = 0;
  uint32_t missing_after = 0;
};

uint64_t StoredBytes(cluster::Cluster* cluster) {
  uint64_t total = 0;
  for (size_t i = 0; i < cluster->num_osds(); ++i) {
    total += cluster->osd(i).store().bytes_used();
  }
  return total;
}

std::string PayloadFor(int index) {
  std::string payload = "ecbench-" + std::to_string(index) + ":";
  while (payload.size() < kObjectBytes) {
    payload.push_back(static_cast<char>('a' + (payload.size() * 31 + index) % 26));
  }
  return payload;
}

PointResult RunPoint(int num_objects) {
  cluster::ClusterOptions options;
  options.num_mons = 3;
  options.num_osds = 6;
  options.num_mds = 1;
  options.osd.replicas = kReplicas;
  // Fast monitor failover (see OsdConfig::mon_request_timeout): the rebuild
  // clock starts the moment the OSD is declared lost, so map updates must
  // not stall behind the default 5s per-attempt monitor RPC timeout.
  options.osd.mon_request_timeout = 1 * sim::kSecond;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();

  auto* client = cluster.NewClient();
  client->rados.mon_client().set_request_timeout(1 * sim::kSecond);
  client->rados.set_perf(&client->perf);

  auto await = [&cluster](std::optional<Status>* done) {
    cluster.RunUntil([&] { return done->has_value(); }, 300 * sim::kSecond);
    bool ok = done->has_value() && (*done)->ok();
    done->reset();
    return ok;
  };

  std::optional<Status> done;
  ec::Pool::Create(&client->rados, "ecbench", mon::PoolLayout::Erasure(kK),
                   [&](Status s) { done = s; });
  if (!await(&done)) {
    return {};
  }
  ec::Pool::Create(&client->rados, "repbench", mon::PoolLayout::Replicated(kReplicas),
                   [&](Status s) { done = s; });
  if (!await(&done)) {
    return {};
  }
  auto pool = ec::Pool::Bind(&client->rados, "ecbench");
  if (!pool.has_value()) {
    return {};
  }

  chaos::Checkers checkers(&cluster);

  PointResult r;
  r.logical_mb = static_cast<double>(num_objects) * kObjectBytes / 1e6;

  // -- storage overhead -------------------------------------------------------
  uint64_t base_bytes = StoredBytes(&cluster);
  for (int i = 0; i < num_objects; ++i) {
    std::string payload = PayloadFor(i);
    sim::Time start = cluster.simulator().Now();
    pool->Write("obj" + std::to_string(i), Buffer::FromString(payload),
                [&](Status s) { done = s; });
    if (!await(&done)) {
      return r;
    }
    r.ec_write_us.Add(static_cast<double>(cluster.simulator().Now() - start) / 1e3);
    checkers.RecordEcAck("ecbench", "obj" + std::to_string(i), payload);
  }
  uint64_t ec_bytes = StoredBytes(&cluster);
  for (int i = 0; i < num_objects; ++i) {
    client->rados.WriteFull("repbench/obj" + std::to_string(i),
                            Buffer::FromString(PayloadFor(i)),
                            [&](Status s) { done = s; });
    if (!await(&done)) {
      return r;
    }
  }
  uint64_t rep_bytes = StoredBytes(&cluster);
  r.ec_stored_mb = static_cast<double>(ec_bytes - base_bytes) / 1e6;
  r.rep_stored_mb = static_cast<double>(rep_bytes - ec_bytes) / 1e6;

  // -- healthy reads ----------------------------------------------------------
  auto read_all = [&](Histogram* latency) {
    for (int i = 0; i < num_objects; ++i) {
      sim::Time start = cluster.simulator().Now();
      std::optional<Status> read_done;
      pool->Read("obj" + std::to_string(i), [&](Status s, const Buffer& data) {
        if (s.ok() && data.ToString() != PayloadFor(i)) {
          s = Status::DataLoss("payload mismatch");
        }
        read_done = s;
      });
      cluster.RunUntil([&] { return read_done.has_value(); }, 300 * sim::kSecond);
      if (!read_done.has_value() || !read_done->ok()) {
        ++r.reads_failed;
        continue;
      }
      latency->Add(static_cast<double>(cluster.simulator().Now() - start) / 1e3);
    }
  };
  read_all(&r.read_us);

  // -- permanent loss ---------------------------------------------------------
  // Deterministic victim: the OSD holding the most EC shards (lowest id on
  // ties), so the loss always strands at least one shard.
  uint32_t victim = 0;
  uint64_t victim_shards = 0;
  for (size_t o = 0; o < cluster.num_osds(); ++o) {
    uint64_t shards = 0;
    for (const std::string& oid : cluster.osd(o).store().List()) {
      if (oid.rfind("ecbench/", 0) == 0 && oid.find(".shard") != std::string::npos) {
        ++shards;
      }
    }
    if (shards > victim_shards) {
      victim_shards = shards;
      victim = static_cast<uint32_t>(o);
    }
  }
  r.shards_lost = victim_shards;
  cluster.osd(victim).Crash();
  cluster.osd(victim).store().Clear();
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = victim;
  client->rados.mon_client().SubmitTransaction(fail, [&](Status s) { done = s; });
  if (!await(&done)) {
    return r;
  }
  client->rados.RefreshMap([&](Status s) { done = s; });
  if (!await(&done)) {
    return r;
  }

  // -- degraded reads ---------------------------------------------------------
  uint64_t degraded_before = client->perf.counter("rados.ec.degraded_reads");
  read_all(&r.degraded_read_us);
  // A read answers on its first k agreeing shards and counts its hole when
  // the last reply lands: let the final read's straggler land.
  cluster.RunFor(100 * sim::kMillisecond);
  r.degraded_reads = client->perf.counter("rados.ec.degraded_reads") - degraded_before;

  // -- rebuild ----------------------------------------------------------------
  scrub::ScrubConfig scrub_config;
  scrub_config.interval = 100 * sim::kMillisecond;
  scrub_config.objects_per_tick = 8;
  auto* agent = cluster.NewScrubAgent(scrub_config);
  agent->rados().mon_client().set_request_timeout(1 * sim::kSecond);
  sim::Time rebuild_start = cluster.simulator().Now();
  cluster.RunUntil(
      [&] {
        return agent->passes_completed() > 0 &&
               checkers.EcMissingShards("ecbench", kK) == 0;
      },
      600 * sim::kSecond);
  r.rebuild_ms =
      static_cast<double>(cluster.simulator().Now() - rebuild_start) / 1e6;
  r.shards_rebuilt = agent->perf().counter("scrub.shards_rebuilt");
  r.rebuild_mb = static_cast<double>(agent->perf().counter("scrub.bytes_rebuilt")) / 1e6;
  r.missing_after = checkers.EcMissingShards("ecbench", kK);
  return r;
}

}  // namespace
}  // namespace mal

int main(int argc, char** argv) {
  using namespace mal;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    }
  }

  PrintHeader(
      "EC pools: storage overhead, degraded reads, self-healing rebuild",
      "Writes 4 KiB objects into an EC k=3 pool and a 3-way replicated pool, "
      "then permanently loses the shard-heaviest OSD: reads decode around the "
      "missing shard (degraded) until the scrub agent re-encodes every lost "
      "shard back to full k+1 redundancy on the surviving OSDs.");
  PrintColumns({"objects", "ec_overhead", "rep_overhead", "read_us_p50",
                "degraded_us_p50", "rebuild_ms", "rebuilt"});

  JsonReporter json("ec_rebuild");
  bool ok = true;
  std::vector<int> points = small ? std::vector<int>{8} : std::vector<int>{16, 64};
  for (int n : points) {
    PointResult r = RunPoint(n);
    double ec_overhead = r.logical_mb > 0 ? r.ec_stored_mb / r.logical_mb : 0;
    double rep_overhead = r.logical_mb > 0 ? r.rep_stored_mb / r.logical_mb : 0;
    std::printf("%d\t%.3f\t%.3f\t%.1f\t%.1f\t%.1f\t%llu\n", n, ec_overhead,
                rep_overhead, r.read_us.Quantile(0.50),
                r.degraded_read_us.Quantile(0.50), r.rebuild_ms,
                static_cast<unsigned long long>(r.shards_rebuilt));
    std::vector<std::pair<std::string, double>> metrics = {
        {"objects", static_cast<double>(n)},
        {"logical_mb", r.logical_mb},
        {"ec_stored_mb", r.ec_stored_mb},
        {"rep_stored_mb", r.rep_stored_mb},
        {"ec_overhead", ec_overhead},
        {"rep_overhead", rep_overhead},
        {"degraded_reads", static_cast<double>(r.degraded_reads)},
        {"reads_failed", static_cast<double>(r.reads_failed)},
        {"shards_lost", static_cast<double>(r.shards_lost)},
        {"shards_rebuilt", static_cast<double>(r.shards_rebuilt)},
        {"rebuild_ms", r.rebuild_ms},
        {"rebuild_mb", r.rebuild_mb},
        {"rebuild_mb_per_s",
         r.rebuild_ms > 0 ? r.rebuild_mb / (r.rebuild_ms / 1e3) : 0},
        {"missing_after_rebuild", static_cast<double>(r.missing_after)},
    };
    JsonReporter::AppendLatency(&metrics, r.ec_write_us, "ec_write_us");
    JsonReporter::AppendLatency(&metrics, r.read_us, "read_us");
    JsonReporter::AppendLatency(&metrics, r.degraded_read_us, "degraded_read_us");
    std::string name = "n" + std::to_string(n);
    json.Add(name, std::move(metrics), /*events=*/static_cast<double>(n) * 4);

    ok &= ShapeCheck(name + ": EC stores cheaper than replication",
                     ec_overhead > 0 && ec_overhead < rep_overhead);
    ok &= ShapeCheck(name + ": EC overhead near (k+1)/k",
                     ec_overhead > 1.2 && ec_overhead < 1.7);
    ok &= ShapeCheck(name + ": no read failed (healthy or degraded)",
                     r.reads_failed == 0);
    ok &= ShapeCheck(name + ": degraded reads decoded around the loss",
                     r.degraded_reads > 0);
    // A degraded shard costs its new home one round of pulls to every up
    // OSD (all miss), not one round trip per OSD.
    ok &= ShapeCheck(name + ": degraded read p50 <= 2.5x healthy p50",
                     r.degraded_read_us.Quantile(0.50) <= 2.5 * r.read_us.Quantile(0.50));
    // Only the lost shard position moves, and a read decides on the first
    // k agreeing shards, so it never waits for that sweep at all.
    ok &= ShapeCheck(name + ": degraded read p50 <= 1.25x healthy p50",
                     r.degraded_read_us.Quantile(0.50) <= 1.25 * r.read_us.Quantile(0.50));
    // The k+1 single-copy shard writes go out at once and nothing else
    // rides with them, so a write is one round trip like a read.
    ok &= ShapeCheck(name + ": EC write p50 <= 1.25x healthy read p50",
                     r.ec_write_us.Quantile(0.50) <= 1.25 * r.read_us.Quantile(0.50));
    ok &= ShapeCheck(name + ": scrub restored full redundancy",
                     r.missing_after == 0 && r.rebuild_ms > 0);
    ok &= ShapeCheck(name + ": every lost shard rebuilt",
                     r.shards_rebuilt >= r.shards_lost && r.shards_lost > 0);
  }

  PrintSection("shape checks");
  json.Write();
  return ok ? 0 : 1;
}
