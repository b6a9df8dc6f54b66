// Chaos soak bench: availability and recovery latency under seeded fault
// schedules. Runs the full chaos engine (crash/restart cycles, partitions,
// loss/dup/reorder bursts) against a live cluster with ZLog round-trip and
// cached-capability append workloads, then reports
//   - availability: appends acked vs failed vs shed while faults rain;
//   - recovery latency per fault class (heal -> cluster functional), mean
//     and p99 in milliseconds;
//   - invariant checker verdict (any violation fails the bench).
// Deterministic in virtual time: same build, same numbers (wall_* fields
// are the only host-dependent outputs).
#include <cstdio>
#include <map>
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

struct Workload {
  chaos::Checkers* checkers = nullptr;
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

struct SoakResult {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t violations = 0;
  uint64_t chaos_events = 0;
  // Fault class -> recovery latency samples (ms).
  std::map<std::string, Histogram> recovery_ms;
};

// The fault classes every record reports, present or not, so the JSON
// shape is stable across seeds and plans.
const char* kFaultClasses[] = {"osd_crash",     "mds_crash", "mon_crash",
                               "leader_crash",  "partition", "burst",
                               "osd_perm_loss", "shard_corrupt"};

SoakResult RunSoak(const chaos::FaultPlan& plan) {
  cluster::ClusterOptions options;
  options.num_mons = 3;
  options.num_osds = 4;
  options.num_mds = 2;
  options.osd.replicas = 2;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  options.mon.election_timeout = 1 * sim::kSecond;
  cluster::Cluster cluster(options);
  cluster.Boot();

  auto open = [&cluster](cluster::Client* client, zlog::LogOptions log_options) {
    auto log = client->OpenLog(std::move(log_options));
    bool opened = false;
    log->Open([&](Status) { opened = true; });
    cluster.RunUntil([&] { return opened; });
    return log;
  };

  auto* client_a = cluster.NewClient();
  auto* client_b = cluster.NewClient();
  zlog::LogOptions rt;
  rt.name = "soaklog";
  auto log_a = open(client_a, rt);

  zlog::LogOptions cached;
  cached.name = "soakcap";
  cached.sequencer_mode = zlog::SequencerMode::kCached;
  cached.lease.mode = mds::LeaseMode::kDelay;
  cached.lease.max_hold_ns = 2 * sim::kSecond;
  auto log_b = open(client_b, cached);

  chaos::Checkers checkers(&cluster);
  chaos::Checkers cap_checkers(&cluster);
  checkers.WatchSequencer(log_a->sequencer_path());
  checkers.WatchSequencer(log_b->sequencer_path());
  checkers.Arm();

  Workload wa{&checkers, log_a.get(), "rt:"};
  Workload wb{&cap_checkers, log_b.get(), "cap:"};
  wa.Pump();
  wb.Pump();

  chaos::Runner runner(&cluster, plan);
  runner.Arm();
  cluster.RunFor(plan.duration + sim::kSecond);
  cluster.RunUntil(
      [&] {
        for (size_t i = 0; i < cluster.num_osds(); ++i) {
          if (cluster.osd(i).rejoining()) {
            return false;
          }
        }
        return runner.quiescent();
      },
      60 * sim::kSecond);
  cluster.RunFor(3 * sim::kSecond);
  wa.stop = wb.stop = true;
  cluster.RunUntil([&] { return !wa.inflight && !wb.inflight; }, 120 * sim::kSecond);

  bool verified_a = false;
  bool verified_b = false;
  checkers.VerifyLog(log_a.get(), [&] { verified_a = true; });
  cap_checkers.VerifyLog(log_b.get(), [&] { verified_b = true; });
  cluster.RunUntil([&] { return verified_a && verified_b; }, 300 * sim::kSecond);

  SoakResult result;
  result.ok = wa.ok + wb.ok;
  result.failed = wa.failed + wb.failed;
  for (size_t i = 0; i < cluster.num_mons(); ++i) {
    result.shed += cluster.monitor(i).shed_total();
  }
  for (size_t i = 0; i < cluster.num_osds(); ++i) {
    result.shed += cluster.osd(i).shed_total();
  }
  for (size_t i = 0; i < cluster.num_mds(); ++i) {
    result.shed += cluster.mds(i).shed_total();
  }
  result.violations = checkers.violations().size() + cap_checkers.violations().size();
  result.chaos_events = runner.events().size();
  for (const auto& [cls, samples] : runner.recovery_ns()) {
    Histogram& h = result.recovery_ms[cls];
    for (sim::Time ns : samples) {
      h.Add(static_cast<double>(ns) / 1e6);
    }
  }
  if (result.violations > 0) {
    std::fprintf(stderr, "checker report:\n%s%s", checkers.Report().c_str(),
                 cap_checkers.Report().c_str());
  }
  return result;
}

// EC robustness soak: an erasure-coded pool under permanent OSD loss and
// silent shard corruption (plus crashes), with the scrub agent healing in
// the background. The workload is a paced EC object writer; the verdict
// adds the EC invariants — every acked object reads back exactly, and
// scrub restores full k+1 redundancy — on top of the usual checkers.
SoakResult RunEcSoak(const chaos::FaultPlan& plan) {
  cluster::ClusterOptions options;
  options.num_mons = 3;
  options.num_osds = 8;
  options.num_mds = 1;
  options.osd.replicas = 3;
  options.osd.mon_request_timeout = 1 * sim::kSecond;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  options.mon.election_timeout = 1 * sim::kSecond;
  cluster::Cluster cluster(options);
  cluster.Boot();

  auto* client = cluster.NewClient();
  client->rados.mon_client().set_request_timeout(1 * sim::kSecond);
  const uint32_t k = 3;
  std::optional<Status> created;
  ec::Pool::Create(&client->rados, "ecsoak", mon::PoolLayout::Erasure(k),
                   [&](Status s) { created = s; });
  cluster.RunUntil([&] { return created.has_value() && created->ok(); });
  auto pool = ec::Pool::Bind(&client->rados, "ecsoak");
  if (!pool.has_value()) {
    return {};
  }

  chaos::Checkers checkers(&cluster);
  checkers.Arm();

  scrub::ScrubConfig scrub_config;
  scrub_config.interval = 200 * sim::kMillisecond;
  scrub_config.objects_per_tick = 8;
  auto* agent = cluster.NewScrubAgent(scrub_config);
  agent->rados().mon_client().set_request_timeout(1 * sim::kSecond);

  chaos::Runner runner(&cluster, plan);
  runner.Arm();

  // Paced writer: a fresh EC object every 200 ms while faults rain.
  uint64_t ok_writes = 0;
  uint64_t failed_writes = 0;
  uint64_t next_object = 0;
  bool inflight = false;
  for (int step = 0; step < 60; ++step) {
    if (!inflight) {
      inflight = true;
      std::string object = "obj" + std::to_string(next_object++);
      std::string payload = "soak:" + object + std::string(512, 'x');
      pool->Write(object, Buffer::FromString(payload),
                  [&, object, payload](Status s) {
                    inflight = false;
                    if (s.ok()) {
                      ++ok_writes;
                      checkers.RecordEcAck("ecsoak", object, payload);
                    } else {
                      ++failed_writes;
                    }
                  });
    }
    cluster.RunFor(200 * sim::kMillisecond);
  }
  cluster.RunFor(plan.duration + sim::kSecond);
  cluster.RunUntil([&] { return runner.quiescent() && !inflight; },
                   120 * sim::kSecond);

  // Post-heal: two clean scrub passes, then the EC invariants.
  uint64_t base = agent->passes_completed();
  cluster.RunUntil([&] { return agent->passes_completed() >= base + 2; },
                   120 * sim::kSecond);
  bool verified = false;
  checkers.VerifyEcPool(&*pool, [&] { verified = true; });
  cluster.RunUntil([&] { return verified; }, 300 * sim::kSecond);

  SoakResult result;
  result.ok = ok_writes;
  result.failed = failed_writes;
  result.violations = checkers.violations().size() +
                      checkers.EcMissingShards("ecsoak", k);
  result.chaos_events = runner.events().size();
  for (const auto& [cls, samples] : runner.recovery_ns()) {
    Histogram& h = result.recovery_ms[cls];
    for (sim::Time ns : samples) {
      h.Add(static_cast<double>(ns) / 1e6);
    }
  }
  if (!checkers.violations().empty()) {
    std::fprintf(stderr, "checker report:\n%s", checkers.Report().c_str());
  }
  return result;
}

}  // namespace
}  // namespace mal

int main() {
  using namespace mal;
  bench::PrintHeader(
      "Chaos soak: availability + recovery latency under seeded faults",
      "30 virtual seconds of randomized crash/restart (OSD, MDS, monitor "
      "incl. Paxos leader), half-partitions, and loss/dup/reorder bursts "
      "against ZLog round-trip + cached-cap append workloads. Cluster-wide "
      "invariants checked throughout; any violation fails the bench.");
  PrintColumns({"config", "ops_ok", "ops_failed", "availability", "chaos_events",
                "violations"});

  JsonReporter json("chaos_soak");
  bool ok = true;
  uint64_t total_violations = 0;

  auto run_plan = [&](const std::string& name, const chaos::FaultPlan& plan,
                      SoakResult (*soak)(const chaos::FaultPlan&) = &RunSoak) {
    SoakResult r = soak(plan);
    double total_ops = static_cast<double>(r.ok + r.failed);
    double availability = total_ops > 0 ? static_cast<double>(r.ok) / total_ops : 0;
    std::printf("%s\t%llu\t%llu\t%.4f\t%llu\t%llu\n", name.c_str(),
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.failed), availability,
                static_cast<unsigned long long>(r.chaos_events),
                static_cast<unsigned long long>(r.violations));
    std::vector<std::pair<std::string, double>> metrics = {
        {"ops_ok", static_cast<double>(r.ok)},
        {"ops_failed", static_cast<double>(r.failed)},
        {"ops_shed", static_cast<double>(r.shed)},
        {"availability", availability},
        {"chaos_events", static_cast<double>(r.chaos_events)},
        {"violations", static_cast<double>(r.violations)},
    };
    for (const char* cls : kFaultClasses) {
      auto it = r.recovery_ms.find(cls);
      double count = 0;
      double mean = 0;
      double p99 = 0;
      if (it != r.recovery_ms.end() && it->second.count() > 0) {
        count = static_cast<double>(it->second.count());
        mean = it->second.mean();
        p99 = it->second.Quantile(0.99);
      }
      std::string prefix(cls);
      metrics.emplace_back(prefix + "_recoveries", count);
      metrics.emplace_back(prefix + "_recovery_ms_mean", mean);
      metrics.emplace_back(prefix + "_recovery_ms_p99", p99);
      if (count > 0) {
        std::printf("  recovery %-13s n=%.0f mean=%.1fms p99=%.1fms\n", cls, count,
                    mean, p99);
      }
    }
    json.Add(name, std::move(metrics), /*events=*/total_ops);
    total_violations += r.violations;
    ok &= ShapeCheck(name + ": zero invariant violations", r.violations == 0);
    ok &= ShapeCheck(name + ": some faults injected", r.chaos_events > 0);
    ok &= ShapeCheck(name + ": availability above 0.5", availability > 0.5);
  };

  chaos::FaultPlan mixed;
  mixed.seed = 1;
  mixed.duration = 30 * sim::kSecond;
  mixed.mean_interval = 1500 * sim::kMillisecond;
  run_plan("mixed(seed=1)", mixed);

  chaos::FaultPlan crashy = mixed;
  crashy.seed = 2;
  crashy.w_partition = 0.2;
  crashy.w_burst = 0.2;
  crashy.w_leader_crash = 2.0;
  run_plan("crash-heavy(seed=2)", crashy);

  chaos::FaultPlan network = mixed;
  network.seed = 3;
  network.w_osd_crash = 0.2;
  network.w_mds_crash = 0.2;
  network.w_mon_crash = 0.2;
  network.w_leader_crash = 0.2;
  network.burst.loss_prob = 0.10;
  network.burst.dup_prob = 0.10;
  run_plan("network-heavy(seed=3)", network);

  // EC robustness: permanent OSD loss + silent shard corruption against an
  // erasure-coded pool, with background scrub healing (see RunEcSoak).
  chaos::FaultPlan ec;
  ec.seed = 4;
  ec.duration = 12 * sim::kSecond;
  ec.mean_interval = 1500 * sim::kMillisecond;
  ec.w_mds_crash = 0.2;
  ec.w_osd_perm_loss = 2.0;
  ec.w_shard_corrupt = 2.5;
  ec.mon_request_timeout = 1 * sim::kSecond;
  run_plan("ec-robustness(seed=4)", ec, &RunEcSoak);

  PrintSection("shape checks");
  ok &= ShapeCheck("no violations across all plans", total_violations == 0);
  json.Write();
  return ok ? 0 : 1;
}
