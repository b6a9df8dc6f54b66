// Multi-log CORFU at scale: sharded sequencer ownership across MDS ranks
// (the PR-9 tentpole). Three sections, all emitted to BENCH_multilog.json:
//
//   1. mds_scaling   — many sequencer inodes (Zipf-skewed traffic) spread
//                      round-robin over 1/2/4 metadata ranks through the
//                      two-phase handoff. Published owners answer grants
//                      without the root-anchored coherence tax, so the
//                      aggregate grant rate must scale near-linearly with
//                      rank count.
//   2. mantle_hotlog — a MalScript policy reads the per-inode sequencer
//                      load table (mds[i]["seq"][path]) that SnapshotLoad
//                      exports and sheds the hottest logs from the birth
//                      rank; the balancer routes sequencer paths through
//                      MigrateSequencer automatically.
//   3. failover      — live migration under append traffic, then a crash
//                      of an owning rank with no restart: clients detect
//                      the dead owner, seal at a bumped epoch, and install
//                      the recovered tail on the survivor (CORFU takeover).
//                      Each orphaned log must resume inside a latency
//                      budget, and a post-heal VerifyLog on every log must
//                      find every acked append intact.
//
// `--small` shrinks every section for CI (same checks, smaller totals).
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/chaos/chaos.h"
#include "src/cluster/cluster.h"
#include "src/cluster/workload.h"
#include "src/mantle/mantle.h"
#include "src/mon/maps.h"

namespace {

using namespace mal;
using namespace mal::bench;

std::vector<std::string> MakeLogPaths(int count) {
  std::vector<std::string> paths;
  paths.reserve(count);
  for (int i = 0; i < count; ++i) {
    paths.push_back("/zlog/log" + std::to_string(i) + "/seq");
  }
  return paths;
}

// Creates `paths` as round-trip sequencers on the admin client's home rank
// and (when num_mds > 1) spreads them round-robin over all ranks through
// the two-phase handoff. Returns false on any failure.
bool CreateAndSpread(cluster::Cluster* cluster, cluster::Client* admin,
                     const std::vector<std::string>& paths) {
  mds::LeasePolicy round_trip;
  round_trip.mode = mds::LeaseMode::kRoundTrip;
  for (const std::string& path : paths) {
    mal::Status created = cluster::CreateSequencer(cluster, admin, path, round_trip);
    if (!created.ok()) {
      std::fprintf(stderr, "create %s failed: %s\n", path.c_str(),
                   created.ToString().c_str());
      return false;
    }
  }
  const uint32_t num_mds = static_cast<uint32_t>(cluster->num_mds());
  if (num_mds <= 1) {
    return true;
  }
  int outstanding = 0;
  bool failed = false;
  for (size_t i = 0; i < paths.size(); ++i) {
    uint32_t target = static_cast<uint32_t>(i) % num_mds;
    if (target == 0) {
      continue;
    }
    ++outstanding;
    cluster->mds(0).MigrateSequencer(paths[i], target, [&](mal::Status s) {
      --outstanding;
      if (!s.ok()) {
        std::fprintf(stderr, "spread migration failed: %s\n", s.ToString().c_str());
        failed = true;
      }
    });
  }
  if (!cluster->RunUntil([&] { return outstanding == 0; }, 300 * sim::kSecond)) {
    std::fprintf(stderr, "spread migrations did not settle\n");
    return false;
  }
  // Let the new owners' map publishes commit before traffic starts.
  cluster->RunFor(2 * sim::kSecond);
  return !failed;
}

// -- Section 1: MDS scaling ---------------------------------------------------

struct ScalingResult {
  double grants_per_sec = 0;  // simulated
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  double p99_latency_us = 0;
  uint64_t redirects = 0;
  uint64_t migrations = 0;
  uint64_t sim_events = 0;
};

ScalingResult RunScaling(uint32_t num_mds, int num_logs, sim::Time duration) {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 3;
  options.num_mds = num_mds;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  options.mds.seq_ownership = true;
  cluster::Cluster cluster(options);
  cluster.Boot();

  auto* admin = cluster.NewClient();
  std::vector<std::string> paths = MakeLogPaths(num_logs);
  ScalingResult result;
  if (!CreateAndSpread(&cluster, admin, paths)) {
    return result;
  }

  // Open-loop grant traffic at ~1.3x the aggregate grant capacity
  // (handle+tail cost ~110 us -> ~9k grants/s/rank): the metadata cluster
  // is always the bottleneck, so completed/sec measures capacity.
  cluster::ScaleWorkloadOptions wl;
  wl.num_sessions = 10'000;
  wl.num_client_actors = 8;
  wl.arrivals.shape = cluster::ArrivalConfig::Shape::kSteady;
  wl.arrivals.base_rate_hz = 12'000.0 * static_cast<double>(num_mds);
  wl.seq_fraction = 1.0;
  wl.seq_paths = paths;
  wl.zipf_theta = 0.99;
  wl.seed = 42;
  cluster::ScaleWorkload workload(&cluster, wl);
  uint64_t events_before = cluster.simulator().events_processed();
  workload.Start();
  cluster.RunFor(duration);
  workload.Stop();
  cluster.RunFor(2 * sim::kSecond);  // drain in-flight grants

  result.issued = workload.issued();
  result.completed = workload.completed();
  result.failed = workload.failed();
  result.grants_per_sec =
      static_cast<double>(workload.completed()) / (static_cast<double>(duration) / 1e9);
  result.p99_latency_us = workload.latency().Quantile(0.99);
  for (size_t m = 0; m < cluster.num_mds(); ++m) {
    result.redirects += cluster.mds(m).perf().counter("mds.seq.redirects");
    result.migrations += cluster.mds(m).perf().counter("mds.migrations");
  }
  result.sim_events = cluster.simulator().events_processed() - events_before;
  return result;
}

// -- Section 2: Mantle hot-log policy -----------------------------------------

// Sheds the single hottest log once this rank is clearly hotter than the
// coolest peer. The per-inode rates come from the `seq` table the sharded
// MDS exports with its load metrics; `targets` amounts are load units, and
// the balancer picks subtrees hottest-first, so shedding "the hottest
// log's rate" migrates exactly that log.
const char kHotLogPolicy[] = R"(
if state.ticks == nil then state.ticks = 0 end
function when()
  state.ticks = state.ticks + 1
  if state.ticks < 2 then return false end
  if mds[whoami]["num_seqs"] < 2 then return false end
  local my = mds[whoami]["load"]
  if my < 100 then return false end
  local coolest = nil
  for rank, row in pairs(mds) do
    if rank ~= whoami then
      if coolest == nil or row["load"] < mds[coolest]["load"] then
        coolest = rank
      end
    end
  end
  if coolest == nil then return false end
  if mds[coolest]["load"] * 2 > my then return false end
  local hottest = 0
  for path, rate in pairs(mds[whoami]["seq"]) do
    if rate > hottest then hottest = rate end
  end
  if hottest <= 0 then return false end
  state.receiver = coolest
  state.amount = hottest
  return true
end
function where()
  targets[state.receiver] = state.amount
end
)";

struct HotLogResult {
  uint64_t policy_migrations = 0;  // sequencer handoffs the balancer ordered
  uint64_t owned_rank0 = 0;
  uint64_t owned_rank1 = 0;
  double grants_per_sec = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;  // grants lost to routing; a migration must not fail one
  uint64_t sim_events = 0;
  bool ok = false;
};

HotLogResult RunHotLog(int num_logs, sim::Time duration) {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 3;
  options.num_mds = 2;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  options.mds.seq_ownership = true;
  options.mds.balancing_enabled = true;
  options.mds.balance_interval = 5 * sim::kSecond;
  options.mds.load_report_interval = 2 * sim::kSecond;
  cluster::Cluster cluster(options);
  cluster.Boot();

  HotLogResult result;
  for (size_t m = 0; m < cluster.num_mds(); ++m) {
    auto policy = mantle::MantleBalancer::Load("multilog", kHotLogPolicy);
    if (!policy.ok()) {
      std::fprintf(stderr, "hot-log policy rejected: %s\n",
                   policy.status().ToString().c_str());
      return result;
    }
    cluster.mds(m).SetBalancerPolicy(policy.value());
    cluster.mds(m).on_migration = [&result](const std::string&, uint32_t) {
      ++result.policy_migrations;
    };
  }

  // All logs born on rank 0; the policy has to notice and shed.
  auto* admin = cluster.NewClient();
  std::vector<std::string> paths = MakeLogPaths(num_logs);
  mds::LeasePolicy round_trip;
  round_trip.mode = mds::LeaseMode::kRoundTrip;
  for (const std::string& path : paths) {
    if (!cluster::CreateSequencer(&cluster, admin, path, round_trip).ok()) {
      return result;
    }
  }

  cluster::ScaleWorkloadOptions wl;
  wl.num_sessions = 5'000;
  wl.num_client_actors = 8;
  wl.arrivals.shape = cluster::ArrivalConfig::Shape::kSteady;
  wl.arrivals.base_rate_hz = 8'000.0;
  wl.seq_fraction = 1.0;
  wl.seq_paths = paths;
  wl.zipf_theta = 1.2;  // strong skew: a clear hottest log to shed
  wl.seed = 7;
  cluster::ScaleWorkload workload(&cluster, wl);
  uint64_t events_before = cluster.simulator().events_processed();
  workload.Start();
  cluster.RunFor(duration);
  workload.Stop();
  cluster.RunFor(2 * sim::kSecond);

  result.issued = workload.issued();
  result.completed = workload.completed();
  result.failed = workload.failed();
  result.grants_per_sec =
      static_cast<double>(workload.completed()) / (static_cast<double>(duration) / 1e9);
  result.owned_rank0 =
      static_cast<uint64_t>(cluster.mds(0).perf().gauge("mds.seq.owned_logs"));
  result.owned_rank1 =
      static_cast<uint64_t>(cluster.mds(1).perf().gauge("mds.seq.owned_logs"));
  result.sim_events = cluster.simulator().events_processed() - events_before;
  result.ok = true;
  return result;
}

// -- Section 3: migration + failover under append traffic ---------------------

// Closed-loop ZLog appender with per-log ack bookkeeping and resume
// tracking (first successful append after a marked disruption).
struct Appender {
  chaos::Checkers* checkers = nullptr;
  zlog::Log* log = nullptr;
  cluster::Cluster* cluster = nullptr;
  std::string prefix;
  uint64_t next_tag = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  bool stop = false;
  bool inflight = false;
  // Resume tracking: set disrupted_at, then resumed_at records the sim
  // time of the first successful append at or after it.
  sim::Time disrupted_at = 0;
  sim::Time resumed_at = 0;

  void Pump() {
    if (stop) {
      inflight = false;
      return;
    }
    inflight = true;
    std::string tag = prefix + std::to_string(next_tag++);
    // Resume is judged on the issue time, not the completion time: an
    // append whose position was granted before the crash can still land
    // after it without proving the sequencer came back.
    sim::Time issued_at = cluster->simulator().Now();
    log->Append(Buffer::FromString(tag),
                [this, tag, issued_at](Status status, uint64_t pos) {
      if (status.ok()) {
        ++ok;
        checkers->RecordAck(log->sequencer_path(), pos, tag);
        if (disrupted_at != 0 && resumed_at == 0 && issued_at >= disrupted_at) {
          resumed_at = cluster->simulator().Now();
        }
      } else {
        ++failed;
      }
      Pump();
    });
  }
};

struct FailoverResult {
  bool migrated_ok = false;
  uint64_t total_acked = 0;
  uint64_t takeovers = 0;
  double max_resume_s = 0;  // slowest log's crash-to-resume latency
  size_t resumed_logs = 0;
  size_t violations = 0;
  std::string first_violation;
  uint64_t sim_events = 0;
  bool verified = false;
};

FailoverResult RunFailover(int num_logs, sim::Time traffic_before_crash) {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 3;
  options.num_mds = 2;
  options.osd.replicas = 2;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  options.mds.seq_ownership = true;
  cluster::Cluster cluster(options);
  cluster.Boot();
  uint64_t events_before = cluster.simulator().events_processed();

  FailoverResult result;
  chaos::Checkers checkers(&cluster);
  std::vector<cluster::Client*> clients;
  std::vector<std::unique_ptr<zlog::Log>> logs;
  std::vector<std::unique_ptr<Appender>> appenders;
  for (int i = 0; i < num_logs; ++i) {
    // Short MDS rpc timeout: dead-owner detection cost is the timeout times
    // the retry budget, and this bench puts a budget on crash-to-resume.
    mds::MdsClientConfig mds_config;
    mds_config.rpc_timeout = 1 * sim::kSecond;
    auto* client = cluster.NewClient(mds_config);
    clients.push_back(client);
    zlog::LogOptions rt;
    rt.name = "flog" + std::to_string(i);
    auto log = client->OpenLog(rt);
    bool opened = false;
    log->Open([&](Status) { opened = true; });
    if (!cluster.RunUntil([&] { return opened; })) {
      return result;
    }
    checkers.WatchSequencer(log->sequencer_path());
    auto appender = std::make_unique<Appender>();
    appender->checkers = &checkers;
    appender->log = log.get();
    appender->cluster = &cluster;
    appender->prefix = "f" + std::to_string(i) + ":";
    logs.push_back(std::move(log));
    appenders.push_back(std::move(appender));
  }
  checkers.Arm();
  for (auto& appender : appenders) {
    appender->Pump();
  }
  cluster.RunFor(traffic_before_crash / 2);

  // Live migration under traffic: log 0 moves to rank 1 mid-stream.
  std::optional<Status> migrated;
  cluster.mds(0).MigrateSequencer(logs[0]->sequencer_path(), 1,
                                  [&](Status s) { migrated = s; });
  cluster.RunUntil([&] { return migrated.has_value(); }, 60 * sim::kSecond);
  result.migrated_ok = migrated.has_value() && migrated->ok();
  cluster.RunFor(traffic_before_crash / 2);

  // Crash the rank that now owns log 0 — no restart. Every log it owned is
  // orphaned until its clients run the seal-and-takeover failover.
  sim::Time crash_time = cluster.simulator().Now();
  for (auto& appender : appenders) {
    appender->disrupted_at = crash_time;
  }
  cluster.mds(1).Crash();

  // Failover window: generous against the budget so slow resumes show up
  // in the measurement instead of as missing data.
  cluster.RunFor(30 * sim::kSecond);
  for (auto& appender : appenders) {
    if (appender->resumed_at != 0) {
      ++result.resumed_logs;
      double resume_s =
          static_cast<double>(appender->resumed_at - crash_time) / 1e9;
      result.max_resume_s = std::max(result.max_resume_s, resume_s);
    }
  }

  // Heal: the crashed rank restarts, sees the map naming the survivor for
  // everything taken over, and demotes its journaled copies (max-merge).
  cluster.mds(1).Recover();
  cluster.RunFor(5 * sim::kSecond);
  for (auto& appender : appenders) {
    appender->stop = true;
  }
  cluster.RunUntil(
      [&] {
        for (auto& appender : appenders) {
          if (appender->inflight) {
            return false;
          }
        }
        return true;
      },
      120 * sim::kSecond);

  int verified = 0;
  for (int i = 0; i < num_logs; ++i) {
    checkers.VerifyLog(logs[i].get(), [&] { ++verified; });
  }
  result.verified =
      cluster.RunUntil([&] { return verified == num_logs; }, 300 * sim::kSecond);

  for (auto& appender : appenders) {
    result.total_acked += appender->ok;
  }
  for (cluster::Client* client : clients) {
    result.takeovers += client->perf.counter("zlog.takeovers");
  }
  result.violations = checkers.violations().size();
  if (!checkers.violations().empty()) {
    result.first_violation = checkers.violations().front();
  }
  result.sim_events = cluster.simulator().events_processed() - events_before;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    }
  }

  PrintHeader("multilog: sharded sequencers, Mantle hot-log migration, failover",
              small ? "small (CI) configuration" : "full configuration");
  JsonReporter json("multilog");
  bool ok = true;

  // -- 1. MDS scaling ---------------------------------------------------------
  const int scaling_logs = small ? 128 : 1000;
  const sim::Time scaling_duration = (small ? 4 : 10) * sim::kSecond;
  std::vector<uint32_t> mds_counts = {1, 2, 4};
  std::vector<double> scaling_rates;
  PrintSection("mds_scaling");
  for (uint32_t m : mds_counts) {
    ScalingResult r = RunScaling(m, scaling_logs, scaling_duration);
    scaling_rates.push_back(r.grants_per_sec);
    std::printf(
        "mds_scaling(%u mds, %d logs): %.0f grants/s (issued %llu, failed %llu, "
        "redirects %llu)\n",
        m, scaling_logs, r.grants_per_sec, static_cast<unsigned long long>(r.issued),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.redirects));
    json.Add("mds_scaling(" + std::to_string(m) + " mds)",
             {{"grants_per_sec", r.grants_per_sec},
              {"num_logs", static_cast<double>(scaling_logs)},
              {"issued", static_cast<double>(r.issued)},
              {"completed", static_cast<double>(r.completed)},
              {"failed", static_cast<double>(r.failed)},
              {"p99_latency_us", r.p99_latency_us},
              {"redirects", static_cast<double>(r.redirects)},
              {"spread_migrations", static_cast<double>(r.migrations)}},
             static_cast<double>(r.sim_events));
  }
  ok &= ShapeCheck("mds_scaling: 2 mds >= 1.6x 1 mds aggregate grants/sec",
                   scaling_rates[1] >= 1.6 * scaling_rates[0]);
  ok &= ShapeCheck("mds_scaling: 4 mds >= 2.6x 1 mds aggregate grants/sec",
                   scaling_rates[2] >= 2.6 * scaling_rates[0]);

  // -- 2. Mantle hot-log migration --------------------------------------------
  PrintSection("mantle_hotlog");
  {
    HotLogResult r = RunHotLog(small ? 8 : 16, (small ? 30 : 45) * sim::kSecond);
    std::printf(
        "mantle_hotlog: %llu policy migrations, owned rank0=%llu rank1=%llu, "
        "%.0f grants/s (issued %llu, completed %llu, failed %llu)\n",
        static_cast<unsigned long long>(r.policy_migrations),
        static_cast<unsigned long long>(r.owned_rank0),
        static_cast<unsigned long long>(r.owned_rank1), r.grants_per_sec,
        static_cast<unsigned long long>(r.issued),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.failed));
    json.Add("mantle_hotlog",
             {{"policy_migrations", static_cast<double>(r.policy_migrations)},
              {"owned_rank0", static_cast<double>(r.owned_rank0)},
              {"owned_rank1", static_cast<double>(r.owned_rank1)},
              {"grants_per_sec", r.grants_per_sec},
              {"issued", static_cast<double>(r.issued)},
              {"completed", static_cast<double>(r.completed)},
              {"failed", static_cast<double>(r.failed)}},
             static_cast<double>(r.sim_events));
    ok &= ShapeCheck("mantle_hotlog: the seq-table policy migrated at least one log",
                     r.ok && r.policy_migrations >= 1);
    ok &= ShapeCheck("mantle_hotlog: both ranks own logs after rebalancing",
                     r.owned_rank0 >= 1 && r.owned_rank1 >= 1);
    ok &= ShapeCheck("mantle_hotlog: no sequencer grant failed", r.ok && r.failed == 0);
  }

  // -- 3. migration + failover ------------------------------------------------
  PrintSection("failover");
  {
    FailoverResult r = RunFailover(small ? 3 : 4, 4 * sim::kSecond);
    std::printf(
        "failover: migrated_ok=%d, resumed %zu logs, max crash-to-resume %.2f s, "
        "%llu takeovers, %llu acked, violations %zu\n",
        r.migrated_ok ? 1 : 0, r.resumed_logs, r.max_resume_s,
        static_cast<unsigned long long>(r.takeovers),
        static_cast<unsigned long long>(r.total_acked), r.violations);
    if (!r.first_violation.empty()) {
      std::printf("first violation: %s\n", r.first_violation.c_str());
    }
    json.Add("failover",
             {{"migrated_ok", r.migrated_ok ? 1.0 : 0.0},
              {"resumed_logs", static_cast<double>(r.resumed_logs)},
              {"max_resume_s", r.max_resume_s},
              {"takeovers", static_cast<double>(r.takeovers)},
              {"total_acked", static_cast<double>(r.total_acked)},
              {"violations", static_cast<double>(r.violations)}},
             static_cast<double>(r.sim_events));
    const size_t expected_logs = small ? 3 : 4;
    ok &= ShapeCheck("failover: live migration under traffic succeeded", r.migrated_ok);
    ok &= ShapeCheck("failover: every log resumed after the owner crash",
                     r.resumed_logs == expected_logs);
    ok &= ShapeCheck("failover: at least one client ran the seal-and-takeover path",
                     r.takeovers >= 1);
    ok &= ShapeCheck("failover: slowest crash-to-resume within 10 s budget",
                     r.max_resume_s > 0 && r.max_resume_s <= 10.0);
    ok &= ShapeCheck("failover: post-heal verify passed with zero violations",
                     r.verified && r.violations == 0);
  }

  json.Write();
  return ok ? 0 : 1;
}
