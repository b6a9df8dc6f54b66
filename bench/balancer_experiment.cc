#include "bench/balancer_experiment.h"

#include <algorithm>

namespace mal::bench {

std::string SequencerMantlePolicy() {
  // Conservative sequencer-aware policy (the paper's Mantle curve in Fig 9):
  // migrate only when this server is clearly the hottest AND some receiver
  // is cool; send half the load; cool down for one tick after migrating.
  return R"(
if state.cooldown == nil then state.cooldown = 0 end
if state.ticks == nil then state.ticks = 0 end

function when()
  -- Conservative warmup: let load reports and coherence traffic settle
  -- before trusting the metrics (the paper's Mantle curve reacts later
  -- than CephFS but avoids rash decisions).
  state.ticks = state.ticks + 1
  if state.ticks < 3 then return false end
  if state.cooldown > 0 then
    state.cooldown = state.cooldown - 1
    return false
  end
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
  -- wait for load on the receiving server to fall below a threshold
  if mds[coolest]["load"] > my / 4 then return false end
  state.receiver = coolest
  state.cooldown = 1
  return true
end

function where()
  targets[state.receiver] = mds[whoami]["load"] / 2
end
)";
}

BalancerExperimentResult RunBalancerExperiment(const BalancerExperimentConfig& config) {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = static_cast<uint32_t>(config.num_osds);
  options.num_mds = static_cast<uint32_t>(config.num_mds);
  options.osd.replicas = 2;
  options.network.seed = config.seed;
  options.mon.proposal_interval = 500 * sim::kMillisecond;
  options.mds.routing = config.routing;
  options.mds.balancing_enabled = config.use_cephfs || !config.mantle_policy.empty();
  options.mds.balance_interval = 10 * sim::kSecond;
  options.mds.load_report_interval = 5 * sim::kSecond;
  cluster::Cluster cluster(options);
  cluster.Boot();

  BalancerExperimentResult result;
  result.name = config.name;

  // Install the balancing policy on every MDS.
  if (config.use_cephfs) {
    for (size_t m = 0; m < cluster.num_mds(); ++m) {
      cluster.mds(m).SetBalancerPolicy(
          std::make_shared<mds::CephFsBalancer>(config.cephfs_mode));
    }
  } else if (!config.mantle_policy.empty()) {
    auto policy = mantle::MantleBalancer::Load("bench", config.mantle_policy);
    if (!policy.ok()) {
      std::fprintf(stderr, "mantle policy rejected: %s\n",
                   policy.status().ToString().c_str());
      return result;
    }
    for (size_t m = 0; m < cluster.num_mds(); ++m) {
      // Each MDS gets its own interpreter instance (own `state`).
      cluster.mds(m).SetBalancerPolicy(
          mantle::MantleBalancer::Load("bench", config.mantle_policy).value());
    }
  }

  // Record migrations from every MDS.
  sim::Time start_after_boot = cluster.simulator().Now();
  for (size_t m = 0; m < cluster.num_mds(); ++m) {
    cluster.mds(m).on_migration = [&result, &cluster, start_after_boot](
                                      const std::string& path, uint32_t target) {
      result.migrations.emplace_back(
          static_cast<double>(cluster.simulator().Now() - start_after_boot) / 1e9, path,
          target);
    };
  }

  // Create sequencers (all initially on mds.0) and client groups.
  auto* admin = cluster.NewClient();
  mds::LeasePolicy round_trip;
  round_trip.mode = mds::LeaseMode::kRoundTrip;
  std::vector<std::unique_ptr<cluster::SequencerClient>> workers;
  std::vector<std::vector<size_t>> seq_workers(config.num_seqs);
  for (int s = 0; s < config.num_seqs; ++s) {
    std::string path = "/zlog/seq" + std::to_string(s);
    mal::Status created = cluster::CreateSequencer(&cluster, admin, path, round_trip);
    if (!created.ok()) {
      std::fprintf(stderr, "create %s failed: %s\n", path.c_str(),
                   created.ToString().c_str());
      return result;
    }
    for (int c = 0; c < config.clients_per_seq; ++c) {
      cluster::SequencerClientOptions worker_options;
      worker_options.path = path;
      worker_options.cached = false;
      worker_options.local_cost = 5 * sim::kMicrosecond;
      seq_workers[s].push_back(workers.size());
      workers.push_back(std::make_unique<cluster::SequencerClient>(
          &cluster, cluster.NewClient(), worker_options));
    }
  }

  // Schedule manual migrations.
  sim::Time start = cluster.simulator().Now();
  for (const ManualMigration& migration : config.manual_migrations) {
    cluster.simulator().Schedule(migration.at, [&cluster, migration] {
      for (size_t m = 0; m < cluster.num_mds(); ++m) {
        if (cluster.mds(m).GetInode(migration.path) != nullptr) {
          cluster.mds(m).Migrate(migration.path, migration.target, [](mal::Status) {});
          return;
        }
      }
    });
  }

  for (auto& worker : workers) {
    worker->Start();
  }
  cluster.RunFor(config.duration);
  for (auto& worker : workers) {
    worker->Stop();
  }

  // Aggregate series per sequencer and cluster-wide.
  ThroughputSeries cluster_series(1 * sim::kSecond);
  double duration_sec = static_cast<double>(config.duration) / 1e9;
  sim::Time stable_from = start + config.duration - config.duration / 3;
  sim::Time stable_to = start + config.duration;
  double stable_total = 0;
  for (int s = 0; s < config.num_seqs; ++s) {
    ThroughputSeries seq_series(1 * sim::kSecond);
    double seq_stable = 0;
    std::vector<uint64_t> positions;
    for (size_t w : seq_workers[s]) {
      result.failed_grants += workers[w]->failed_grants();
      for (const auto& [t, pos] : workers[w]->events()) {
        seq_series.Record(t - start);
        cluster_series.Record(t - start);
        positions.push_back(pos);
      }
      seq_stable += workers[w]->throughput().MeanRate(stable_from, stable_to);
    }
    std::sort(positions.begin(), positions.end());
    for (size_t i = 1; i < positions.size(); ++i) {
      result.positions_granted_twice += positions[i] == positions[i - 1] ? 1 : 0;
    }
    result.seq_series.push_back(seq_series.Series());
    result.seq_stable_ops.push_back(seq_stable);
    stable_total += seq_stable;
  }
  result.cluster_series = cluster_series.Series();
  result.stable_ops_per_sec = stable_total;
  result.whole_run_ops_per_sec =
      static_cast<double>(cluster_series.total()) / duration_sec;
  (void)duration_sec;
  return result;
}

}  // namespace mal::bench
