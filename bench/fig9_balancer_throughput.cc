// Figure 9: throughput over time while load balancers migrate sequencers.
//
// Paper: "CephFS/Mantle load balancing have better throughput than
// co-locating all sequencers on the same server... The increased
// throughput for the CephFS and Mantle curves between 0 and 60 seconds are
// a result of migrating the sequencer(s) off overloaded servers." CephFS
// decides fast (~10 s); Mantle's conservative policy takes longer to
// stabilize but ends higher/steadier.
//
// Setup mirrors §6.2: 10 object nodes, 1 monitor, 3 MDS, 3 sequencers with
// 4 round-trip clients each, all sequencers initially co-located on mds.0.
#include "bench/balancer_experiment.h"
#include "bench/bench_util.h"

int main() {
  using namespace mal::bench;
  namespace sim = mal::sim;
  PrintHeader("Figure 9: balancer throughput over time",
              "3 sequencers x 4 clients, 3 MDS, proxy routing, 180 s runs. "
              "Series: cluster ops/sec per second.");

  std::vector<BalancerExperimentConfig> configs(3);
  configs[0].name = "no-balancing";
  configs[1].name = "cephfs";
  configs[1].use_cephfs = true;
  configs[1].cephfs_mode = mal::mds::CephFsMode::kWorkload;
  configs[2].name = "mantle";
  configs[2].mantle_policy = SequencerMantlePolicy();

  std::vector<BalancerExperimentResult> results;
  for (const auto& config : configs) {
    results.push_back(RunBalancerExperiment(config));
  }

  uint64_t granted_twice = 0;
  uint64_t failed_grants = 0;
  for (const auto& result : results) {
    PrintSection(result.name);
    for (const auto& [t, path, target] : result.migrations) {
      std::printf("migration\t%.1f\t%s -> mds.%u\n", t, path.c_str(), target);
    }
    std::printf("stable_ops_per_sec\t%.0f\n", result.stable_ops_per_sec);
    std::printf("positions_granted_twice\t%llu\n",
                static_cast<unsigned long long>(result.positions_granted_twice));
    std::printf("failed_grants\t%llu\n",
                static_cast<unsigned long long>(result.failed_grants));
    granted_twice += result.positions_granted_twice;
    failed_grants += result.failed_grants;
    PrintColumns({"config", "time_sec", "ops_per_sec"});
    PrintSeries(result.name, result.cluster_series);
  }

  PrintSection("shape check");
  double none = results[0].stable_ops_per_sec;
  double cephfs = results[1].stable_ops_per_sec;
  double mantle = results[2].stable_ops_per_sec;
  std::printf("stable ops/s: cephfs %.0f, mantle %.0f, none %.0f\n", cephfs, mantle, none);
  bool ok = ShapeCheck("balanced beats co-located (cephfs > none)", cephfs > none);
  ok &= ShapeCheck("mantle beats co-located (mantle > none)", mantle > none);
  ok &= ShapeCheck("cephfs first migration earlier than mantle",
                   !results[1].migrations.empty() && !results[2].migrations.empty() &&
                       std::get<0>(results[1].migrations.front()) <
                           std::get<0>(results[2].migrations.front()));
  ok &= ShapeCheck("no sequencer position granted twice", granted_twice == 0);
  ok &= ShapeCheck("no sequencer grant failed", failed_grants == 0);
  return ok ? 0 : 1;
}
