// Shared harness for the load-balancing experiments (Figures 9-12 and the
// §6.2.3 backoff study): K round-trip sequencers, each with a closed-loop
// client group, on an M-server metadata cluster, under a configurable
// balancing policy / routing mode / manual migration schedule.
#ifndef MALACOLOGY_BENCH_BALANCER_EXPERIMENT_H_
#define MALACOLOGY_BENCH_BALANCER_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/workload.h"
#include "src/mantle/mantle.h"

namespace mal::bench {

struct ManualMigration {
  sim::Time at;
  std::string path;
  uint32_t target;
};

struct BalancerExperimentConfig {
  std::string name;
  int num_mds = 3;
  int num_osds = 10;
  int num_seqs = 3;
  int clients_per_seq = 4;
  sim::Time duration = 180 * sim::kSecond;
  mds::RoutingMode routing = mds::RoutingMode::kProxy;

  // Balancing policy: exactly one of these (or none = "No Balancing").
  bool use_cephfs = false;
  mds::CephFsMode cephfs_mode = mds::CephFsMode::kWorkload;
  std::string mantle_policy;  // non-empty = use Mantle with this source

  std::vector<ManualMigration> manual_migrations;
  uint64_t seed = 7;
};

struct BalancerExperimentResult {
  std::string name;
  // Per-sequencer and cluster-wide ops/sec in 1 s windows.
  std::vector<std::vector<std::pair<double, double>>> seq_series;
  std::vector<std::pair<double, double>> cluster_series;
  // (virtual seconds, path, target) for every migration that happened.
  std::vector<std::tuple<double, std::string, uint32_t>> migrations;
  // Mean cluster throughput over the final third of the run (stable phase).
  double stable_ops_per_sec = 0;
  // Mean over the entire run, convergence phase included (what the paper's
  // bar charts report).
  double whole_run_ops_per_sec = 0;
  // Per-sequencer stable-phase throughput.
  std::vector<double> seq_stable_ops;
  // Positions some sequencer granted more than once, summed over the
  // sequencers. CORFU positions are write-once (§5.2), so any nonzero count
  // means a migration let two ranks grant from the same tail.
  uint64_t positions_granted_twice = 0;
  // Round-trip grants that came back with an error, summed over every
  // client. A grant that waits across a migration follows the inode, so
  // any nonzero count means routing lost a request.
  uint64_t failed_grants = 0;
};

BalancerExperimentResult RunBalancerExperiment(const BalancerExperimentConfig& config);

// The sequencer-aware Mantle policy used for the "Mantle" curves: waits for
// the receiver to be cool (conservative), sheds half its load at a time,
// and backs off between migrations.
std::string SequencerMantlePolicy();

}  // namespace mal::bench

#endif  // MALACOLOGY_BENCH_BALANCER_EXPERIMENT_H_
