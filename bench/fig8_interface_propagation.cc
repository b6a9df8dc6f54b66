// Figure 8: cluster-wide interface update latency.
//
// Paper: "The interfaces are Lua scripts embedded in the cluster map and
// distributed using a peer-to-peer gossip protocol. The latency is defined
// as the elapsed time following the Paxos proposal for an interface update
// until each object storage daemon makes the update live... In the
// experiment labeled '120 OSD (RAM)' a cluster of 120 OSDs using an
// in-memory data store were deployed, showing a latency of less than 54 ms
// with a probability of 90% and a worst case latency of 194 ms. By default
// Paxos proposals occur periodically with a 1 second interval... in a
// minimum realistic quorum of 3 monitors using hard-drive storage we were
// able to decrease this interval to an average of 222 ms."
//
// Expected shape: propagation CDF with a sub-100 ms body and a longer tail;
// commit interval drops when the proposal interval is reduced, and the
// HDD-backed quorum adds store-commit latency. Both claims are shape checks;
// the bench exits non-zero when either fails.
#include <memory>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"

namespace mal::bench {
namespace {

using cluster::Cluster;
using cluster::ClusterOptions;

// Measures propagation of `updates` interface versions across `num_osds`.
Histogram MeasurePropagation(uint32_t num_osds, int updates) {
  ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = num_osds;
  options.num_mds = 0;
  options.mon.proposal_interval = 100 * sim::kMillisecond;
  // Only 10% of OSDs subscribe to monitor pushes; the rest learn through
  // the epidemic. Map application (decode + script install) costs real CPU.
  options.osd_subscribe_fraction = 0.1;
  options.osd.gossip_fanout = 4;
  options.osd.gossip_interval = 250 * sim::kMillisecond;
  options.osd.map_apply_cost = 4 * sim::kMillisecond;
  Cluster cluster(options);
  cluster.Boot();

  // Commit timestamps per version, and per-OSD install latency samples.
  std::map<std::string, sim::Time> committed_at;
  Histogram latency_ms;
  cluster.monitor(0).on_apply =
      [&](const std::vector<mon::Transaction>& batch) {
        for (const auto& txn : batch) {
          if (txn.key.rfind("cls.ver.", 0) == 0) {
            committed_at[txn.value] = cluster.simulator().Now();
          }
        }
      };
  int installs_done = 0;
  for (uint32_t i = 0; i < num_osds; ++i) {
    cluster.osd(i).on_interface_installed = [&](const std::string&,
                                                const std::string& version) {
      auto it = committed_at.find(version);
      if (it != committed_at.end()) {
        latency_ms.Add(static_cast<double>(cluster.simulator().Now() - it->second) / 1e6);
        ++installs_done;
      }
    };
  }

  auto* admin = cluster.NewClient();
  for (int u = 0; u < updates; ++u) {
    std::string version = "v" + std::to_string(u);
    bool published = false;
    admin->rados.InstallScriptInterface(
        "dynamic_iface", version,
        "function get(input) return 'version " + version + "' end",
        [&published](mal::Status) { published = true; });
    int want = static_cast<int>(num_osds) * (u + 1);
    cluster.RunUntil([&] { return published && installs_done >= want; },
                     60 * sim::kSecond);
  }
  return latency_ms;
}

// Measures the average commit latency of a service-metadata transaction
// under a given proposal interval and store-commit (fsync) cost.
double MeasureCommitInterval(sim::Time proposal_interval, sim::Time store_latency,
                             uint32_t num_mons) {
  ClusterOptions options;
  options.num_mons = num_mons;
  options.num_osds = 1;
  options.num_mds = 0;
  options.mon.proposal_interval = proposal_interval;
  options.mon.store_commit_latency = store_latency;
  Cluster cluster(options);
  cluster.Boot();
  auto* admin = cluster.NewClient();

  Histogram commit_ms;
  for (int i = 0; i < 40; ++i) {
    sim::Time t0 = cluster.simulator().Now();
    bool done = false;
    admin->rados.mon_client().SetServiceMetadata(
        mon::MapKind::kOsdMap, "k" + std::to_string(i), "v",
        [&done](mal::Status) { done = true; });
    cluster.RunUntil([&] { return done; }, 30 * sim::kSecond);
    commit_ms.Add(static_cast<double>(cluster.simulator().Now() - t0) / 1e6);
    // Desynchronize from the proposal clock.
    cluster.RunFor((i % 7) * 17 * sim::kMillisecond);
  }
  return commit_ms.mean();
}

}  // namespace
}  // namespace mal::bench

int main() {
  using namespace mal::bench;
  using mal::Histogram;
  namespace sim = mal::sim;
  PrintHeader("Figure 8: cluster-wide interface update latency",
              "Script interfaces ride the OSDMap (service metadata) and fan "
              "out via monitor push + OSD gossip; latency measured from Paxos "
              "commit to per-OSD install.");

  PrintSection("120 OSD (RAM) propagation CDF (200 updates)");
  Histogram ram = MeasurePropagation(120, 200);
  PrintQuantiles("120osd_ram", ram);
  PrintColumns({"latency_ms", "cum_prob"});
  for (const auto& [value, prob] : ram.Cdf(20)) {
    std::printf("%.2f\t%.4f\n", value, prob);
  }
  std::printf("paper: 54 ms @ P90, worst 194 ms\n");
  bool ok = ShapeCheck("120 OSD propagation P90 < 100 ms", ram.Quantile(0.9) < 100.0);

  PrintSection("30 OSD propagation CDF (200 updates)");
  Histogram small = MeasurePropagation(30, 200);
  PrintQuantiles("30osd_ram", small);

  PrintSection("Paxos proposal interval (3-monitor quorum)");
  PrintColumns({"config", "avg_commit_ms"});
  double slow = MeasureCommitInterval(1 * sim::kSecond, 10 * sim::kMillisecond, 3);
  std::printf("1s interval, HDD store\t%.0f\n", slow);
  double fast = MeasureCommitInterval(150 * sim::kMillisecond, 10 * sim::kMillisecond, 3);
  std::printf("150ms interval, HDD store\t%.0f\n", fast);
  std::printf("paper: 1 s -> 222 ms\n");
  ok &= ShapeCheck("150 ms Paxos interval cuts average commit latency >= 2x",
                   fast * 2 <= slow);
  return ok ? 0 : 1;
}
