// Figure 10b: migration units x routing modes.
//
// Paper: "the best combination of mode and migration units can have up to
// a 2x improvement"; "client mode does not perform as well for read-heavy
// workloads. We even see a throughput improvement when migrating all load
// off the first server... Proxy mode does the best in both cases."
//
// Setup: 2 sequencers x 4 clients, 2 MDS; "Half" migrates one sequencer to
// mds.1, "Full" migrates both; proxy (forwarding) vs client (redirect).
#include "bench/balancer_experiment.h"
#include "bench/bench_util.h"

int main() {
  using namespace mal::bench;
  namespace sim = mal::sim;
  using mal::mds::RoutingMode;
  PrintHeader("Figure 10b: migration units (half/full) x modes (proxy/client)",
              "2 sequencers x 4 clients, 2 MDS, 90 s runs; stable-phase "
              "cluster ops/sec.");
  PrintColumns({"config", "ops_per_sec"});

  uint64_t granted_twice = 0;
  uint64_t failed_grants = 0;
  auto run = [&granted_twice, &failed_grants](const std::string& name, RoutingMode routing,
                                              int migrate_count) {
    BalancerExperimentConfig config;
    config.name = name;
    config.num_mds = 2;
    config.num_seqs = 2;
    config.duration = 90 * sim::kSecond;
    config.routing = routing;
    for (int s = 0; s < migrate_count; ++s) {
      config.manual_migrations.push_back(
          {5 * sim::kSecond, "/zlog/seq" + std::to_string(s), 1});
    }
    BalancerExperimentResult result = RunBalancerExperiment(config);
    std::printf("%s\t%.0f\n", name.c_str(), result.stable_ops_per_sec);
    granted_twice += result.positions_granted_twice;
    failed_grants += result.failed_grants;
    return result.stable_ops_per_sec;
  };

  double baseline = run("no-balancing", RoutingMode::kProxy, 0);
  double proxy_half = run("proxy-half", RoutingMode::kProxy, 1);
  double proxy_full = run("proxy-full", RoutingMode::kProxy, 2);
  double client_half = run("client-half", RoutingMode::kRedirect, 1);
  double client_full = run("client-full", RoutingMode::kRedirect, 2);

  PrintSection("shape check");
  bool ok = ShapeCheck("proxy-full best overall",
                       proxy_full >= proxy_half && proxy_full >= client_half &&
                           proxy_full >= client_full);
  ok &= ShapeCheck("proxy beats client at same unit: half", proxy_half > client_half);
  ok &= ShapeCheck("proxy beats client at same unit: full", proxy_full > client_full);
  std::printf("proxy-full vs client modes factor: %.1fx / %.1fx (paper: up to 2x)\n",
              client_half > 0 ? proxy_full / client_half : 0,
              client_full > 0 ? proxy_full / client_full : 0);
  std::printf("baseline (no balancing): %.0f\n", baseline);
  ok &= ShapeCheck("balancing beats co-location", proxy_half > baseline);
  std::printf("positions granted twice: %llu\n",
              static_cast<unsigned long long>(granted_twice));
  ok &= ShapeCheck("no sequencer position granted twice", granted_twice == 0);
  std::printf("sequencer grants failed: %llu\n",
              static_cast<unsigned long long>(failed_grants));
  ok &= ShapeCheck("no sequencer grant failed", failed_grants == 0);
  return ok ? 0 : 1;
}
