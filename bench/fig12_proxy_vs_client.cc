// Figure 12: per-sequencer throughput over time, proxy vs client mode.
//
// Paper (a): at t=60 s Mantle migrates Sequencer 1 to the slave server.
// "Performance of Sequencer 2 decreases because it stayed on the proxy
// which now processes requests for Sequencer 2 and forwards requests for
// Sequencer 1. The performance of Sequencer 1 improves dramatically."
// Paper (b): client mode with manual placement has lower cluster
// throughput, and the sequencer on the non-root server suffers from the
// scatter-gather cache-coherence strain.
#include "bench/balancer_experiment.h"
#include "bench/bench_util.h"

int main() {
  using namespace mal::bench;
  namespace sim = mal::sim;
  using mal::mds::RoutingMode;
  PrintHeader("Figure 12: proxy mode vs client mode, per-sequencer series",
              "2 sequencers x 4 clients, 2 MDS, 120 s runs.");

  // (a) proxy mode: both sequencers start on mds.0; seq0 migrates at 60 s.
  BalancerExperimentConfig proxy;
  proxy.name = "proxy-mode";
  proxy.num_mds = 2;
  proxy.num_seqs = 2;
  proxy.duration = 120 * sim::kSecond;
  proxy.routing = RoutingMode::kProxy;
  proxy.manual_migrations.push_back({60 * sim::kSecond, "/zlog/seq0", 1});
  BalancerExperimentResult proxy_result = RunBalancerExperiment(proxy);

  PrintSection("(a) proxy mode (seq0 migrates at 60 s)");
  PrintColumns({"series", "time_sec", "ops_per_sec"});
  PrintSeries("seq0(migrates)", proxy_result.seq_series[0]);
  PrintSeries("seq1(stays)", proxy_result.seq_series[1]);

  // (b) client mode, manual placement from the start (no balancing phase).
  BalancerExperimentConfig client;
  client.name = "client-mode";
  client.num_mds = 2;
  client.num_seqs = 2;
  client.duration = 120 * sim::kSecond;
  client.routing = RoutingMode::kRedirect;
  client.manual_migrations.push_back({1 * sim::kSecond, "/zlog/seq0", 1});
  BalancerExperimentResult client_result = RunBalancerExperiment(client);

  PrintSection("(b) client mode (seq0 on mds.1 from the start)");
  PrintColumns({"series", "time_sec", "ops_per_sec"});
  PrintSeries("seq0(on mds.1)", client_result.seq_series[0]);
  PrintSeries("seq1(on mds.0)", client_result.seq_series[1]);

  PrintSection("shape check");
  // Proxy: migrated sequencer improved vs its pre-migration rate; the
  // stay-behind sequencer lost some throughput.
  auto mean_between = [](const std::vector<std::pair<double, double>>& series, double lo,
                         double hi) {
    double sum = 0;
    int n = 0;
    for (const auto& [t, v] : series) {
      if (t >= lo && t < hi) {
        sum += v;
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  double seq0_before = mean_between(proxy_result.seq_series[0], 20, 55);
  double seq0_after = mean_between(proxy_result.seq_series[0], 80, 115);
  double seq1_before = mean_between(proxy_result.seq_series[1], 20, 55);
  double seq1_after = mean_between(proxy_result.seq_series[1], 80, 115);
  std::printf("proxy: migrated seq %.0f -> %.0f, stay-behind seq %.0f -> %.0f\n",
              seq0_before, seq0_after, seq1_before, seq1_after);
  bool ok = ShapeCheck("proxy: migrated seq improved", seq0_after > seq0_before);
  ok &= ShapeCheck("proxy: stay-behind seq decreased", seq1_after < seq1_before);
  std::printf("cluster throughput: proxy %.0f vs client %.0f\n",
              proxy_result.stable_ops_per_sec, client_result.stable_ops_per_sec);
  ok &= ShapeCheck("proxy cluster throughput beats client mode",
                   proxy_result.stable_ops_per_sec > client_result.stable_ops_per_sec);
  std::printf("client mode: seq0 (mds.1) %.0f vs seq1 (mds.0) %.0f\n",
              client_result.seq_stable_ops[0], client_result.seq_stable_ops[1]);
  ok &= ShapeCheck("client mode: non-root sequencer slower (scatter-gather strain)",
                   client_result.seq_stable_ops[0] < client_result.seq_stable_ops[1]);
  uint64_t granted_twice =
      proxy_result.positions_granted_twice + client_result.positions_granted_twice;
  std::printf("positions granted twice: %llu\n",
              static_cast<unsigned long long>(granted_twice));
  ok &= ShapeCheck("no sequencer position granted twice", granted_twice == 0);
  uint64_t failed_grants = proxy_result.failed_grants + client_result.failed_grants;
  std::printf("sequencer grants failed: %llu\n",
              static_cast<unsigned long long>(failed_grants));
  ok &= ShapeCheck("no sequencer grant failed", failed_grants == 0);
  return ok ? 0 : 1;
}
