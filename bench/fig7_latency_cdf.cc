// Figure 7: per-client latency distribution of sequencer access.
//
// Paper: "At the 99th percentile clients accessed the sequencer in less
// than a millisecond. The CDF is cropped at the 99.999th percentile due to
// large outliers... in instances in which the metadata server is
// re-distributing the capability."
//
// Expected shape: overwhelmingly fast local accesses, a long tail from cap
// exchanges; larger quotas push the knee of the CDF further right in
// throughput but keep P99 < 1 ms, which every client of every configuration
// checks as a shape check (the bench exits non-zero on a FAIL).
#include "bench/bench_util.h"
#include "bench/cap_experiment.h"

int main() {
  using namespace mal::bench;
  using mal::mds::LeaseMode;
  PrintHeader("Figure 7: latency CDF per client per configuration",
              "Same setup as Figure 6; per-op latency in microseconds.");

  bool ok = true;
  auto run = [&ok](CapExperimentConfig config) {
    CapExperimentResult result = RunCapExperiment(config);
    PrintSection(config.name);
    for (size_t c = 0; c < result.client_latency.size(); ++c) {
      PrintQuantiles("client" + std::to_string(c), result.client_latency[c]);
      ok &= ShapeCheck(config.name + " client" + std::to_string(c) + " P99 < 1 ms",
                       result.client_latency[c].Quantile(0.99) < 1000.0);
    }
    // 20-point CDF of client 0 (for plotting).
    if (!result.client_latency.empty()) {
      PrintColumns({"latency_us", "cum_prob"});
      for (const auto& [value, prob] : result.client_latency[0].Cdf(20)) {
        std::printf("%.1f\t%.4f\n", value, prob);
      }
    }
  };

  for (uint64_t quota : {10ULL, 1000ULL, 100000ULL}) {
    CapExperimentConfig config;
    config.name = "quota(" + std::to_string(quota) + ")";
    config.mode = LeaseMode::kQuota;
    config.quota = quota;
    run(config);
  }
  CapExperimentConfig delay;
  delay.name = "delay(0.25s)";
  delay.mode = LeaseMode::kDelay;
  run(delay);

  CapExperimentConfig best_effort;
  best_effort.name = "best-effort";
  best_effort.mode = LeaseMode::kBestEffort;
  run(best_effort);
  return ok ? 0 : 1;
}
