// Figure 5: sequencer capability interleaving under three lease policies.
//
// Paper: "Each dot is an individual request... The default behavior is
// unpredictable, 'delay' lets clients hold the lease longer, and 'quota'
// gives clients the lease for a number of operations."
//
// Output: per policy, a down-sampled (time, client) event stream showing
// which client held the sequencer when, plus batching statistics. Expected
// shape: best-effort = fine-grained interleaving with many exchanges;
// delay = long alternating time slices; quota = fixed-size bursts. The
// bench checks that shape on mean ops per cap tenure (delay >= 10x quota,
// quota > best-effort), writes BENCH_fig5_cap_interleaving.json, and exits
// non-zero on a FAIL.
#include "bench/bench_util.h"
#include "bench/cap_experiment.h"

namespace mal::bench {
namespace {

// Runs one policy, prints its section and JSON record, and returns the
// mean ops per cap tenure.
double RunAndPrint(const CapExperimentConfig& config, JsonReporter* json) {
  CapExperimentResult result = RunCapExperiment(config);
  PrintSection(config.name);
  std::printf("total_ops_per_sec\t%.0f\n", result.total_ops_per_sec);
  std::printf("cap_exchanges\t%llu\n",
              static_cast<unsigned long long>(result.cap_exchanges));
  // Mean batch: ops per cap tenure.
  double total_ops =
      result.total_ops_per_sec * static_cast<double>(config.duration) / sim::kSecond;
  double batch = result.cap_exchanges > 0
                     ? total_ops / static_cast<double>(result.cap_exchanges)
                     : total_ops;
  std::printf("mean_ops_per_tenure\t%.1f\n", batch);
  // Scatter sample: first 2 seconds, at most 200 points per client.
  PrintColumns({"client", "time_sec", "position"});
  for (size_t c = 0; c < result.client_events.size(); ++c) {
    const auto& events = result.client_events[c];
    size_t printed = 0;
    size_t stride = events.empty() ? 1 : std::max<size_t>(1, events.size() / 400);
    for (size_t i = 0; i < events.size() && printed < 200; i += stride) {
      double t = static_cast<double>(events[i].first) / 1e9;
      if (t > 2.0) {
        break;
      }
      std::printf("client%zu\t%.4f\t%llu\n", c, t,
                  static_cast<unsigned long long>(events[i].second));
      ++printed;
    }
  }
  json->Add(config.name, {{"total_ops_per_sec", result.total_ops_per_sec},
                          {"cap_exchanges", static_cast<double>(result.cap_exchanges)},
                          {"mean_ops_per_tenure", batch}});
  return batch;
}

}  // namespace
}  // namespace mal::bench

int main() {
  using namespace mal::bench;
  using mal::mds::LeaseMode;
  PrintHeader("Figure 5: capability interleaving across lease policies",
              "2 clients, 1 cached sequencer, 10 s runs; policies: "
              "best-effort / delay(0.25 s) / quota(500 ops)");

  JsonReporter json("fig5_cap_interleaving");
  CapExperimentConfig best_effort;
  best_effort.name = "(a) best-effort";
  best_effort.mode = LeaseMode::kBestEffort;
  double best_effort_batch = RunAndPrint(best_effort, &json);

  CapExperimentConfig delay;
  delay.name = "(b) delay (max_hold = 0.25 s)";
  delay.mode = LeaseMode::kDelay;
  double delay_batch = RunAndPrint(delay, &json);

  CapExperimentConfig quota;
  quota.name = "(c) quota (500 ops)";
  quota.mode = LeaseMode::kQuota;
  quota.quota = 500;
  double quota_batch = RunAndPrint(quota, &json);

  std::printf("\n");
  bool ok = ShapeCheck("mean ops per cap tenure: delay >= 10x quota",
                       delay_batch >= 10.0 * quota_batch);
  ok &= ShapeCheck("mean ops per cap tenure: quota > best-effort",
                   quota_batch > best_effort_batch);
  json.Write();
  return ok ? 0 : 1;
}
