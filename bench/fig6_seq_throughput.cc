// Figure 6: sequencer throughput/latency trade-off across cap policies.
//
// Paper: "The highest performance is achieved using a single client with
// exclusive, cacheable privilege. Round-robin sharing of the sequencer
// resource is affected by the amount of time the resource is held, with
// best-effort performing the worst." Two clients, fixed 0.25 s maximum
// reservation, quota swept; total ops/sec and average latency reported.
//
// Expected shape: exclusive >> large quota > small quota > best-effort in
// throughput; latency falls as quota grows. The bench checks this shape and
// exits non-zero on a failed check.
#include <functional>

#include "bench/bench_util.h"
#include "bench/cap_experiment.h"
#include "src/cluster/cluster.h"

namespace {

// Where does a sequenced append actually spend its time? The cap sweep
// above measures the sequencer resource alone; this traced run drives full
// round-trip-mode appends (seq RPC + striped OSD write per op) through the
// tracing layer and splits each root span into client queueing, sequencer
// wait, and OSD commit.
mal::bench::HopBreakdown TracedAppendBreakdown(int total_appends) {
  using namespace mal;
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 3;
  options.num_mds = 1;
  options.osd.replicas = 2;
  options.mon.proposal_interval = 500 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();
  zlog::LogOptions log_options;
  log_options.name = "fig6trace";
  auto log = client->OpenLog(log_options);
  bool opened = false;
  log->Open([&](Status) { opened = true; });
  cluster.RunUntil([&] { return opened; });

  trace::TraceCollector collector;
  trace::ScopedCollector scoped(&collector);
  Buffer payload = Buffer::FromString(std::string(64, 'x'));
  int done = 0;
  std::function<void()> next = [&] {
    if (done >= total_appends) {
      return;
    }
    log->Append(payload, [&](Status, uint64_t) {
      ++done;
      next();
    });
  };
  next();
  cluster.RunUntil([&] { return done >= total_appends; }, 600 * sim::kSecond);
  return bench::BreakdownRoots(collector, "zlog.AppendBatch");
}

}  // namespace

int main() {
  using namespace mal::bench;
  using mal::mds::LeaseMode;
  PrintHeader("Figure 6: sequencer throughput vs sharing policy",
              "2 clients, 0.25 s max reservation, quota sweep; plus exclusive "
              "single-client ceiling and best-effort floor. 10 s per config.");
  PrintColumns({"config", "ops_per_sec", "avg_latency_us", "cap_exchanges"});

  JsonReporter json("fig6_seq_throughput");
  // One row: (ops/s, average latency); the raw samples are not kept.
  struct Row {
    double ops_per_sec;
    double latency_us;
  };
  auto report = [&json](const CapExperimentConfig& config) -> Row {
    CapExperimentResult result = RunCapExperiment(config);
    std::printf("%s\t%.0f\t%.2f\t%llu\n", result.name.c_str(), result.total_ops_per_sec,
                result.mean_latency_us,
                static_cast<unsigned long long>(result.cap_exchanges));
    std::vector<std::pair<std::string, double>> metrics = {
        {"ops_per_sec", result.total_ops_per_sec},
        {"mean_latency_us", result.mean_latency_us},
        {"cap_exchanges", static_cast<double>(result.cap_exchanges)}};
    if (result.events_dropped > 0) {
      // Truncated scatter data: surface it so a plot reader knows. Absent
      // when complete, keeping default-config JSON identical run to run.
      metrics.emplace_back("events_dropped", static_cast<double>(result.events_dropped));
    }
    json.Add(result.name, std::move(metrics));
    return Row{result.total_ops_per_sec, result.mean_latency_us};
  };

  // Exclusive: one client, nobody competes, cap never revoked.
  CapExperimentConfig exclusive;
  exclusive.name = "exclusive(1 client)";
  exclusive.mode = LeaseMode::kDelay;
  exclusive.num_clients = 1;
  Row exclusive_row = report(exclusive);

  std::vector<Row> quotas;  // ascending quota
  for (uint64_t quota : {1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL}) {
    CapExperimentConfig config;
    config.name = "quota(" + std::to_string(quota) + ")";
    config.mode = LeaseMode::kQuota;
    config.quota = quota;
    quotas.push_back(report(config));
  }

  CapExperimentConfig delay;
  delay.name = "delay(0.25s)";
  delay.mode = LeaseMode::kDelay;
  Row delay_row = report(delay);

  CapExperimentConfig best_effort;
  best_effort.name = "best-effort";
  best_effort.mode = LeaseMode::kBestEffort;
  Row best_effort_row = report(best_effort);

  constexpr int kTracedAppends = 256;
  PrintSection("per-hop breakdown (traced round-trip appends)");
  HopBreakdown hops = TracedAppendBreakdown(kTracedAppends);
  PrintBreakdown("round-trip-append", hops);
  std::vector<std::pair<std::string, double>> hop_metrics;
  AppendBreakdown(&hop_metrics, hops);
  json.Add("round-trip-append(breakdown)", std::move(hop_metrics));

  PrintSection("shape checks");
  std::vector<Row> shared = quotas;
  shared.push_back(delay_row);
  shared.push_back(best_effort_row);
  bool exclusive_top = true;
  for (const Row& row : shared) {
    exclusive_top &= exclusive_row.ops_per_sec >= row.ops_per_sec;
  }
  bool ops_rise = true;
  bool latency_falls = true;
  bool best_effort_bottom = true;
  for (size_t i = 0; i < quotas.size(); ++i) {
    best_effort_bottom &= best_effort_row.ops_per_sec <= quotas[i].ops_per_sec;
    if (i > 0) {
      ops_rise &= quotas[i].ops_per_sec >= quotas[i - 1].ops_per_sec;
      latency_falls &= quotas[i].latency_us <= quotas[i - 1].latency_us;
    }
  }
  bool ok = true;
  ok &= ShapeCheck("exclusive ops/s >= every shared config", exclusive_top);
  ok &= ShapeCheck("ops/s does not decrease as quota grows", ops_rise);
  ok &= ShapeCheck("best-effort ops/s <= every quota config", best_effort_bottom);
  ok &= ShapeCheck("average latency does not increase as quota grows", latency_falls);
  ok &= ShapeCheck("breakdown: one trace per traced append",
                   hops.traces == static_cast<size_t>(kTracedAppends));

  json.Write();
  return ok ? 0 : 1;
}
