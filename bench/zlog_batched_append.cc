// Batched + pipelined ZLog append path vs the per-append seed path.
//
// The per-append path pays one MDS round-trip per position and one
// single-entry RADOS transaction per entry, so throughput is bound by
// per-RPC latency. The batched path reserves N contiguous positions in one
// sequencer round-trip, ships each stripe object ONE write_batch
// transaction carrying all of its entries, and keeps a window of batches
// in flight — the cross-layer optimization programmable storage enables.
//
// Both paths run on identical cluster and network parameters; results go
// to stdout and BENCH_zlog.json (appends/sec + latency percentiles). A last
// batched config puts 8 clients on 2 MDS ranks, where busy sequencers make
// each log coalesce its ready batches into shared grants.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"

namespace {

using namespace mal;
using namespace mal::bench;

constexpr int kTotalEntries = 2048;
constexpr size_t kPayloadBytes = 64;

cluster::ClusterOptions BenchCluster() {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 4;
  options.num_mds = 1;
  options.osd.replicas = 2;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  return options;
}

struct RunResult {
  double appends_per_sec = 0;
  Histogram latency_us;  // per-append (seed) or per-batch (batched)
  HopBreakdown hops;     // trace-derived: queue vs sequencer vs OSD commit
  uint64_t grants = 0;   // sequencer grant RPCs sent (zlog.grants)
  uint64_t batches = 0;  // AppendBatch calls (zlog.batches)
};

// Per-append path: one Append at a time, each a one-entry batch, so a full
// sequencer RPC + a single-entry object transaction.
RunResult RunPerAppend(int total) {
  cluster::Cluster cluster(BenchCluster());
  cluster.Boot();
  auto* client = cluster.NewClient();
  zlog::LogOptions log_options;
  log_options.name = "seedpath";
  auto log = client->OpenLog(log_options);
  bool opened = false;
  log->Open([&](Status) { opened = true; });
  cluster.RunUntil([&] { return opened; });

  RunResult result;
  // Trace every append; contexts are excluded from the wire-size model, so
  // the measured run is identical to an untraced one.
  trace::TraceCollector collector;
  trace::ScopedCollector scoped(&collector);
  Buffer payload = Buffer::FromString(std::string(kPayloadBytes, 'x'));
  int done = 0;
  sim::Time begin = cluster.simulator().Now();
  std::function<void()> next = [&] {
    if (done >= total) {
      return;
    }
    sim::Time issued = cluster.simulator().Now();
    log->Append(payload, [&, issued](Status s, uint64_t) {
      if (s.ok()) {
        result.latency_us.Add(static_cast<double>(cluster.simulator().Now() - issued) /
                              1e3);
      }
      ++done;
      next();
    });
  };
  next();
  cluster.RunUntil([&] { return done >= total; }, 600 * sim::kSecond);
  double elapsed_sec =
      static_cast<double>(cluster.simulator().Now() - begin) / 1e9;
  result.appends_per_sec = elapsed_sec > 0 ? total / elapsed_sec : 0;
  result.hops = BreakdownRoots(collector, "zlog.AppendBatch");
  return result;
}

// Batched path: entries grouped into batches of `batch_size`, up to
// `window` batches in flight concurrently.
RunResult RunBatched(int total, int batch_size, uint32_t window,
                     size_t payload_bytes = kPayloadBytes) {
  cluster::Cluster cluster(BenchCluster());
  cluster.Boot();
  auto* client = cluster.NewClient();
  zlog::LogOptions log_options;
  log_options.name = "batchedpath";
  log_options.max_inflight = window;
  auto log = client->OpenLog(log_options);
  bool opened = false;
  log->Open([&](Status) { opened = true; });
  cluster.RunUntil([&] { return opened; });

  RunResult result;
  trace::TraceCollector collector;
  trace::ScopedCollector scoped(&collector);
  Buffer payload = Buffer::FromString(std::string(payload_bytes, 'x'));
  int batches = (total + batch_size - 1) / batch_size;
  int completed = 0;
  sim::Time begin = cluster.simulator().Now();
  for (int b = 0; b < batches; ++b) {
    std::vector<Buffer> entries(batch_size, payload);
    sim::Time issued = cluster.simulator().Now();
    log->AppendBatch(std::move(entries),
                     [&, issued](Status s, const std::vector<uint64_t>&) {
                       if (s.ok()) {
                         result.latency_us.Add(
                             static_cast<double>(cluster.simulator().Now() - issued) /
                             1e3);
                       }
                       ++completed;
                     });
  }
  cluster.RunUntil([&] { return completed >= batches; }, 600 * sim::kSecond);
  double elapsed_sec =
      static_cast<double>(cluster.simulator().Now() - begin) / 1e9;
  result.appends_per_sec =
      elapsed_sec > 0 ? static_cast<double>(batches * batch_size) / elapsed_sec : 0;
  result.hops = BreakdownRoots(collector, "zlog.AppendBatch");
  result.grants = client->perf.counter("zlog.grants");
  result.batches = client->perf.counter("zlog.batches");
  return result;
}

// Contended sequencers: `clients` clients drive one log each, `total`
// entries apiece, with the sequencers spread over two MDS ranks (odd logs
// move to rank 1). Every rank serves several clients at once, so grant
// replies carry the contention hint and each log coalesces its ready
// batches into shared grants.
RunResult RunContended(int clients, int total, int batch_size, uint32_t window) {
  cluster::ClusterOptions options = BenchCluster();
  options.num_mds = 2;
  options.mds.seq_ownership = true;
  cluster::Cluster cluster(options);
  cluster.Boot();
  std::vector<cluster::Client*> handles;
  std::vector<std::unique_ptr<zlog::Log>> logs;
  int opened = 0;
  for (int c = 0; c < clients; ++c) {
    handles.push_back(cluster.NewClient());
    zlog::LogOptions log_options;
    log_options.name = "contended" + std::to_string(c);
    log_options.max_inflight = window;
    logs.push_back(handles.back()->OpenLog(log_options));
    logs.back()->Open([&](Status) { ++opened; });
  }
  cluster.RunUntil([&] { return opened == clients; });
  int migrated = 0;
  for (int c = 1; c < clients; c += 2) {
    cluster.mds(0).MigrateSequencer(logs[c]->sequencer_path(), 1,
                                    [&](Status) { ++migrated; });
  }
  cluster.RunUntil([&] { return migrated == clients / 2; }, 60 * sim::kSecond);
  cluster.RunFor(2 * sim::kSecond);  // let the ownership publishes commit

  RunResult result;
  trace::TraceCollector collector;
  trace::ScopedCollector scoped(&collector);
  Buffer payload = Buffer::FromString(std::string(kPayloadBytes, 'x'));
  int batches = (total + batch_size - 1) / batch_size;
  int completed = 0;
  sim::Time begin = cluster.simulator().Now();
  for (auto& log : logs) {
    for (int b = 0; b < batches; ++b) {
      std::vector<Buffer> entries(batch_size, payload);
      sim::Time issued = cluster.simulator().Now();
      log->AppendBatch(std::move(entries),
                       [&, issued](Status s, const std::vector<uint64_t>&) {
                         if (s.ok()) {
                           result.latency_us.Add(
                               static_cast<double>(cluster.simulator().Now() - issued) /
                               1e3);
                         }
                         ++completed;
                       });
    }
  }
  cluster.RunUntil([&] { return completed >= clients * batches; }, 600 * sim::kSecond);
  double elapsed_sec =
      static_cast<double>(cluster.simulator().Now() - begin) / 1e9;
  result.appends_per_sec =
      elapsed_sec > 0 ? static_cast<double>(clients * batches * batch_size) / elapsed_sec
                      : 0;
  result.hops = BreakdownRoots(collector, "zlog.AppendBatch");
  for (cluster::Client* client : handles) {
    result.grants += client->perf.counter("zlog.grants");
    result.batches += client->perf.counter("zlog.batches");
  }
  return result;
}

}  // namespace

int main() {
  PrintHeader("ZLog batched + pipelined append path",
              "Per-append seed path vs AppendBatch (sequencer batching, "
              "per-stripe write_batch transactions, in-flight window). "
              "Identical cluster/network parameters; 2048 appends each.");
  PrintColumns({"config", "appends_per_sec", "lat_p50_us", "lat_p99_us",
                "queue_us", "seq_wait_us", "osd_commit_us", "grants", "batches"});

  JsonReporter json("zlog");
  auto report = [&json](const std::string& name, const RunResult& r,
                        double batch_size, double window) {
    std::printf("%s\t%.0f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%llu\t%llu\n", name.c_str(),
                r.appends_per_sec, r.latency_us.Quantile(0.50),
                r.latency_us.Quantile(0.99), r.hops.queue_us.mean(),
                r.hops.seq_us.mean(), r.hops.osd_us.mean(),
                static_cast<unsigned long long>(r.grants),
                static_cast<unsigned long long>(r.batches));
    std::vector<std::pair<std::string, double>> metrics = {
        {"appends_per_sec", r.appends_per_sec},
        {"batch_size", batch_size},
        {"window", window},
        {"entries", kTotalEntries},
        {"grants", static_cast<double>(r.grants)},
        {"batches", static_cast<double>(r.batches)},
    };
    JsonReporter::AppendLatency(&metrics, r.latency_us, "latency_us");
    AppendBreakdown(&metrics, r.hops);
    json.Add(name, std::move(metrics), /*events=*/kTotalEntries);
  };

  RunResult seed = RunPerAppend(kTotalEntries);
  report("per-append(seed)", seed, 1, 1);

  RunResult batch_only = RunBatched(kTotalEntries, 16, 1);
  report("batched(b=16,w=1)", batch_only, 16, 1);

  RunResult batched = RunBatched(kTotalEntries, 16, 4);
  report("batched(b=16,w=4)", batched, 16, 4);

  WallTimer wide_timer;
  RunResult wide = RunBatched(kTotalEntries, 64, 8);
  double wide_wall = wide_timer.Seconds();
  report("batched(b=64,w=8)", wide, 64, 8);

  // Host-cost probe: same event count as batched(b=64,w=8) but 256x the
  // byte volume (16 KiB payloads). With O(bytes-touched) staging the wall
  // cost grows with bytes shipped (encode + append + replicate), far slower
  // than byte volume; with O(object) copy-per-transaction staging every
  // append re-copies the ever-growing stripe object and the ratio explodes.
  // Runs on its own cluster, so the simulated metrics of the configs above
  // are untouched.
  // 8 clients x one log each on 2 MDS ranks: the contention-aware grant
  // coalescing path.
  RunResult contended = RunContended(8, kTotalEntries, 16, 4);
  report("contended(8x1,b=16,w=4)", contended, 16, 4);

  WallTimer big_timer;
  RunResult big = RunBatched(kTotalEntries, 64, 8, /*payload_bytes=*/16 << 10);
  double big_wall = big_timer.Seconds();
  report("batched(b=64,w=8,16KiB)", big, 64, 8);

  PrintSection("shape checks");
  double speedup =
      seed.appends_per_sec > 0 ? batched.appends_per_sec / seed.appends_per_sec : 0;
  std::printf("batched(b=16,w=4) vs per-append speedup: %.1fx\n", speedup);
  bool ok = true;
  ok &= ShapeCheck("batched(b=16,w=4) >= 5x per-append simulated throughput",
                   speedup >= 5.0);
  ok &= ShapeCheck("single client: one grant RPC per batch (uncontended path unchanged)",
                   batched.grants == batched.batches);
  ok &= ShapeCheck("contended: grant RPCs <= 0.9x batches",
                   contended.batches > 0 && 10 * contended.grants <= 9 * contended.batches);
  ok &= ShapeCheck("per-append breakdown: one trace per append",
                   seed.hops.traces == static_cast<size_t>(kTotalEntries));
  std::printf("wall: batched(b=64,w=8) 64B=%.3fs, 16KiB=%.3fs (%.1fx for 256x bytes)\n",
              wide_wall, big_wall, wide_wall > 0 ? big_wall / wide_wall : 0);
  ok &= ShapeCheck("16KiB-payload wall grows >=8x slower than byte volume (<=32x)",
                   big_wall <= 32.0 * wide_wall);
  json.Write();
  return ok ? 0 : 1;
}
