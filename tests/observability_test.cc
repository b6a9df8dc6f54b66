// End-to-end observability (ISSUE 2): one Log::AppendBatch against a booted
// cluster must (a) leave non-zero perf counters from monitor, OSD, MDS, and
// client registries in the monitor's cluster-wide dump, and (b) produce a
// trace whose root span exactly covers its sequencer + OSD child spans on
// the simulator clock.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/trace.h"

namespace mal {
namespace {

TEST(ObservabilityTest, AppendBatchYieldsPerfDumpAndSpanTree) {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 3;
  options.num_mds = 1;
  cluster::Cluster cluster(options);
  cluster.Boot();
  cluster::Client* client = cluster.NewClient();
  client->StartPerfReports(500 * sim::kMillisecond);

  auto log = client->OpenLog();  // round-trip sequencer: seq hop is an MDS RPC
  bool opened = false;
  log->Open([&opened](mal::Status status) {
    ASSERT_TRUE(status.ok()) << status.ToString();
    opened = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&opened] { return opened; }));

  // Trace only the append itself, so the collector holds exactly one tree.
  trace::TraceCollector collector;
  trace::ScopedCollector scoped(&collector);

  std::vector<mal::Buffer> entries;
  for (int i = 0; i < 8; ++i) {
    entries.push_back(mal::Buffer::FromString("entry-" + std::to_string(i)));
  }
  bool done = false;
  std::vector<uint64_t> positions;
  log->AppendBatch(std::move(entries),
                   [&done, &positions](mal::Status status,
                                       const std::vector<uint64_t>& pos) {
                     ASSERT_TRUE(status.ok()) << status.ToString();
                     positions = pos;
                     done = true;
                   });
  ASSERT_TRUE(cluster.RunUntil([&done] { return done; }));
  ASSERT_EQ(positions.size(), 8u);

  // -- span tree ------------------------------------------------------------
  const trace::Span* root = nullptr;
  for (const trace::Span& span : collector.spans()) {
    if (span.name == "zlog.AppendBatch") {
      root = &span;
      break;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_FALSE(root->open);
  EXPECT_EQ(root->status, "ok");

  auto children = collector.ChildrenOf(root->span_id);
  ASSERT_FALSE(children.empty());
  bool saw_seq = false;
  bool saw_osd = false;
  uint64_t min_child_start = UINT64_MAX;
  uint64_t max_child_end = 0;
  for (const trace::Span* child : children) {
    EXPECT_FALSE(child->open) << child->name;
    min_child_start = std::min(min_child_start, child->start_ns);
    max_child_end = std::max(max_child_end, child->end_ns);
    if (child->name.find(":mds.") != std::string::npos) {
      saw_seq = true;
    }
    if (child->name.find(":osd.") != std::string::npos) {
      saw_osd = true;
    }
  }
  EXPECT_TRUE(saw_seq);  // the sequencer round-trip
  EXPECT_TRUE(saw_osd);  // the striped write transactions
  // The root opens in the same event that issues the sequencer RPC and
  // closes in the event that delivers the last OSD commit, so on the
  // simulator clock its extent equals the union of its children exactly.
  EXPECT_EQ(root->start_ns, min_child_start);
  EXPECT_EQ(root->end_ns, max_child_end);
  EXPECT_GT(root->end_ns, root->start_ns);

  // Server-side handle spans joined the same trace across the wire.
  bool saw_handle = false;
  for (const trace::Span* span : collector.TraceSpans(root->trace_id)) {
    if (span->name.rfind("handle:", 0) == 0) {
      saw_handle = true;
    }
  }
  EXPECT_TRUE(saw_handle);

  std::string tree = collector.RenderTree(root->trace_id);
  EXPECT_NE(tree.find("zlog.AppendBatch"), std::string::npos);
  auto hops = collector.HopStats(root->trace_id);
  EXPECT_FALSE(hops.empty());

  // -- cluster-wide perf dump ----------------------------------------------
  cluster.RunFor(2 * sim::kSecond);  // let periodic reports reach the monitor

  mon::Monitor& monitor = cluster.monitor();
  EXPECT_GT(monitor.perf().counter("mon.paxos.commits"), 0u);
  EXPECT_GT(monitor.perf().counter("mon.perf_reports"), 0u);

  bool osd_nonzero = false;
  bool mds_nonzero = false;
  bool client_nonzero = false;
  for (const auto& [entity, snap] : monitor.perf_reports()) {
    uint64_t sum = 0;
    for (const auto& [name, value] : snap.counters) {
      sum += value;
    }
    if (sum == 0) {
      continue;
    }
    if (entity.rfind("osd.", 0) == 0) {
      osd_nonzero = true;
    } else if (entity.rfind("mds.", 0) == 0) {
      mds_nonzero = true;
    } else if (entity.rfind("client.", 0) == 0) {
      client_nonzero = true;
    }
  }
  EXPECT_TRUE(osd_nonzero);
  EXPECT_TRUE(mds_nonzero);
  EXPECT_TRUE(client_nonzero);

  auto mds_report = monitor.perf_reports().find("mds.0");
  ASSERT_NE(mds_report, monitor.perf_reports().end());
  EXPECT_GE(mds_report->second.counters.at("mds.seq.batch_grants"), 1u);

  std::string json = monitor.PerfDumpJson();
  EXPECT_NE(json.find("\"entities\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster\""), std::string::npos);
  EXPECT_NE(json.find("mds.seq.batch_grants"), std::string::npos);
  EXPECT_NE(json.find("osd.cls.zlog.write_batch.count"), std::string::npos);
  EXPECT_NE(json.find("zlog.batches"), std::string::npos);

  // And the dump is reachable over the wire, not just in-process.
  bool got_dump = false;
  std::string rpc_json;
  client->rados.mon_client().GetPerfDump(
      [&got_dump, &rpc_json](mal::Status status, std::string dump) {
        ASSERT_TRUE(status.ok()) << status.ToString();
        rpc_json = std::move(dump);
        got_dump = true;
      });
  ASSERT_TRUE(cluster.RunUntil([&got_dump] { return got_dump; }));
  EXPECT_NE(rpc_json.find("\"entities\""), std::string::npos);
}

// Four clients contend for one MDS rank, so each log shares grants and
// stripe writes across its ready batches. The shared RPC spans hang under
// each group's first batch; every other member follows its link to them.
// Under an application root per call (as malbench opens), the critical
// path of every root must still telescope exactly, with next to nothing
// left unattributed ("other").
TEST(ObservabilityTest, SharedGrantCriticalPathsFollowLinks) {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 4;
  options.num_mds = 1;
  options.osd.replicas = 2;
  cluster::Cluster cluster(options);
  cluster.Boot();
  constexpr int kClients = 4;
  constexpr int kBatches = 16;
  std::vector<cluster::Client*> clients;
  std::vector<std::unique_ptr<zlog::Log>> logs;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(cluster.NewClient());
    zlog::LogOptions log_options;
    log_options.name = "traced" + std::to_string(c);
    log_options.max_inflight = 4;
    logs.push_back(clients.back()->OpenLog(log_options));
    bool opened = false;
    logs.back()->Open([&opened](mal::Status status) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      opened = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&opened] { return opened; }));
  }

  trace::TraceCollector collector;
  trace::ScopedCollector scoped(&collector);
  int done = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBatches; ++b) {
      trace::TraceContext root = collector.StartSpan(
          "app.append", clients[c]->name().ToString(), cluster.simulator().Now());
      trace::ScopedContext scope(root);
      std::vector<mal::Buffer> entries(8, mal::Buffer::FromString("payload"));
      logs[c]->AppendBatch(std::move(entries), [&, root](mal::Status status,
                                                         const std::vector<uint64_t>&) {
        EXPECT_TRUE(status.ok()) << status.ToString();
        collector.EndSpan(root, cluster.simulator().Now());
        ++done;
      });
    }
  }
  ASSERT_TRUE(cluster.RunUntil([&done] { return done == kClients * kBatches; }));
  uint64_t grants = 0;
  for (cluster::Client* client : clients) {
    grants += client->perf.counter("zlog.grants");
  }
  ASSERT_LT(grants, static_cast<uint64_t>(kClients * kBatches)) << "no batches shared a grant";

  int roots = 0;
  int linked = 0;
  for (const trace::Span& span : collector.spans()) {
    if (span.name == "zlog.AppendBatch") {
      linked += span.link_span_id != 0 ? 1 : 0;
    }
    if (span.name != "app.append") {
      continue;
    }
    ASSERT_FALSE(span.open);
    ++roots;
    trace::CriticalPath path = trace::AnalyzeCriticalPath(collector, span);
    uint64_t sum = 0;
    for (const auto& [segment, ns] : path.segment_ns) {
      sum += ns;
    }
    EXPECT_EQ(sum, path.total_ns) << "segments do not telescope";
    uint64_t other = path.segment_ns.count("other") != 0 ? path.segment_ns.at("other") : 0;
    EXPECT_LE(other * 20, path.total_ns)
        << "more than 5% unattributed: " << other << " of " << path.total_ns << " ns";
    // The shared sequencer grant and stripe commits are on every member's
    // own path, not just its leader's.
    EXPECT_GT(path.segment_ns.count("seq_wait"), 0u);
    EXPECT_GT(path.segment_ns.count("osd_commit"), 0u);
  }
  EXPECT_EQ(roots, kClients * kBatches);
  EXPECT_GT(linked, 0) << "no batch followed a shared grant";
}

}  // namespace
}  // namespace mal
