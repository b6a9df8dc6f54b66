// Programmable telemetry (ISSUE 7): the monitor's time-series store with
// multi-resolution rollups, MalScript health rules raising/clearing alerts,
// critical-path trace analysis, the per-actor profiler, and the structured
// log sink. Unit tests drive SeriesStore/HealthEngine with synthetic
// snapshots; integration tests assert the full arc over a booted cluster —
// including the chaos contract: crash -> HEALTH_WARN -> heal -> HEALTH_OK.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/log.h"
#include "src/common/perf.h"
#include "src/common/trace.h"
#include "src/sim/profiler.h"
#include "src/telemetry/health.h"
#include "src/telemetry/series.h"

namespace mal {
namespace {

constexpr uint64_t kS = 1'000'000'000ull;  // one sim-second in ns

PerfSnapshot CounterSnap(const std::string& entity, uint64_t time_ns,
                         const std::string& name, uint64_t value) {
  PerfSnapshot snap;
  snap.entity = entity;
  snap.time_ns = time_ns;
  snap.counters[name] = value;
  return snap;
}

// -- SeriesStore -------------------------------------------------------------

TEST(SeriesStoreTest, CounterDeltasRollIntoWindows) {
  telemetry::SeriesStore store;
  store.Ingest(CounterSnap("osd.0", 5 * kS, "ops", 100));
  store.Ingest(CounterSnap("osd.0", 15 * kS, "ops", 250));
  // Cumulative value went backwards: the daemon restarted and its registry
  // reset, so the post-restart value is itself the delta.
  store.Ingest(CounterSnap("osd.0", 25 * kS, "ops", 240));

  const telemetry::Series* s = store.Find("osd.0", "ops");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind(), telemetry::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(s->Last(), 240);  // counters report the cumulative value

  ASSERT_EQ(s->raw().size(), 3u);  // but store per-report deltas
  EXPECT_DOUBLE_EQ(s->raw()[0].value, 100);
  EXPECT_DOUBLE_EQ(s->raw()[1].value, 150);
  EXPECT_DOUBLE_EQ(s->raw()[2].value, 240);

  const auto& w10 = s->rollup10().windows();
  ASSERT_EQ(w10.size(), 3u);
  EXPECT_EQ(w10[0].start_ns, 0u);
  EXPECT_DOUBLE_EQ(w10[0].sum, 100);
  EXPECT_EQ(w10[1].start_ns, 10 * kS);
  EXPECT_DOUBLE_EQ(w10[1].sum, 150);
  EXPECT_EQ(w10[2].start_ns, 20 * kS);
  EXPECT_DOUBLE_EQ(w10[2].sum, 240);

  const auto& w60 = s->rollup60().windows();
  ASSERT_EQ(w60.size(), 1u);
  EXPECT_EQ(w60[0].count, 3u);
  EXPECT_DOUBLE_EQ(w60[0].sum, 490);  // total increase over the minute
  EXPECT_DOUBLE_EQ(w60[0].min, 100);
  EXPECT_DOUBLE_EQ(w60[0].max, 240);

  telemetry::WindowStats stats = store.Stats("osd.0", "ops", 30 * kS, 25 * kS);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.sum, 490);
  EXPECT_EQ(store.LastReportNs("osd.0"), 25 * kS);
}

TEST(SeriesStoreTest, GaugeWindowsTrackMinMaxAndRawQueries) {
  telemetry::SeriesStore store;
  PerfSnapshot snap;
  snap.entity = "mds.0";
  for (auto [t, v] : std::vector<std::pair<uint64_t, double>>{
           {1 * kS, 5.0}, {2 * kS, 1.0}, {3 * kS, 9.0}}) {
    snap.time_ns = t;
    snap.gauges["load"] = v;
    store.Ingest(snap);
  }

  const telemetry::Series* s = store.Find("mds.0", "load");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->Last(), 9.0);  // gauges: latest sampled value
  const auto& w10 = s->rollup10().windows();
  ASSERT_EQ(w10.size(), 1u);
  EXPECT_EQ(w10[0].count, 3u);
  EXPECT_DOUBLE_EQ(w10[0].min, 1.0);
  EXPECT_DOUBLE_EQ(w10[0].max, 9.0);
  EXPECT_DOUBLE_EQ(w10[0].sum, 15.0);
  EXPECT_DOUBLE_EQ(w10[0].last, 9.0);

  // Raw queries are points dressed as single-observation windows.
  auto raw = store.Query("mds.0", "load", telemetry::Resolution::kRaw, 2 * kS);
  ASSERT_EQ(raw.size(), 2u);
  EXPECT_DOUBLE_EQ(raw[0].last, 1.0);
  EXPECT_DOUBLE_EQ(raw[1].last, 9.0);
  EXPECT_TRUE(store.Query("mds.0", "nope", telemetry::Resolution::kRaw, 0).empty());
}

TEST(SeriesStoreTest, HistogramsBecomeDerivedSubMetrics) {
  telemetry::SeriesStore store;
  PerfSnapshot snap;
  snap.entity = "client.0";
  snap.time_ns = 4 * kS;
  snap.histograms["lat_us"].samples = {100, 200, 1000};
  snap.histograms["lat_us"].observed = 3;
  snap.histograms["lat_us"].min = 100;
  snap.histograms["lat_us"].max = 1000;
  store.Ingest(snap);

  auto metrics = store.Metrics("client.0");
  EXPECT_EQ(metrics, (std::vector<std::string>{"lat_us.count", "lat_us.max",
                                               "lat_us.mean", "lat_us.min",
                                               "lat_us.p99"}));
  EXPECT_DOUBLE_EQ(store.Find("client.0", "lat_us.min")->Last(), 100);
  EXPECT_DOUBLE_EQ(store.Find("client.0", "lat_us.max")->Last(), 1000);
  EXPECT_NEAR(store.Find("client.0", "lat_us.mean")->Last(), 433.333, 0.01);
  EXPECT_GE(store.Find("client.0", "lat_us.p99")->Last(), 200);
  // .count rides as a counter so windows read as "samples in this window".
  EXPECT_EQ(store.Find("client.0", "lat_us.count")->kind(),
            telemetry::MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(store.Find("client.0", "lat_us.count")->Last(), 3);
}

TEST(SeriesStoreTest, RingCapacitiesBoundMemory) {
  telemetry::SeriesStore::Limits limits;
  limits.raw_cap = 4;
  limits.w10_cap = 2;
  limits.w60_cap = 2;
  telemetry::SeriesStore store(limits);
  PerfSnapshot snap;
  snap.entity = "osd.0";
  for (uint64_t i = 0; i < 30; ++i) {
    snap.time_ns = i * 10 * kS;
    snap.gauges["depth"] = static_cast<double>(i);
    store.Ingest(snap);
  }
  const telemetry::Series* s = store.Find("osd.0", "depth");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->raw().size(), 4u);
  EXPECT_EQ(s->rollup10().windows().size(), 2u);
  EXPECT_EQ(s->rollup60().windows().size(), 2u);
  // Evicted from the front: the newest windows survive.
  EXPECT_EQ(s->rollup10().windows().back().start_ns, 290 * kS);
  EXPECT_EQ(store.series_count(), 1u);
}

TEST(SeriesStoreTest, WindowWireRoundTrip) {
  telemetry::Window w{7 * kS, 42, -1.5, 99.25, 1234.5, 8.0};
  mal::Buffer buf;
  mal::Encoder enc(&buf);
  enc(w);
  auto back_or = mal::Decode<telemetry::Window>(buf);
  ASSERT_TRUE(back_or.ok());
  const telemetry::Window& back = back_or.value();
  EXPECT_EQ(back.start_ns, w.start_ns);
  EXPECT_EQ(back.count, w.count);
  EXPECT_DOUBLE_EQ(back.min, w.min);
  EXPECT_DOUBLE_EQ(back.max, w.max);
  EXPECT_DOUBLE_EQ(back.sum, w.sum);
  EXPECT_DOUBLE_EQ(back.last, w.last);
}

// -- HealthEngine ------------------------------------------------------------

PerfSnapshot TailSnap(uint64_t time_ns, double p99ish) {
  PerfSnapshot snap;
  snap.entity = "client.0";
  snap.time_ns = time_ns;
  snap.histograms["zlog.batch_us"].samples = {p99ish};
  snap.histograms["zlog.batch_us"].observed = 1;
  snap.histograms["zlog.batch_us"].min = p99ish;
  snap.histograms["zlog.batch_us"].max = p99ish;
  return snap;
}

TEST(HealthEngineTest, RuleFiresAndClearsAcrossLatencySpike) {
  telemetry::SeriesStore store;
  telemetry::HealthEngine health(&store);
  ASSERT_TRUE(health
                  .InstallRule("tail",
                               R"(
local p99 = series_last("client.0", "zlog.batch_us.p99")
if p99 > params.budget_us then
  alert("tail", "WARN", "client.0 p99 " .. p99 .. "us over budget", p99)
end
)",
                               {{"budget_us", 500.0}})
                  .ok());

  // Quiet baseline: nothing fires.
  store.Ingest(TailSnap(1 * kS, 120));
  EXPECT_TRUE(health.Evaluate(1 * kS).empty());
  EXPECT_EQ(health.Overall(), telemetry::HealthSeverity::kOk);

  // Induced latency spike raises the alert...
  store.Ingest(TailSnap(10 * kS, 2000));
  auto up = health.Evaluate(10 * kS);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_TRUE(up[0].raised);
  EXPECT_EQ(up[0].severity, telemetry::HealthSeverity::kWarn);
  EXPECT_NE(up[0].text.find("HEALTH_WARN: tail"), std::string::npos);
  EXPECT_EQ(health.Overall(), telemetry::HealthSeverity::kWarn);
  ASSERT_EQ(health.alerts().count("tail"), 1u);
  EXPECT_DOUBLE_EQ(health.alerts().at("tail").value, 2000);
  EXPECT_NE(health.ToJson(10 * kS).find("HEALTH_WARN"), std::string::npos);

  // Still firing on the next tick: no duplicate transition, since_ns sticks.
  EXPECT_TRUE(health.Evaluate(11 * kS).empty());
  EXPECT_EQ(health.alerts().at("tail").since_ns, 10 * kS);

  // ...and the spike subsiding clears it with no rule-side bookkeeping.
  store.Ingest(TailSnap(20 * kS, 90));
  auto down = health.Evaluate(20 * kS);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_FALSE(down[0].raised);
  EXPECT_EQ(down[0].text, "HEALTH_OK: cleared tail");
  EXPECT_EQ(health.Overall(), telemetry::HealthSeverity::kOk);
  EXPECT_TRUE(health.alerts().empty());
  EXPECT_NE(health.ToJson(20 * kS).find("HEALTH_OK"), std::string::npos);
}

TEST(HealthEngineTest, RuleErrorsSurfaceAsAlerts) {
  telemetry::SeriesStore store;
  telemetry::HealthEngine health(&store);
  // Syntax errors fail at install...
  EXPECT_FALSE(health.InstallRule("broken", "if while do").ok());
  EXPECT_EQ(health.rule_count(), 0u);
  // ...runtime errors fire a visible rule_error alert instead of silently
  // disabling monitoring.
  ASSERT_TRUE(health.InstallRule("bad_args", "alert(\"only-a-name\")").ok());
  auto transitions = health.Evaluate(5 * kS);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_TRUE(transitions[0].raised);
  EXPECT_EQ(health.alerts().count("rule_error:bad_args"), 1u);
  EXPECT_EQ(health.Overall(), telemetry::HealthSeverity::kWarn);
}

TEST(HealthEngineTest, StatePersistsAcrossTicksMantleStyle) {
  telemetry::SeriesStore store;
  telemetry::HealthEngine health(&store);
  ASSERT_TRUE(health
                  .InstallRule("debounce", R"(
if state.ticks == nil then state.ticks = 0 end
state.ticks = state.ticks + 1
if state.ticks >= 3 then
  alert("debounced", "WARN", "fired after " .. state.ticks .. " ticks")
end
)")
                  .ok());
  EXPECT_TRUE(health.Evaluate(1 * kS).empty());
  EXPECT_TRUE(health.Evaluate(2 * kS).empty());
  EXPECT_EQ(health.Evaluate(3 * kS).size(), 1u);
  EXPECT_EQ(health.alerts().count("debounced"), 1u);
}

TEST(HealthEngineTest, BuiltinStaleDaemonRuleFiresOnSilence) {
  telemetry::SeriesStore store;
  telemetry::HealthEngine health(&store);
  health.InstallBuiltinRules();
  EXPECT_EQ(health.rule_count(), 6u);

  store.Ingest(CounterSnap("osd.1", 1 * kS, "osd.op.write.count", 10));
  EXPECT_TRUE(health.Evaluate(2 * kS).empty());  // fresh: 1s old

  // Silent for > max_age_s (5s): stale alert raises.
  auto up = health.Evaluate(10 * kS);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_NE(up[0].text.find("stale:osd.1"), std::string::npos);
  EXPECT_EQ(health.Overall(), telemetry::HealthSeverity::kWarn);

  // A fresh report clears it.
  store.Ingest(CounterSnap("osd.1", 11 * kS, "osd.op.write.count", 12));
  auto down = health.Evaluate(12 * kS);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].text, "HEALTH_OK: cleared stale:osd.1");
  EXPECT_EQ(health.Overall(), telemetry::HealthSeverity::kOk);
}

// Synthetic scrub-agent report: pass gauges plus the cumulative scan counter.
PerfSnapshot ScrubSnap(uint64_t time_ns, double degraded, double tracked,
                       uint64_t scanned_total) {
  PerfSnapshot snap;
  snap.entity = "scrub.0";
  snap.time_ns = time_ns;
  snap.gauges["scrub.degraded_objects"] = degraded;
  snap.gauges["scrub.objects_tracked"] = tracked;
  snap.counters["scrub.objects_scanned"] = scanned_total;
  return snap;
}

TEST(HealthEngineTest, BuiltinEcDegradedRuleRaisesAndClears) {
  telemetry::SeriesStore store;
  telemetry::HealthEngine health(&store);
  health.InstallBuiltinRules();

  // Healthy pass: scanning, nothing degraded.
  store.Ingest(ScrubSnap(1 * kS, /*degraded=*/0, /*tracked=*/4, /*scanned=*/4));
  EXPECT_TRUE(health.Evaluate(1 * kS).empty());

  // A pass finds degraded objects: WARN raises.
  store.Ingest(ScrubSnap(2 * kS, /*degraded=*/3, /*tracked=*/4, /*scanned=*/8));
  auto up = health.Evaluate(2 * kS);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_NE(up[0].text.find("ec_degraded:scrub.0"), std::string::npos);
  EXPECT_EQ(health.Overall(), telemetry::HealthSeverity::kWarn);

  // Repair brought the pool back to full redundancy: alert clears.
  store.Ingest(ScrubSnap(3 * kS, /*degraded=*/0, /*tracked=*/4, /*scanned=*/12));
  auto down = health.Evaluate(3 * kS);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].text, "HEALTH_OK: cleared ec_degraded:scrub.0");
  EXPECT_EQ(health.Overall(), telemetry::HealthSeverity::kOk);
}

TEST(HealthEngineTest, BuiltinScrubStalledRuleFiresWhenScanningStops) {
  telemetry::SeriesStore store;
  telemetry::HealthEngine health(&store);
  health.InstallBuiltinRules();

  // Actively scanning: the window sum of scan deltas is positive.
  store.Ingest(ScrubSnap(1 * kS, /*degraded=*/0, /*tracked=*/5, /*scanned=*/5));
  EXPECT_TRUE(health.Evaluate(1 * kS).empty());

  // Still reporting (so stale_daemon stays quiet) and still tracking
  // objects, but the scan counter stopped moving: ERR raises.
  store.Ingest(ScrubSnap(20 * kS, /*degraded=*/0, /*tracked=*/5, /*scanned=*/5));
  auto up = health.Evaluate(20 * kS);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_NE(up[0].text.find("scrub_stalled:scrub.0"), std::string::npos);
  EXPECT_EQ(health.Overall(), telemetry::HealthSeverity::kErr);

  // Scanning resumes: alert clears.
  store.Ingest(ScrubSnap(21 * kS, /*degraded=*/0, /*tracked=*/5, /*scanned=*/9));
  auto down = health.Evaluate(21 * kS);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].text, "HEALTH_OK: cleared scrub_stalled:scrub.0");
  EXPECT_EQ(health.Overall(), telemetry::HealthSeverity::kOk);
}

// -- Perf dump satellites ----------------------------------------------------

TEST(PerfDumpTest, StaleEntitiesAreFlaggedWithReportAge) {
  PerfSnapshot old_snap = CounterSnap("osd.0", 1 * kS, "ops", 5);
  PerfSnapshot fresh_snap = CounterSnap("osd.1", 19 * kS, "ops", 7);
  PerfDumpOptions options;
  options.stale_after_ns = 10 * kS;
  std::string json =
      PerfDumpToJson({old_snap, fresh_snap}, 20 * kS, options);
  EXPECT_NE(json.find("\"report_age_us\": 19000000"), std::string::npos);
  EXPECT_NE(json.find("\"report_age_us\": 1000000"), std::string::npos);
  // Exactly one stale flag: the silent daemon's.
  size_t first = json.find("\"stale\": true");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(json.find("\"stale\": true", first + 1), std::string::npos);
  EXPECT_LT(first, json.find("\"osd.1\""));
}

TEST(BoundedHistogramTest, ExactExtremesSurviveDecimation) {
  BoundedHistogram hist(8);
  for (int i = 0; i < 1000; ++i) {
    hist.Observe(static_cast<double>((i * 37) % 1000) + 1);
  }
  EXPECT_EQ(hist.observed(), 1000u);
  EXPECT_LT(hist.samples().size(), 100u);  // decimation kicked in
  EXPECT_DOUBLE_EQ(hist.min(), 1);
  EXPECT_DOUBLE_EQ(hist.max(), 1000);

  // The exact extremes ride the snapshot and survive merging.
  PerfRegistry reg;
  reg.Observe("lat", 50);
  reg.Observe("lat", 3);
  reg.Observe("lat", 700);
  PerfSnapshot snap = reg.Snapshot("osd.0", 1 * kS);
  EXPECT_DOUBLE_EQ(snap.histograms.at("lat").min, 3);
  EXPECT_DOUBLE_EQ(snap.histograms.at("lat").max, 700);

  BoundedHistogram merged;
  merged.Observe(100);
  merged.MergeSamples({3, 700}, 2);
  EXPECT_DOUBLE_EQ(merged.min(), 3);
  EXPECT_DOUBLE_EQ(merged.max(), 700);
}

// -- Structured log sink -----------------------------------------------------

TEST(JsonLogTest, FormatsOneObjectPerLine) {
  std::string line = FormatJsonLogLine(LogLevel::kWarn, /*has_context=*/true,
                                       1'500'000'000, "osd.1", "osd",
                                       "said \"hi\"\nbye\\");
  EXPECT_EQ(line,
            "{\"t_s\": 1.500000, \"node\": \"osd.1\", \"component\": \"osd\", "
            "\"level\": \"WARN\", \"msg\": \"said \\\"hi\\\"\\nbye\\\\\"}");
  // Outside any actor context the stamp is omitted.
  std::string bare = FormatJsonLogLine(LogLevel::kError, /*has_context=*/false,
                                       0, "", "bench", "boom");
  EXPECT_EQ(bare,
            "{\"component\": \"bench\", \"level\": \"ERROR\", \"msg\": \"boom\"}");

  SetJsonLogging(true);
  EXPECT_TRUE(JsonLoggingEnabled());
  SetJsonLogging(false);
  EXPECT_FALSE(JsonLoggingEnabled());
}

// -- Cluster integration -----------------------------------------------------

// Opens a log on `client` and appends `n` entries in one batch. Daemons only
// push perf reports once their registries are non-empty, so every cluster
// test needs some workload before the monitor's series store fills up.
void RunAppendWorkload(cluster::Cluster* cluster, cluster::Client* client, int n) {
  auto log = client->OpenLog();
  bool opened = false;
  log->Open([&opened](mal::Status status) { opened = status.ok(); });
  ASSERT_TRUE(cluster->RunUntil([&opened] { return opened; }));
  std::vector<mal::Buffer> entries;
  for (int i = 0; i < n; ++i) {
    entries.push_back(mal::Buffer::FromString("entry-" + std::to_string(i)));
  }
  bool done = false;
  log->AppendBatch(std::move(entries),
                   [&done](mal::Status status, const std::vector<uint64_t>&) {
                     ASSERT_TRUE(status.ok());
                     done = true;
                   });
  ASSERT_TRUE(cluster->RunUntil([&done] { return done; }));
}

// Boots a telemetry-enabled cluster, appends a batch, and returns the
// monitor's deterministic artifacts (series + health JSON).
struct TelemetryRun {
  std::string series_json;
  std::string health_json;
  std::string profile_json;
};

TelemetryRun RunTelemetryWorkload() {
  sim::Profiler profiler;
  sim::ScopedProfiler scoped(&profiler);

  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 3;
  options.num_mds = 1;
  options.mon.telemetry_interval = 500 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  cluster::Client* client = cluster.NewClient();
  client->StartPerfReports(500 * sim::kMillisecond);
  RunAppendWorkload(&cluster, client, 8);
  cluster.RunFor(3 * sim::kSecond);  // reports + a few telemetry ticks

  mon::Monitor& monitor = cluster.monitor();
  TelemetryRun out;
  out.series_json = monitor.series().ToJson(cluster.simulator().Now());
  out.health_json = monitor.HealthJson();
  out.profile_json = profiler.ToJson();
  return out;
}

TEST(TelemetryClusterTest, MonitorIngestsReportsIntoSeries) {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 3;
  options.num_mds = 1;
  options.mon.telemetry_interval = 500 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  cluster::Client* client = cluster.NewClient();
  client->StartPerfReports(500 * sim::kMillisecond);
  RunAppendWorkload(&cluster, client, 8);
  cluster.RunFor(3 * sim::kSecond);

  mon::Monitor& monitor = cluster.monitor();
  ASSERT_TRUE(monitor.telemetry_enabled());
  // Every daemon class reported into the store — including the monitor's
  // own registry, folded in each telemetry tick.
  auto entities = monitor.series().Entities();
  auto has = [&entities](const std::string& prefix) {
    for (const std::string& e : entities) {
      if (e.rfind(prefix, 0) == 0) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has("osd."));
  EXPECT_TRUE(has("mds."));
  EXPECT_TRUE(has("client."));
  EXPECT_TRUE(has("mon."));
  EXPECT_GT(monitor.health().evaluations(), 0u);

  // The append landed in the client's counter series.
  telemetry::WindowStats appends = monitor.series().Stats(
      "client.0", "zlog.batches", 60 * kS, cluster.simulator().Now());
  EXPECT_GT(appends.sum, 0);

  // Series are queryable over the wire (kMsgQuerySeries)...
  mon::QuerySeriesRequest req;
  req.entity = "client.0";
  req.metric = "zlog.batches";
  req.resolution = 1;  // 10s rollups
  req.since_ns = 0;
  bool got_windows = false;
  client->rados.mon_client().QuerySeries(
      req, [&got_windows](mal::Status status, std::vector<telemetry::Window> windows) {
        ASSERT_TRUE(status.ok()) << status.ToString();
        ASSERT_FALSE(windows.empty());
        double sum = 0;
        for (const telemetry::Window& w : windows) {
          sum += w.sum;
        }
        EXPECT_GT(sum, 0);
        got_windows = true;
      });
  ASSERT_TRUE(cluster.RunUntil([&got_windows] { return got_windows; }));

  // ...and so is cluster health (kMsgGetHealth).
  bool got_health = false;
  client->rados.mon_client().GetHealth(
      [&got_health](mal::Status status, std::string json) {
        ASSERT_TRUE(status.ok()) << status.ToString();
        EXPECT_NE(json.find("\"status\": \"HEALTH_OK\""), std::string::npos);
        EXPECT_NE(json.find("stale_daemon"), std::string::npos);
        got_health = true;
      });
  ASSERT_TRUE(cluster.RunUntil([&got_health] { return got_health; }));

  // The perf dump carries the telemetry and health sections.
  std::string dump = monitor.PerfDumpJson();
  EXPECT_NE(dump.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(dump.find("\"health\""), std::string::npos);
  EXPECT_NE(dump.find("\"report_age_us\""), std::string::npos);
}

TEST(TelemetryClusterTest, SameSeedRunsProduceByteIdenticalArtifacts) {
  TelemetryRun a = RunTelemetryWorkload();
  TelemetryRun b = RunTelemetryWorkload();
  EXPECT_EQ(a.series_json, b.series_json);
  EXPECT_EQ(a.health_json, b.health_json);
  EXPECT_EQ(a.profile_json, b.profile_json);
  EXPECT_NE(a.series_json.find("zlog.batches"), std::string::npos);
}

TEST(TelemetryClusterTest, InjectedRuleSeesClusterSeries) {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 3;
  options.num_mds = 1;
  options.mon.telemetry_interval = 500 * sim::kMillisecond;
  options.mon.builtin_health_rules = false;
  cluster::Cluster cluster(options);
  cluster.Boot();
  cluster::Client* client = cluster.NewClient();
  RunAppendWorkload(&cluster, client, 8);  // every OSD reports once it has ops
  mon::Monitor& monitor = cluster.monitor();
  // Operators inject watch policy the same way Mantle injects balancing
  // policy: a MalScript chunk against the live series API.
  ASSERT_TRUE(monitor
                  .InstallHealthRule("osd_quorum",
                                     R"(
local n = 0
for _, e in pairs(entities("osd.")) do
  if report_age(e) < params.max_age_s then n = n + 1 end
end
if n < params.want then
  alert("osd_quorum", "ERR", "only " .. n .. " osds reporting", n)
end
)",
                                     {{"want", 3.0}, {"max_age_s", 5.0}})
                  .ok());
  cluster.RunFor(3 * sim::kSecond);
  EXPECT_EQ(monitor.health().Overall(), telemetry::HealthSeverity::kOk);

  cluster.osd(0).Crash();
  cluster.osd(1).Crash();
  ASSERT_TRUE(cluster.RunUntil([&monitor] {
    return monitor.health().Overall() == telemetry::HealthSeverity::kErr;
  }));
  EXPECT_EQ(monitor.health().alerts().count("osd_quorum"), 1u);
}

// -- seq_stall: alerts on refused grants only ---------------------------------

cluster::ClusterOptions SeqStallCluster() {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 3;
  options.num_mds = 1;
  options.mon.telemetry_interval = 500 * sim::kMillisecond;
  return options;
}

std::unique_ptr<zlog::Log> OpenReportingLog(cluster::Cluster* cluster, cluster::Client* client,
                                            zlog::LogOptions options) {
  client->StartPerfReports(500 * sim::kMillisecond);
  auto log = client->OpenLog(std::move(options));
  bool opened = false;
  log->Open([&opened](mal::Status status) { opened = status.ok(); });
  EXPECT_TRUE(cluster->RunUntil([&opened] { return opened; }));
  return log;
}

// Closed-loop one-entry appends until `*stop`; failed appends count in
// `*fails` and the loop goes on.
void AppendLoop(zlog::Log* log, const bool* stop, uint64_t* fails) {
  if (*stop) {
    return;
  }
  log->Append(mal::Buffer::FromString("x"), [log, stop, fails](mal::Status status, uint64_t) {
    *fails += status.ok() ? 0 : 1;
    AppendLoop(log, stop, fails);
  });
}

bool SeqStallRaisedWithin(cluster::Cluster* cluster, sim::Time span) {
  mon::Monitor& monitor = cluster->monitor();
  return cluster->RunUntil(
      [&monitor] { return monitor.health().alerts().count("seq_stall") != 0; }, span);
}

TEST(TelemetryClusterTest, HealthyRoundTripAppendsRaiseNoSeqStall) {
  cluster::Cluster cluster(SeqStallCluster());
  cluster.Boot();
  cluster::Client* client = cluster.NewClient();
  zlog::LogOptions options;
  options.name = "rtlog";
  auto log = OpenReportingLog(&cluster, client, options);
  bool stop = false;
  uint64_t failed = 0;
  AppendLoop(log.get(), &stop, &failed);
  EXPECT_FALSE(SeqStallRaisedWithin(&cluster, 15 * sim::kSecond))
      << cluster.monitor().HealthJson();
  stop = true;
  EXPECT_EQ(failed, 0u);
  EXPECT_GT(client->perf.counter("zlog.grants"), 0u);
  EXPECT_GT(cluster.monitor().health().evaluations(), 0u);
}

TEST(TelemetryClusterTest, HealthyCachedLogRaisesNoSeqStall) {
  cluster::Cluster cluster(SeqStallCluster());
  cluster.Boot();
  cluster::Client* client = cluster.NewClient();
  zlog::LogOptions options;
  options.name = "caplog";
  options.sequencer_mode = zlog::SequencerMode::kCached;
  options.lease.mode = mds::LeaseMode::kDelay;
  auto log = OpenReportingLog(&cluster, client, options);
  bool stop = false;
  uint64_t failed = 0;
  AppendLoop(log.get(), &stop, &failed);
  EXPECT_FALSE(SeqStallRaisedWithin(&cluster, 15 * sim::kSecond))
      << cluster.monitor().HealthJson();
  stop = true;
  EXPECT_EQ(failed, 0u);
  EXPECT_GT(client->perf.counter("zlog.batches"), 0u);
  EXPECT_EQ(client->perf.counter("zlog.grants"), 0u);  // local increments only
}

TEST(TelemetryClusterTest, RefusedGrantsRaiseSeqStall) {
  cluster::Cluster cluster(SeqStallCluster());
  cluster.Boot();
  // A kDelay holder caches the log's tail and is never asked to give it
  // back, so every round-trip grant on that log is refused kUnavailable.
  cluster::Client* holder = cluster.NewClient();
  zlog::LogOptions cached;
  cached.name = "heldlog";
  cached.sequencer_mode = zlog::SequencerMode::kCached;
  cached.lease.mode = mds::LeaseMode::kDelay;
  auto held = OpenReportingLog(&cluster, holder, cached);
  bool appended = false;
  held->Append(mal::Buffer::FromString("held"), [&appended](mal::Status status, uint64_t) {
    EXPECT_TRUE(status.ok()) << status;
    appended = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&appended] { return appended; }));
  ASSERT_TRUE(holder->mds.HasCap(held->sequencer_path()));

  cluster::Client* client = cluster.NewClient();
  zlog::LogOptions round_trip;
  round_trip.name = "heldlog";
  auto log = OpenReportingLog(&cluster, client, round_trip);
  bool stop = false;
  uint64_t failed = 0;
  AppendLoop(log.get(), &stop, &failed);
  ASSERT_TRUE(SeqStallRaisedWithin(&cluster, 15 * sim::kSecond))
      << cluster.monitor().HealthJson();
  stop = true;
  EXPECT_EQ(cluster.monitor().health().alerts().at("seq_stall").severity,
            telemetry::HealthSeverity::kErr);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(client->perf.counter("zlog.grants"), 0u);
}

// Minimal JSON syntax checker: Parse consumes one value starting at `i`.
struct JsonSyntax {
  const std::string& s;
  size_t i = 0;

  void Ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  bool Eat(char c) {
    Ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool String() {
    if (!Eat('"')) {
      return false;
    }
    while (i < s.size() && s[i] != '"') {
      if (static_cast<unsigned char>(s[i]) < 0x20) {
        return false;
      }
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size() || std::string("\"\\/bfnrtu").find(s[i]) == std::string::npos) {
          return false;
        }
      }
      ++i;
    }
    return i++ < s.size();
  }
  template <typename F>
  bool Seq(char close, F item) {
    if (Eat(close)) {
      return true;
    }
    do {
      if (!item()) {
        return false;
      }
    } while (Eat(','));
    return Eat(close);
  }
  bool Parse() {
    Ws();
    if (i >= s.size()) {
      return false;
    }
    if (s[i] == '"') {
      return String();
    }
    if (Eat('[')) {
      return Seq(']', [this] { return Parse(); });
    }
    if (Eat('{')) {
      return Seq('}', [this] { return String() && Eat(':') && Parse(); });
    }
    size_t start = i;
    while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                            std::string("+-.").find(s[i]) != std::string::npos)) {
      ++i;
    }
    return i > start;
  }
};

bool IsValidJson(const std::string& text) {
  JsonSyntax parser{text};
  if (!parser.Parse()) {
    return false;
  }
  parser.Ws();
  return parser.i == text.size();
}

TEST(TelemetryClusterTest, HealthJsonEscapesUserStrings) {
  EXPECT_TRUE(IsValidJson(R"({"a": [1, "x\"y", {"b": true}]})"));
  EXPECT_FALSE(IsValidJson(R"({"a": "x"y"})"));

  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 1;
  options.num_mds = 0;
  options.mon.telemetry_interval = 500 * sim::kMillisecond;
  options.mon.builtin_health_rules = false;
  cluster::Cluster cluster(options);
  cluster.Boot();
  mon::Monitor& monitor = cluster.monitor();
  // Alert and rule names and messages come from operator MalScript; the
  // health JSON must stay parseable whatever they contain.
  ASSERT_TRUE(monitor
                  .InstallHealthRule("quote\"rule",
                                     R"(alert("say \"hi\"", "WARN", "a \"b\" c:\\d\n\te"))")
                  .ok());
  cluster.RunFor(2 * sim::kSecond);
  ASSERT_EQ(monitor.health().alerts().count("say \"hi\""), 1u);
  std::string json = monitor.HealthJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find(R"("message": "a \"b\" c:\\d\n\u0009e")"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("rules": ["quote\"rule"])"), std::string::npos) << json;
}

TEST(TelemetryChaosTest, CrashRaisesStaleWarnAndHealClears) {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 3;
  options.num_mds = 1;
  options.mon.telemetry_interval = 1 * sim::kSecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  cluster::Client* client = cluster.NewClient();
  RunAppendWorkload(&cluster, client, 8);  // prime every daemon's registry
  cluster.RunFor(2 * sim::kSecond);  // all daemons reporting

  mon::Monitor& monitor = cluster.monitor();
  ASSERT_EQ(monitor.health().Overall(), telemetry::HealthSeverity::kOk);

  // Crash -> perf reports stop -> the builtin stale_daemon rule fires.
  cluster.osd(2).Crash();
  ASSERT_TRUE(cluster.RunUntil([&monitor] {
    return monitor.health().Overall() == telemetry::HealthSeverity::kWarn;
  }));
  ASSERT_EQ(monitor.health().alerts().count("stale:osd.2"), 1u);
  EXPECT_EQ(monitor.health().alerts().at("stale:osd.2").rule, "stale_daemon");
  EXPECT_NE(monitor.HealthJson().find("HEALTH_WARN"), std::string::npos);

  // Heal -> reports resume -> the alert clears with no operator action.
  cluster.osd(2).Recover();
  ASSERT_TRUE(cluster.RunUntil([&monitor] {
    return monitor.health().Overall() == telemetry::HealthSeverity::kOk;
  }));
  EXPECT_TRUE(monitor.health().alerts().empty());

  // Both edges reached the centralized cluster log, in order.
  size_t warn_at = std::string::npos;
  size_t ok_at = std::string::npos;
  for (size_t i = 0; i < monitor.cluster_log().size(); ++i) {
    const std::string& msg = monitor.cluster_log()[i].message;
    if (msg.find("HEALTH_WARN: stale:osd.2") != std::string::npos) {
      warn_at = i;
    }
    if (msg.find("HEALTH_OK: cleared stale:osd.2") != std::string::npos) {
      ok_at = i;
    }
  }
  ASSERT_NE(warn_at, std::string::npos);
  ASSERT_NE(ok_at, std::string::npos);
  EXPECT_LT(warn_at, ok_at);
  EXPECT_GT(monitor.perf().counter("mon.health.raised"), 0u);
  EXPECT_GT(monitor.perf().counter("mon.health.cleared"), 0u);
}

// -- Critical-path analysis --------------------------------------------------

TEST(CriticalPathTest, AppendBreakdownTelescopesToRootDuration) {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 3;
  options.num_mds = 1;
  cluster::Cluster cluster(options);
  cluster.Boot();
  cluster::Client* client = cluster.NewClient();

  auto log = client->OpenLog();
  bool opened = false;
  log->Open([&opened](mal::Status status) { opened = status.ok(); });
  ASSERT_TRUE(cluster.RunUntil([&opened] { return opened; }));

  trace::TraceCollector collector;
  trace::ScopedCollector scoped(&collector);
  std::vector<mal::Buffer> entries;
  for (int i = 0; i < 8; ++i) {
    entries.push_back(mal::Buffer::FromString("entry-" + std::to_string(i)));
  }
  bool done = false;
  log->AppendBatch(std::move(entries),
                   [&done](mal::Status status, const std::vector<uint64_t>&) {
                     ASSERT_TRUE(status.ok());
                     done = true;
                   });
  ASSERT_TRUE(cluster.RunUntil([&done] { return done; }));

  const trace::Span* root = nullptr;
  for (const trace::Span& span : collector.spans()) {
    if (span.name == "zlog.AppendBatch") {
      root = &span;
    }
  }
  ASSERT_NE(root, nullptr);

  trace::CriticalPath cp = trace::AnalyzeCriticalPath(collector, *root);
  EXPECT_EQ(cp.total_ns, root->end_ns - root->start_ns);
  // Segments telescope: every nanosecond of the root's latency is attributed
  // to exactly one segment.
  uint64_t sum = 0;
  for (const auto& [segment, ns] : cp.segment_ns) {
    sum += ns;
  }
  EXPECT_EQ(sum, cp.total_ns);
  // The round-trip-sequencer append spends time waiting on the MDS and on
  // OSD commits, and the hops cost network time.
  EXPECT_GT(cp.segment_ns["seq_wait"], 0u);
  EXPECT_GT(cp.segment_ns["osd_commit"], 0u);
  EXPECT_GT(cp.segment_ns["network"], 0u);

  auto by_op = trace::CriticalPathByOp(collector);
  ASSERT_EQ(by_op.count("zlog.AppendBatch"), 1u);
  EXPECT_EQ(by_op["zlog.AppendBatch"].count, 1u);
  EXPECT_EQ(by_op["zlog.AppendBatch"].total_ns, cp.total_ns);

  auto slowest = trace::SlowestRoots(collector, 3);
  ASSERT_FALSE(slowest.empty());
  EXPECT_EQ(slowest[0]->span_id, root->span_id);

  std::string json = trace::CriticalPathJson(collector);
  EXPECT_NE(json.find("\"zlog.AppendBatch\""), std::string::npos);
  EXPECT_NE(json.find("\"segments_us\""), std::string::npos);
  EXPECT_NE(json.find("\"exemplars\""), std::string::npos);
}

// -- Per-actor profiler ------------------------------------------------------

TEST(ProfilerTest, AttributesBusyTimeToActorsAndMessages) {
  sim::Profiler profiler;
  {
    sim::ScopedProfiler scoped(&profiler);
    cluster::ClusterOptions options;
    options.num_mons = 1;
    options.num_osds = 3;
    options.num_mds = 1;
    cluster::Cluster cluster(options);
    cluster.Boot();
    cluster::Client* client = cluster.NewClient();
    auto log = client->OpenLog();
    bool opened = false;
    log->Open([&opened](mal::Status status) { opened = status.ok(); });
    ASSERT_TRUE(cluster.RunUntil([&opened] { return opened; }));
    std::vector<mal::Buffer> entries;
    for (int i = 0; i < 8; ++i) {
      entries.push_back(mal::Buffer::FromString("entry-" + std::to_string(i)));
    }
    bool done = false;
    log->AppendBatch(std::move(entries),
                     [&done](mal::Status status, const std::vector<uint64_t>&) {
                       ASSERT_TRUE(status.ok());
                       done = true;
                     });
    ASSERT_TRUE(cluster.RunUntil([&done] { return done; }));
  }

  const sim::Profiler::Table& table = profiler.table();
  ASSERT_FALSE(table.empty());
  // Daemons that did work show up with busy time attributed.
  ASSERT_EQ(table.count("mds.0"), 1u);
  sim::Profiler::Row mds_total = profiler.Totals("mds.0");
  EXPECT_GT(mds_total.count, 0u);
  EXPECT_GT(mds_total.cpu_ns + mds_total.dispatch_ns, 0u);
  // Work is attributed to the message that caused it, not lumped together:
  // the MDS row keys include a concrete mds.* message label.
  bool mds_label = false;
  for (const auto& [label, row] : table.at("mds.0")) {
    if (label.rfind("mds.", 0) == 0) {
      mds_label = true;
    }
  }
  EXPECT_TRUE(mds_label);
  // The monitor's rows are keyed by the mon.* messages it served.
  ASSERT_EQ(table.count("mon.0"), 1u);
  EXPECT_EQ(table.at("mon.0").count("mon.subscribe"), 1u);

  std::string json = profiler.ToJson();
  EXPECT_NE(json.find("\"mds.0\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu_us\""), std::string::npos);
  std::string rendered = profiler.RenderTable();
  EXPECT_NE(rendered.find("mds.0"), std::string::npos);
  EXPECT_NE(rendered.find("TOTAL"), std::string::npos);

  // With no profiler installed, nothing records.
  EXPECT_EQ(sim::Profiler::Current(), nullptr);
}

}  // namespace
}  // namespace mal
