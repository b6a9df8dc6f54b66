// Ceph-style per-daemon performance counters. Every daemon owns a
// PerfRegistry (counters, gauges, bounded latency histograms) and
// periodically pushes an encoded PerfSnapshot to the monitor over the
// message bus (kMsgPerfReport); the monitor keeps the latest snapshot per
// entity and serves a cluster-wide JSON dump (kMsgGetPerfDump).
//
// Naming scheme (see docs/observability.md): dot-separated
// "<daemon>.<subsystem>.<metric>", e.g. "osd.op.write.count",
// "mds.cap.grants.quota", "zlog.epoch_refreshes". Histogram values are
// microseconds unless the name says otherwise.
#ifndef MALACOLOGY_COMMON_PERF_H_
#define MALACOLOGY_COMMON_PERF_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/stats.h"

namespace mal {

// A latency histogram with a deterministic bound on retained samples.
// Daemon registries live for the whole run, so unbounded raw-sample
// histograms would grow with op count; this keeps every stride-th
// observation and doubles the stride when the buffer fills. No RNG —
// reservoir sampling would perturb the simulator's deterministic streams.
class BoundedHistogram {
 public:
  explicit BoundedHistogram(size_t cap = 1024) : cap_(cap < 2 ? 2 : cap) {}

  void Observe(double v);

  // True number of observations (>= samples().size() once decimating).
  uint64_t observed() const { return observed_; }
  const std::vector<double>& samples() const { return samples_; }

  // Exact running extremes over *every* observation, not just the retained
  // subsequence — decimation keeps an evenly-spaced subset, which is fine
  // for quantiles but silently loses the extremes that alert rules watch.
  double min() const { return min_; }
  double max() const { return max_; }

  // Fold in samples recorded elsewhere (monitor-side aggregation).
  void MergeSamples(const std::vector<double>& samples, uint64_t observed);

  // Quantiles/mean over the retained samples.
  Histogram ToHistogram() const;

 private:
  size_t cap_;
  uint64_t stride_ = 1;
  uint64_t observed_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::vector<double> samples_;
};

// Wire-encodable copy of one registry at one instant.
struct PerfSnapshot {
  struct Hist {
    std::vector<double> samples;
    uint64_t observed = 0;
    double min = 0;  // exact running extremes (see BoundedHistogram)
    double max = 0;

    template <class Ar>
    void Fields(Ar& ar) { ar(observed, min, max, samples); }
  };

  std::string entity;  // e.g. "osd.2", "mon.0", "client.1"
  uint64_t time_ns = 0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Hist> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  template <class Ar>
  void Fields(Ar& ar) { ar(entity, time_ns, counters, gauges, histograms); }
};

// The per-daemon metric registry. Single-threaded (simulator), so no locks.
class PerfRegistry {
 public:
  void Inc(const std::string& name, uint64_t delta = 1) {
    counters_[name] += delta;
  }
  void Set(const std::string& name, double value) { gauges_[name] = value; }
  void Observe(const std::string& name, double value) {
    histograms_[name].Observe(value);
  }

  uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  double gauge(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second;
  }
  const BoundedHistogram* histogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  PerfSnapshot Snapshot(const std::string& entity, uint64_t time_ns) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, BoundedHistogram> histograms_;
};

// MalScript VM execution counters, plain numbers so every daemon exports
// them without depending on the script runtime.
struct ScriptCounters {
  uint64_t instructions = 0;   // budget units consumed (bytecode ops)
  uint64_t vm_runs = 0;        // top-level chunk runs and closure calls
  uint64_t ic_hits = 0;        // inline-cache hits (field + global sites)
  uint64_t ic_misses = 0;      // inline-cache misses
  uint64_t print_dropped = 0;  // print() lines dropped by the output cap
};

// Adds `delta` to the "<daemon>.script.*" counters (see
// docs/observability.md). Counters are created lazily and zero fields are
// skipped, so script-free runs keep identical perf dumps.
void ExportScriptCounters(PerfRegistry* perf, const std::string& daemon,
                          const ScriptCounters& delta);

// Sums counters and merges histogram samples across snapshots. Gauges are
// point-in-time per entity and are intentionally dropped from the aggregate
// (a sum of map epochs means nothing); read them per entity instead.
PerfSnapshot AggregateSnapshots(const std::vector<PerfSnapshot>& snapshots);

// Options for PerfDumpToJson beyond the bare snapshot list.
struct PerfDumpOptions {
  // Mark an entity `"stale": true` when its last report is older than this
  // (a crashed-and-not-restarted daemon's snapshot otherwise lingers in the
  // dump forever looking healthy). 0 disables the flag.
  uint64_t stale_after_ns = 0;
  // Extra top-level sections appended after "cluster": name -> pre-rendered
  // JSON value (the monitor injects telemetry/health/profile/trace sections
  // it renders itself).
  std::vector<std::pair<std::string, std::string>> sections;
};

// Renders the monitor's view — one section per entity plus a "cluster"
// aggregate — as JSON. Histograms are summarized (count/mean/p50/p90/p99/max,
// with min/max exact). Each entity carries `report_age_us` (now - snapshot
// time) so consumers can judge freshness.
std::string PerfDumpToJson(const std::vector<PerfSnapshot>& snapshots,
                           uint64_t now_ns);
std::string PerfDumpToJson(const std::vector<PerfSnapshot>& snapshots,
                           uint64_t now_ns, const PerfDumpOptions& options);

}  // namespace mal

#endif  // MALACOLOGY_COMMON_PERF_H_
