// Output helpers shared by the figure-reproduction benches: each bench
// prints a titled block with tab-separated rows that can be piped straight
// into a plotting tool.
#ifndef MALACOLOGY_BENCH_BENCH_UTIL_H_
#define MALACOLOGY_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/common/stats.h"
#include "src/common/trace.h"

namespace mal::bench {

// Process peak resident set size in MiB (0 if the platform query fails).
// Sampled into every BENCH_*.json record: COW aliasing trades memory for
// speed (a live slice pins its whole arena), so the benches that prove the
// wall-clock win also expose its memory cost.
inline double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Host wall-clock timer (monotonic). The simulated clock measures modeled
// latency; this measures what the substrate actually costs to run.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void PrintHeader(const std::string& figure, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("==============================================================\n");
}

inline void PrintSection(const std::string& name) { std::printf("\n-- %s --\n", name.c_str()); }

inline void PrintColumns(const std::vector<std::string>& columns) {
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : "\t", columns[i].c_str());
  }
  std::printf("\n");
}

// Prints a (time, value) series as two columns.
inline void PrintSeries(const std::string& label,
                        const std::vector<std::pair<double, double>>& series) {
  for (const auto& [x, y] : series) {
    std::printf("%s\t%.3f\t%.2f\n", label.c_str(), x, y);
  }
}

// Prints selected quantiles of a histogram on one line.
inline void PrintQuantiles(const std::string& label, const Histogram& histogram) {
  std::printf("%s\tcount=%zu\tp50=%.1f\tp90=%.1f\tp99=%.1f\tp999=%.1f\tmax=%.1f\n",
              label.c_str(), histogram.count(), histogram.Quantile(0.50),
              histogram.Quantile(0.90), histogram.Quantile(0.99),
              histogram.Quantile(0.999), histogram.max());
}

// Trace-derived per-hop latency breakdown. For every finished root span
// named `root_name` in the collector, its extent is split into:
//   - client queueing: root start -> first child RPC issue (time a batch
//     waited in the in-flight window before anything hit the wire);
//   - sequencer wait: summed duration of the mds-bound RPC spans;
//   - OSD commit: extent (min start -> max end) of the osd-bound RPC
//     spans, i.e. the wall-clock of the parallel write phase.
// All values are simulator-clock microseconds.
struct HopBreakdown {
  Histogram queue_us;
  Histogram seq_us;
  Histogram osd_us;
  size_t traces = 0;
};

inline HopBreakdown BreakdownRoots(const trace::TraceCollector& collector,
                                   const std::string& root_name) {
  HopBreakdown out;
  for (const trace::Span& span : collector.spans()) {
    if (span.name != root_name || span.open) {
      continue;
    }
    uint64_t first_child = UINT64_MAX;
    double seq_ns = 0;
    uint64_t osd_start = UINT64_MAX;
    uint64_t osd_end = 0;
    // A batch that shared a grant group follows its link to the RPCs the
    // group's first batch issued; only those inside its own extent count.
    std::vector<const trace::Span*> children = collector.ChildrenOf(span.span_id);
    if (span.link_span_id != 0) {
      for (const trace::Span* shared : collector.ChildrenOf(span.link_span_id)) {
        if (shared->start_ns >= span.start_ns && shared->end_ns <= span.end_ns) {
          children.push_back(shared);
        }
      }
    }
    for (const trace::Span* child : children) {
      if (child->open || child->name.rfind("queue:", 0) == 0) {
        continue;  // a queue:* wait is part of queue_us below
      }
      first_child = std::min(first_child, child->start_ns);
      if (child->name.find(":mds.") != std::string::npos) {
        seq_ns += static_cast<double>(child->end_ns - child->start_ns);
      } else if (child->name.find(":osd.") != std::string::npos) {
        osd_start = std::min(osd_start, child->start_ns);
        osd_end = std::max(osd_end, child->end_ns);
      }
    }
    if (first_child == UINT64_MAX) {
      continue;  // no finished children: nothing to attribute
    }
    ++out.traces;
    out.queue_us.Add(static_cast<double>(first_child - span.start_ns) / 1e3);
    out.seq_us.Add(seq_ns / 1e3);
    if (osd_start != UINT64_MAX) {
      out.osd_us.Add(static_cast<double>(osd_end - osd_start) / 1e3);
    }
  }
  return out;
}

// Merges the breakdown into a JsonReporter record's metrics and prints a
// one-line summary.
inline void AppendBreakdown(std::vector<std::pair<std::string, double>>* metrics,
                            const HopBreakdown& breakdown) {
  metrics->emplace_back("trace_count", static_cast<double>(breakdown.traces));
  metrics->emplace_back("client_queue_us_mean", breakdown.queue_us.mean());
  metrics->emplace_back("client_queue_us_p99", breakdown.queue_us.Quantile(0.99));
  metrics->emplace_back("seq_wait_us_mean", breakdown.seq_us.mean());
  metrics->emplace_back("seq_wait_us_p99", breakdown.seq_us.Quantile(0.99));
  metrics->emplace_back("osd_commit_us_mean", breakdown.osd_us.mean());
  metrics->emplace_back("osd_commit_us_p99", breakdown.osd_us.Quantile(0.99));
}

inline void PrintBreakdown(const std::string& label, const HopBreakdown& breakdown) {
  std::printf("%s\ttraces=%zu\tqueue_us=%.1f\tseq_wait_us=%.1f\tosd_commit_us=%.1f\n",
              label.c_str(), breakdown.traces, breakdown.queue_us.mean(),
              breakdown.seq_us.mean(), breakdown.osd_us.mean());
}

// Machine-readable results: accumulates one record per configuration and
// writes a BENCH_<name>.json file so the perf trajectory of a bench can be
// tracked across PRs (and diffed in CI) without scraping stdout.
//
// Every record is automatically stamped with host-side cost fields:
//   - wall_seconds: wall-clock since the previous Add (or construction),
//     i.e. what this configuration cost to run on the host;
//   - peak_rss_mb:  process peak RSS at Add time;
//   - events_per_sec: events / wall_seconds, when Add is given an event
//     count.
// Simulated metrics (throughput/latency in virtual time) are the caller's;
// they must be bit-identical across substrate optimizations — the wall
// fields are where an optimization is allowed to show up.
//
//   JsonReporter json("zlog");
//   json.Add("batched(b=16,w=4)", {{"appends_per_sec", 1.2e5}, ...}, 2048);
//   json.Write();   // -> BENCH_zlog.json
class JsonReporter {
 public:
  explicit JsonReporter(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& config,
           std::vector<std::pair<std::string, double>> metrics, double events = 0) {
    double wall = timer_.Seconds();
    timer_.Reset();
    metrics.emplace_back("wall_seconds", wall);
    if (events > 0 && wall > 0) {
      metrics.emplace_back("events_per_sec", events / wall);
    }
    metrics.emplace_back("peak_rss_mb", PeakRssMb());
    records_.push_back({config, std::move(metrics)});
  }

  // Convenience: the standard latency block (mean + percentiles, in the
  // histogram's native unit) merged into a record's metrics.
  static void AppendLatency(std::vector<std::pair<std::string, double>>* metrics,
                            const Histogram& histogram, const std::string& prefix) {
    metrics->emplace_back(prefix + "_mean", histogram.mean());
    metrics->emplace_back(prefix + "_p50", histogram.Quantile(0.50));
    metrics->emplace_back(prefix + "_p90", histogram.Quantile(0.90));
    metrics->emplace_back(prefix + "_p99", histogram.Quantile(0.99));
    metrics->emplace_back(prefix + "_max", histogram.max());
  }

  // Writes BENCH_<name>.json in the working directory; returns false (and
  // warns on stderr) if the file cannot be created.
  bool Write() const {
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReporter: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"configs\": [\n", name_.c_str());
    for (size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "    {\"name\": \"%s\"", JsonEscape(records_[i].config).c_str());
      for (const auto& [key, value] : records_[i].metrics) {
        std::fprintf(f, ", \"%s\": %.6g", JsonEscape(key).c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Record {
    std::string config;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::string name_;
  std::vector<Record> records_;
  WallTimer timer_;  // marks the start of the in-progress configuration
};

// Standard pass/fail line for invariants a bench asserts about its own
// results ("per-append cost flat across object sizes"). CI greps for
// "shape check" lines and fails the build when any says FAIL.
inline bool ShapeCheck(const std::string& what, bool pass) {
  std::printf("shape check: %s ... %s\n", what.c_str(), pass ? "PASS" : "FAIL");
  return pass;
}

}  // namespace mal::bench

#endif  // MALACOLOGY_BENCH_BENCH_UTIL_H_
