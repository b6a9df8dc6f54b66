#include "src/common/perf.h"

#include <algorithm>
#include <sstream>

#include "src/common/json.h"

namespace mal {

void BoundedHistogram::Observe(double v) {
  min_ = observed_ == 0 ? v : std::min(min_, v);
  max_ = observed_ == 0 ? v : std::max(max_, v);
  ++observed_;
  if ((observed_ - 1) % stride_ != 0) {
    return;
  }
  if (samples_.size() >= cap_) {
    // Drop every other retained sample and keep only every (2*stride)-th
    // observation from here on. Deterministic, and the survivors remain an
    // evenly-spaced subsequence of the observation stream.
    std::vector<double> kept;
    kept.reserve(samples_.size() / 2 + 1);
    for (size_t i = 0; i < samples_.size(); i += 2) {
      kept.push_back(samples_[i]);
    }
    samples_ = std::move(kept);
    stride_ *= 2;
    if ((observed_ - 1) % stride_ != 0) {
      return;
    }
  }
  samples_.push_back(v);
}

void BoundedHistogram::MergeSamples(const std::vector<double>& samples,
                                    uint64_t observed) {
  bool empty_before = observed_ == 0;
  for (double v : samples) {
    min_ = empty_before ? v : std::min(min_, v);
    max_ = empty_before ? v : std::max(max_, v);
    empty_before = false;
  }
  observed_ += observed;
  samples_.insert(samples_.end(), samples.begin(), samples.end());
  // The merged buffer may exceed cap_; that is fine for monitor-side
  // aggregates, which are rebuilt from scratch on every dump.
}

Histogram BoundedHistogram::ToHistogram() const {
  Histogram h;
  for (double v : samples_) {
    h.Add(v);
  }
  return h;
}

void ExportScriptCounters(PerfRegistry* perf, const std::string& daemon,
                          const ScriptCounters& delta) {
  const std::pair<const char*, uint64_t> kFields[] = {
      {".script.instructions", delta.instructions},
      {".script.vm_runs", delta.vm_runs},
      {".script.ic_hits", delta.ic_hits},
      {".script.ic_misses", delta.ic_misses},
      {".script.print_dropped", delta.print_dropped},
  };
  for (const auto& [suffix, value] : kFields) {
    if (value != 0) {
      perf->Inc(daemon + suffix, value);
    }
  }
}

PerfSnapshot PerfRegistry::Snapshot(const std::string& entity,
                                    uint64_t time_ns) const {
  PerfSnapshot snap;
  snap.entity = entity;
  snap.time_ns = time_ns;
  snap.counters = counters_;
  snap.gauges = gauges_;
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] =
        PerfSnapshot::Hist{hist.samples(), hist.observed(), hist.min(), hist.max()};
  }
  return snap;
}

PerfSnapshot AggregateSnapshots(const std::vector<PerfSnapshot>& snapshots) {
  PerfSnapshot out;
  out.entity = "cluster";
  for (const PerfSnapshot& snap : snapshots) {
    out.time_ns = std::max(out.time_ns, snap.time_ns);
    for (const auto& [name, value] : snap.counters) {
      out.counters[name] += value;
    }
    for (const auto& [name, hist] : snap.histograms) {
      PerfSnapshot::Hist& agg = out.histograms[name];
      if (hist.observed > 0) {
        agg.min = agg.observed == 0 ? hist.min : std::min(agg.min, hist.min);
        agg.max = agg.observed == 0 ? hist.max : std::max(agg.max, hist.max);
      }
      agg.observed += hist.observed;
      agg.samples.insert(agg.samples.end(), hist.samples.begin(),
                         hist.samples.end());
    }
  }
  return out;
}

namespace {

void AppendJsonString(std::ostringstream* out, const std::string& s) {
  *out << '"' << JsonEscape(s) << '"';
}

void AppendSnapshotJson(std::ostringstream* out, const PerfSnapshot& snap,
                        int indent, uint64_t now_ns, uint64_t stale_after_ns) {
  std::string pad(indent, ' ');
  std::string pad2(indent + 2, ' ');
  uint64_t age_ns = now_ns > snap.time_ns ? now_ns - snap.time_ns : 0;
  *out << pad << "{\n";
  *out << pad2 << "\"entity\": ";
  AppendJsonString(out, snap.entity);
  *out << ",\n" << pad2 << "\"time_ns\": " << snap.time_ns << ",\n";
  *out << pad2 << "\"report_age_us\": " << age_ns / 1000 << ",\n";
  if (stale_after_ns > 0 && age_ns > stale_after_ns) {
    *out << pad2 << "\"stale\": true,\n";
  }
  *out << pad2 << "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    *out << (first ? "" : ",") << "\n" << pad2 << "  ";
    AppendJsonString(out, name);
    *out << ": " << value;
    first = false;
  }
  *out << (first ? "" : "\n" + pad2) << "},\n";
  *out << pad2 << "\"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    *out << (first ? "" : ",") << "\n" << pad2 << "  ";
    AppendJsonString(out, name);
    *out << ": " << FormatDouble(value, 3);
    first = false;
  }
  *out << (first ? "" : "\n" + pad2) << "},\n";
  *out << pad2 << "\"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snap.histograms) {
    Histogram h;
    for (double v : hist.samples) {
      h.Add(v);
    }
    *out << (first ? "" : ",") << "\n" << pad2 << "  ";
    AppendJsonString(out, name);
    *out << ": {\"count\": " << hist.observed
         << ", \"mean\": " << FormatDouble(h.mean(), 3)
         << ", \"p50\": " << FormatDouble(h.Quantile(0.5), 3)
         << ", \"p90\": " << FormatDouble(h.Quantile(0.9), 3)
         << ", \"p99\": " << FormatDouble(h.Quantile(0.99), 3)
         << ", \"min\": " << FormatDouble(hist.min, 3)
         << ", \"max\": " << FormatDouble(hist.max, 3) << "}";
    first = false;
  }
  *out << (first ? "" : "\n" + pad2) << "}\n";
  *out << pad << "}";
}

}  // namespace

std::string PerfDumpToJson(const std::vector<PerfSnapshot>& snapshots,
                           uint64_t now_ns) {
  return PerfDumpToJson(snapshots, now_ns, PerfDumpOptions{});
}

std::string PerfDumpToJson(const std::vector<PerfSnapshot>& snapshots,
                           uint64_t now_ns, const PerfDumpOptions& options) {
  std::ostringstream out;
  out << "{\n  \"time_ns\": " << now_ns << ",\n  \"entities\": [\n";
  for (size_t i = 0; i < snapshots.size(); ++i) {
    AppendSnapshotJson(&out, snapshots[i], 4, now_ns, options.stale_after_ns);
    out << (i + 1 < snapshots.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"cluster\": \n";
  AppendSnapshotJson(&out, AggregateSnapshots(snapshots), 2, now_ns, 0);
  for (const auto& [name, json] : options.sections) {
    out << ",\n  ";
    AppendJsonString(&out, name);
    out << ": " << json;
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace mal
