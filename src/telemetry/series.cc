#include "src/telemetry/series.h"

#include <algorithm>
#include <sstream>

#include "src/common/stats.h"

namespace mal::telemetry {

void RollupRing::Observe(uint64_t time_ns, double value) {
  uint64_t start = time_ns - time_ns % width_ns_;
  if (windows_.empty() || windows_.back().start_ns != start) {
    // Reports arrive in nondecreasing sim-time order per entity, so a new
    // bucket closes the previous window for good.
    windows_.push_back(Window{start, 0, value, value, 0, value});
    if (windows_.size() > cap_) {
      windows_.pop_front();
    }
  }
  Window& w = windows_.back();
  w.min = w.count == 0 ? value : std::min(w.min, value);
  w.max = w.count == 0 ? value : std::max(w.max, value);
  w.sum += value;
  w.last = value;
  ++w.count;
}

std::vector<Window> RollupRing::Since(uint64_t since_ns) const {
  std::vector<Window> out;
  for (const Window& w : windows_) {
    if (w.start_ns + width_ns_ > since_ns) {
      out.push_back(w);
    }
  }
  return out;
}

void Series::Observe(uint64_t time_ns, double value) {
  raw_.push_back(SeriesPoint{time_ns, value});
  if (raw_.size() > raw_cap_) {
    raw_.pop_front();
  }
  r10_.Observe(time_ns, value);
  r60_.Observe(time_ns, value);
}

double Series::Last() const {
  if (kind_ == MetricKind::kCounter) {
    return cumulative_;
  }
  return raw_.empty() ? 0 : raw_.back().value;
}

Series* SeriesStore::FindOrCreate(const std::string& entity,
                                  const std::string& metric, MetricKind kind) {
  auto& metrics = entities_[entity];
  auto it = metrics.find(metric);
  if (it == metrics.end()) {
    it = metrics
             .emplace(metric, Series(kind, limits_.raw_cap, limits_.w10_cap,
                                     limits_.w60_cap))
             .first;
  }
  return &it->second;
}

void SeriesStore::ObserveMetric(const std::string& entity, const std::string& metric,
                                MetricKind kind, uint64_t time_ns, double value) {
  Series* series = FindOrCreate(entity, metric, kind);
  if (kind == MetricKind::kCounter) {
    // Ingest the delta since the previous report. A cumulative value lower
    // than the last one means the daemon restarted and its registry reset;
    // the post-restart value is itself the delta.
    double prev = series->cumulative();
    double delta = value >= prev ? value - prev : value;
    series->set_cumulative(value);
    series->Observe(time_ns, delta);
    return;
  }
  series->Observe(time_ns, value);
}

void SeriesStore::Ingest(const mal::PerfSnapshot& snapshot) {
  const std::string& entity = snapshot.entity;
  uint64_t t = snapshot.time_ns;
  uint64_t& last = last_report_ns_[entity];
  last = std::max(last, t);
  for (const auto& [name, value] : snapshot.counters) {
    ObserveMetric(entity, name, MetricKind::kCounter, t,
                  static_cast<double>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    ObserveMetric(entity, name, MetricKind::kGauge, t, value);
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    if (hist.observed == 0) {
      continue;
    }
    Histogram h;
    for (double v : hist.samples) {
      h.Add(v);
    }
    ObserveMetric(entity, name + ".p99", MetricKind::kDerived, t, h.Quantile(0.99));
    ObserveMetric(entity, name + ".mean", MetricKind::kDerived, t, h.mean());
    // Exact running extremes ride the snapshot (see BoundedHistogram), so
    // alert rules on tails do not inherit decimation error.
    ObserveMetric(entity, name + ".min", MetricKind::kDerived, t, hist.min);
    ObserveMetric(entity, name + ".max", MetricKind::kDerived, t, hist.max);
    ObserveMetric(entity, name + ".count", MetricKind::kCounter, t,
                  static_cast<double>(hist.observed));
  }
}

const Series* SeriesStore::Find(const std::string& entity,
                                const std::string& metric) const {
  auto eit = entities_.find(entity);
  if (eit == entities_.end()) {
    return nullptr;
  }
  auto mit = eit->second.find(metric);
  return mit == eit->second.end() ? nullptr : &mit->second;
}

std::vector<std::string> SeriesStore::Entities(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [entity, metrics] : entities_) {
    if (entity.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(entity);
    }
  }
  return out;
}

std::vector<std::string> SeriesStore::Metrics(const std::string& entity) const {
  std::vector<std::string> out;
  auto it = entities_.find(entity);
  if (it == entities_.end()) {
    return out;
  }
  for (const auto& [metric, series] : it->second) {
    out.push_back(metric);
  }
  return out;
}

std::vector<Window> SeriesStore::Query(const std::string& entity,
                                       const std::string& metric,
                                       Resolution resolution,
                                       uint64_t since_ns) const {
  const Series* series = Find(entity, metric);
  if (series == nullptr) {
    return {};
  }
  switch (resolution) {
    case Resolution::kRaw: {
      std::vector<Window> out;
      for (const SeriesPoint& p : series->raw()) {
        if (p.time_ns >= since_ns) {
          out.push_back(Window{p.time_ns, 1, p.value, p.value, p.value, p.value});
        }
      }
      return out;
    }
    case Resolution::k10s:
      return series->rollup10().Since(since_ns);
    case Resolution::k60s:
      return series->rollup60().Since(since_ns);
  }
  return {};
}

WindowStats SeriesStore::Stats(const std::string& entity, const std::string& metric,
                               uint64_t window_ns, uint64_t now_ns) const {
  WindowStats out;
  const Series* series = Find(entity, metric);
  if (series == nullptr) {
    return out;
  }
  uint64_t from = now_ns > window_ns ? now_ns - window_ns : 0;
  for (const SeriesPoint& p : series->raw()) {
    if (p.time_ns < from || p.time_ns > now_ns) {
      continue;
    }
    out.min = out.count == 0 ? p.value : std::min(out.min, p.value);
    out.max = out.count == 0 ? p.value : std::max(out.max, p.value);
    out.sum += p.value;
    out.last = p.value;
    ++out.count;
  }
  return out;
}

uint64_t SeriesStore::LastReportNs(const std::string& entity) const {
  auto it = last_report_ns_.find(entity);
  return it == last_report_ns_.end() ? 0 : it->second;
}

size_t SeriesStore::series_count() const {
  size_t n = 0;
  for (const auto& [entity, metrics] : entities_) {
    n += metrics.size();
  }
  return n;
}

namespace {

void AppendWindows(std::ostringstream* out, const std::vector<Window>& windows,
                   size_t max_windows) {
  size_t start = windows.size() > max_windows ? windows.size() - max_windows : 0;
  *out << "[";
  for (size_t i = start; i < windows.size(); ++i) {
    const Window& w = windows[i];
    *out << (i == start ? "" : ", ") << "{\"start_s\": "
         << FormatDouble(static_cast<double>(w.start_ns) / 1e9, 3)
         << ", \"count\": " << w.count << ", \"min\": " << FormatDouble(w.min, 3)
         << ", \"max\": " << FormatDouble(w.max, 3)
         << ", \"sum\": " << FormatDouble(w.sum, 3)
         << ", \"last\": " << FormatDouble(w.last, 3) << "}";
  }
  *out << "]";
}

}  // namespace

std::string SeriesStore::ToJson(uint64_t now_ns, size_t max_windows) const {
  std::ostringstream out;
  out << "{";
  bool first_entity = true;
  for (const auto& [entity, metrics] : entities_) {
    out << (first_entity ? "" : ",") << "\n    \"" << entity << "\": {";
    first_entity = false;
    uint64_t report_ns = LastReportNs(entity);
    out << "\n      \"report_age_us\": "
        << (now_ns > report_ns ? (now_ns - report_ns) / 1000 : 0);
    for (const auto& [metric, series] : metrics) {
      out << ",\n      \"" << metric << "\": {\"last\": "
          << FormatDouble(series.Last(), 3) << ", \"w10\": ";
      std::vector<Window> w10(series.rollup10().windows().begin(),
                              series.rollup10().windows().end());
      AppendWindows(&out, w10, max_windows);
      out << ", \"w60\": ";
      std::vector<Window> w60(series.rollup60().windows().begin(),
                              series.rollup60().windows().end());
      AppendWindows(&out, w60, max_windows);
      out << "}";
    }
    out << "\n    }";
  }
  out << "\n  }";
  return out.str();
}

}  // namespace mal::telemetry
