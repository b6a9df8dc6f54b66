// Monitor-side time-series store for the programmable telemetry layer.
//
// Every kMsgPerfReport snapshot the monitor receives is ingested into
// per-entity, per-metric series. A series keeps three resolutions, each a
// bounded ring:
//   raw  — one point per report (the report's sim-time stamp);
//   10s  — rollup windows with min/max/sum/count/last per window;
//   60s  — the same, one minute wide.
// Counters are ingested as per-report deltas (so a window's `sum` is the
// increase inside that window and survives daemon restarts resetting the
// cumulative value); gauges as sampled values; histograms as derived
// sub-metrics (<name>.p99/.mean/.min/.max/.count) so alert rules can watch
// tail latency without shipping raw samples around.
//
// Everything is deterministic — plain arithmetic over snapshot contents,
// ordered maps, no RNG — so two same-seed runs produce byte-identical
// series dumps, and bounded: ring capacities cap memory per series no
// matter how long the cluster runs.
#ifndef MALACOLOGY_TELEMETRY_SERIES_H_
#define MALACOLOGY_TELEMETRY_SERIES_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/common/perf.h"

namespace mal::telemetry {

enum class Resolution : uint8_t { kRaw = 0, k10s = 1, k60s = 2 };

inline constexpr uint64_t kWindow10sNs = 10ull * 1000 * 1000 * 1000;
inline constexpr uint64_t kWindow60sNs = 60ull * 1000 * 1000 * 1000;

// One rollup window (or, for raw resolution queries, one point dressed up
// as a single-observation window).
struct Window {
  uint64_t start_ns = 0;
  uint64_t count = 0;
  double min = 0;
  double max = 0;
  double sum = 0;
  double last = 0;

  template <class Ar>
  void Fields(Ar& ar) { ar(start_ns, count, min, max, sum, last); }
};

struct SeriesPoint {
  uint64_t time_ns = 0;
  double value = 0;
};

// Fixed-capacity ring of rollup windows. Observations are bucketed by
// time / width; a new bucket closes the current window and evicts the
// oldest once the ring is full.
class RollupRing {
 public:
  RollupRing(uint64_t width_ns, size_t cap) : width_ns_(width_ns), cap_(cap) {}

  void Observe(uint64_t time_ns, double value);

  const std::deque<Window>& windows() const { return windows_; }
  std::vector<Window> Since(uint64_t since_ns) const;
  uint64_t width_ns() const { return width_ns_; }

 private:
  uint64_t width_ns_;
  size_t cap_;
  std::deque<Window> windows_;  // oldest -> newest; back() is the open window
};

// How a metric's raw points are derived from snapshots (affects both
// ingestion and what Last() means).
enum class MetricKind : uint8_t {
  kCounter = 0,  // points are per-report deltas; Last() is the cumulative
  kGauge = 1,    // points are sampled values
  kDerived = 2,  // computed from a histogram at ingest (gauge semantics)
};

class Series {
 public:
  Series(MetricKind kind, size_t raw_cap, size_t w10_cap, size_t w60_cap)
      : kind_(kind),
        raw_cap_(raw_cap),
        r10_(kWindow10sNs, w10_cap),
        r60_(kWindow60sNs, w60_cap) {}

  void Observe(uint64_t time_ns, double value);

  MetricKind kind() const { return kind_; }
  const std::deque<SeriesPoint>& raw() const { return raw_; }
  const RollupRing& rollup10() const { return r10_; }
  const RollupRing& rollup60() const { return r60_; }

  // Latest raw value; for counters the latest *cumulative* value.
  double Last() const;
  void set_cumulative(double v) { cumulative_ = v; }
  double cumulative() const { return cumulative_; }

 private:
  MetricKind kind_;
  size_t raw_cap_;
  std::deque<SeriesPoint> raw_;
  RollupRing r10_;
  RollupRing r60_;
  double cumulative_ = 0;  // counters: latest cumulative value seen
};

// Aggregate of raw points inside a query window (what the MalScript rule
// host functions are built on).
struct WindowStats {
  uint64_t count = 0;
  double min = 0;
  double max = 0;
  double sum = 0;
  double last = 0;

  double avg() const { return count == 0 ? 0 : sum / static_cast<double>(count); }
};

class SeriesStore {
 public:
  struct Limits {
    size_t raw_cap = 512;
    size_t w10_cap = 90;   // 15 minutes of 10s windows
    size_t w60_cap = 120;  // 2 hours of 60s windows
  };

  SeriesStore() = default;
  explicit SeriesStore(Limits limits) : limits_(limits) {}

  // Folds one report into the store. `snapshot.time_ns` (the reporter's
  // sim-clock stamp) is the observation time for every derived point.
  void Ingest(const mal::PerfSnapshot& snapshot);

  const Series* Find(const std::string& entity, const std::string& metric) const;

  // Entities with at least one series, filtered by name prefix ("" = all).
  std::vector<std::string> Entities(const std::string& prefix = "") const;
  std::vector<std::string> Metrics(const std::string& entity) const;

  // Rollup windows (or raw points for kRaw) newer than `since_ns`.
  std::vector<Window> Query(const std::string& entity, const std::string& metric,
                            Resolution resolution, uint64_t since_ns) const;

  // Stats over the raw points in [now_ns - window_ns, now_ns]. Counters
  // contribute per-report deltas, so `sum` reads as "increase over the
  // window"; an unknown series yields a zeroed result.
  WindowStats Stats(const std::string& entity, const std::string& metric,
                    uint64_t window_ns, uint64_t now_ns) const;

  // Sim-time of the entity's newest report, or 0 if it never reported.
  uint64_t LastReportNs(const std::string& entity) const;

  size_t series_count() const;
  bool empty() const { return entities_.empty(); }
  const Limits& limits() const { return limits_; }

  // Deterministic JSON rendering: entities -> metrics -> {last, w10, w60}.
  // `max_windows` caps how many trailing windows of each resolution are
  // emitted (keeps the monitor dump readable).
  std::string ToJson(uint64_t now_ns, size_t max_windows = 6) const;

 private:
  Series* FindOrCreate(const std::string& entity, const std::string& metric,
                       MetricKind kind);
  void ObserveMetric(const std::string& entity, const std::string& metric,
                     MetricKind kind, uint64_t time_ns, double value);

  Limits limits_;
  std::map<std::string, std::map<std::string, Series>> entities_;
  std::map<std::string, uint64_t> last_report_ns_;
};

}  // namespace mal::telemetry

#endif  // MALACOLOGY_TELEMETRY_SERIES_H_
