// MalScript-programmable cluster health rules.
//
// Mantle (§4.2 of the paper) shows load-balancing policy injected as Lua;
// the HealthEngine points the same interpreter at *monitoring* policy: each
// rule is a MalScript chunk the monitor runs every rollup tick against the
// time-series store. A rule inspects series through registered host
// functions and raises named alerts; an alert not re-raised on a tick is
// cleared automatically, so rules are written as pure "describe what is
// wrong right now" checks with no clear-side bookkeeping.
//
// Host API visible to rules (all windows in seconds of sim-time):
//   entities(prefix)                      -> array table of entity names
//   report_age(entity)                    -> seconds since last perf report
//   series_last(entity, metric)           -> latest value (counters: cumulative)
//   series_sum(entity, metric, window_s)  -> sum of raw points in window
//   series_avg / series_min / series_max / series_count (same signature)
//   series_rate(entity, metric, window_s) -> sum / window_s (per-second rate)
//   alert(name, severity, message [, value])  severity in {"WARN", "ERR"}
// plus globals: `now` (sim seconds), `params` (per-rule tuning table),
// `state` (table persisted across ticks, Mantle-style).
//
// Evaluation is deterministic: rules run in install order, host functions
// read only the SeriesStore, and a rule runtime error surfaces as a WARN
// alert named "rule_error:<rule>" instead of silently disabling the rule.
#ifndef MALACOLOGY_TELEMETRY_HEALTH_H_
#define MALACOLOGY_TELEMETRY_HEALTH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/script/interpreter.h"
#include "src/telemetry/series.h"

namespace mal::telemetry {

enum class HealthSeverity : uint8_t { kOk = 0, kWarn = 1, kErr = 2 };

// "HEALTH_OK" / "HEALTH_WARN" / "HEALTH_ERR" (Ceph's vocabulary).
const char* HealthStateName(HealthSeverity severity);
// "OK" / "WARN" / "ERR".
const char* SeverityName(HealthSeverity severity);

struct Alert {
  std::string name;            // identity; raised vs cleared is keyed on this
  std::string rule;            // rule that raised it
  HealthSeverity severity = HealthSeverity::kWarn;
  std::string message;
  double value = 0;            // the measured value behind the alert
  uint64_t since_ns = 0;       // sim-time the alert first fired
};

class HealthEngine {
 public:
  // One raised/cleared edge, rendered for the cluster log.
  struct Transition {
    HealthSeverity severity = HealthSeverity::kWarn;
    bool raised = false;  // false = cleared
    std::string text;
  };

  explicit HealthEngine(const SeriesStore* store) : store_(store) {}

  // Compiles and installs a rule; fails fast on syntax errors. `params` is
  // exposed to the script as the `params` table. Reinstalling a name
  // replaces the rule (and drops its persisted `state`).
  Status InstallRule(const std::string& name, const std::string& source,
                     std::map<std::string, double> params = {});
  void RemoveRule(const std::string& name);

  // Installs the shipped rules: stale_daemon, zlog_tail_latency, seq_stall,
  // osd_op_imbalance (docs/telemetry.md describes each).
  void InstallBuiltinRules();

  // Runs every rule against the store at `now_ns`; returns the raise/clear
  // edges since the previous evaluation (for the cluster log).
  std::vector<Transition> Evaluate(uint64_t now_ns);

  // Worst severity among firing alerts (kOk when none).
  HealthSeverity Overall() const;
  const std::map<std::string, Alert>& alerts() const { return alerts_; }
  size_t rule_count() const { return rules_.size(); }
  uint64_t evaluations() const { return evaluations_; }

  // {"status": "HEALTH_*", "alerts": [...], "rules": [...]} — deterministic.
  std::string ToJson(uint64_t now_ns) const;

  // Script-engine counter deltas summed across every rule interpreter since
  // the previous call (the monitor drains this into its perf registry).
  script::EngineStats ConsumeScriptStats();

 private:
  struct Rule {
    std::string name;
    std::shared_ptr<const script::CompiledChunk> chunk;
    std::unique_ptr<script::Interpreter> interp;
    std::map<std::string, double> params;
    script::EngineStats exported;  // stats() snapshot at last consume
  };

  void RegisterHostApi(Rule* rule);

  const SeriesStore* store_;
  std::vector<std::unique_ptr<Rule>> rules_;   // install order = eval order
  std::map<std::string, Alert> alerts_;        // currently firing, by name
  // Scratch for the tick being evaluated (host `alert()` writes here).
  std::map<std::string, Alert>* raising_ = nullptr;
  const std::string* current_rule_ = nullptr;
  uint64_t now_ns_ = 0;
  uint64_t evaluations_ = 0;
};

}  // namespace mal::telemetry

#endif  // MALACOLOGY_TELEMETRY_HEALTH_H_
