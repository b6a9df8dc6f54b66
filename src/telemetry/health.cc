#include "src/telemetry/health.h"

#include <algorithm>
#include <sstream>

#include "src/common/json.h"
#include "src/common/stats.h"

namespace mal::telemetry {

using script::Table;
using script::TableKey;
using script::Value;

const char* HealthStateName(HealthSeverity severity) {
  switch (severity) {
    case HealthSeverity::kOk:
      return "HEALTH_OK";
    case HealthSeverity::kWarn:
      return "HEALTH_WARN";
    case HealthSeverity::kErr:
      return "HEALTH_ERR";
  }
  return "HEALTH_OK";
}

const char* SeverityName(HealthSeverity severity) {
  switch (severity) {
    case HealthSeverity::kOk:
      return "OK";
    case HealthSeverity::kWarn:
      return "WARN";
    case HealthSeverity::kErr:
      return "ERR";
  }
  return "OK";
}

namespace {

Status WrongArg(const std::string& fn, const std::string& want) {
  return Status::InvalidArgument(fn + " expects " + want);
}

// (entity, metric, window_s) triple shared by every series_* host function.
struct SeriesArgs {
  std::string entity;
  std::string metric;
  uint64_t window_ns = 0;
};

Result<SeriesArgs> ParseSeriesArgs(const std::string& fn,
                                   const std::vector<Value>& args,
                                   bool want_window) {
  size_t need = want_window ? 3 : 2;
  if (args.size() < need || !args[0].is_string() || !args[1].is_string() ||
      (want_window && !args[2].is_number())) {
    return WrongArg(fn, want_window ? "(entity, metric, window_seconds)"
                                    : "(entity, metric)");
  }
  SeriesArgs out;
  out.entity = args[0].as_string();
  out.metric = args[1].as_string();
  if (want_window) {
    double w = args[2].as_number();
    if (w <= 0) {
      return WrongArg(fn, "a positive window");
    }
    out.window_ns = static_cast<uint64_t>(w * 1e9);
  }
  return out;
}

}  // namespace

void HealthEngine::RegisterHostApi(Rule* rule) {
  script::Interpreter* interp = rule->interp.get();
  const SeriesStore* store = store_;

  interp->RegisterHostFunction(
      "entities", [this](script::Interpreter&,
                         const std::vector<Value>& args) -> Result<Value> {
        std::string prefix;
        if (!args.empty()) {
          if (!args[0].is_string()) {
            return WrongArg("entities", "an optional string prefix");
          }
          prefix = args[0].as_string();
        }
        auto table = Table::Make();
        double i = 1;
        for (const std::string& entity : store_->Entities(prefix)) {
          table->Set(TableKey(i), Value(entity));
          i += 1;
        }
        return Value(table);
      });

  interp->RegisterHostFunction(
      "report_age", [this](script::Interpreter&,
                           const std::vector<Value>& args) -> Result<Value> {
        if (args.size() != 1 || !args[0].is_string()) {
          return WrongArg("report_age", "(entity)");
        }
        uint64_t last = store_->LastReportNs(args[0].as_string());
        if (last == 0) {
          return Value(static_cast<double>(now_ns_) / 1e9);  // never reported
        }
        uint64_t age = now_ns_ > last ? now_ns_ - last : 0;
        return Value(static_cast<double>(age) / 1e9);
      });

  interp->RegisterHostFunction(
      "series_last", [store](script::Interpreter&,
                             const std::vector<Value>& args) -> Result<Value> {
        auto parsed = ParseSeriesArgs("series_last", args, /*want_window=*/false);
        if (!parsed.ok()) {
          return parsed.status();
        }
        const Series* s = store->Find(parsed.value().entity, parsed.value().metric);
        return Value(s == nullptr ? 0.0 : s->Last());
      });

  struct StatFn {
    const char* name;
    double (*pick)(const WindowStats&);
  };
  static const StatFn kStatFns[] = {
      {"series_sum", [](const WindowStats& s) { return s.sum; }},
      {"series_avg", [](const WindowStats& s) { return s.avg(); }},
      {"series_min", [](const WindowStats& s) { return s.min; }},
      {"series_max", [](const WindowStats& s) { return s.max; }},
      {"series_count",
       [](const WindowStats& s) { return static_cast<double>(s.count); }},
  };
  for (const StatFn& fn : kStatFns) {
    interp->RegisterHostFunction(
        fn.name, [this, fn](script::Interpreter&,
                            const std::vector<Value>& args) -> Result<Value> {
          auto parsed = ParseSeriesArgs(fn.name, args, /*want_window=*/true);
          if (!parsed.ok()) {
            return parsed.status();
          }
          const SeriesArgs& a = parsed.value();
          return Value(fn.pick(store_->Stats(a.entity, a.metric, a.window_ns, now_ns_)));
        });
  }

  interp->RegisterHostFunction(
      "series_rate", [this](script::Interpreter&,
                            const std::vector<Value>& args) -> Result<Value> {
        auto parsed = ParseSeriesArgs("series_rate", args, /*want_window=*/true);
        if (!parsed.ok()) {
          return parsed.status();
        }
        const SeriesArgs& a = parsed.value();
        WindowStats stats = store_->Stats(a.entity, a.metric, a.window_ns, now_ns_);
        return Value(stats.sum / (static_cast<double>(a.window_ns) / 1e9));
      });

  interp->RegisterHostFunction(
      "alert", [this](script::Interpreter&,
                      const std::vector<Value>& args) -> Result<Value> {
        if (args.size() < 3 || !args[0].is_string() || !args[1].is_string() ||
            !args[2].is_string()) {
          return WrongArg("alert", "(name, severity, message [, value])");
        }
        const std::string& sev = args[1].as_string();
        HealthSeverity severity;
        if (sev == "WARN") {
          severity = HealthSeverity::kWarn;
        } else if (sev == "ERR") {
          severity = HealthSeverity::kErr;
        } else {
          return WrongArg("alert", "severity \"WARN\" or \"ERR\"");
        }
        if (raising_ == nullptr) {
          return Status::Internal("alert() outside Evaluate()");
        }
        Alert a;
        a.name = args[0].as_string();
        a.rule = *current_rule_;
        a.severity = severity;
        a.message = args[2].as_string();
        if (args.size() > 3 && args[3].is_number()) {
          a.value = args[3].as_number();
        }
        a.since_ns = now_ns_;
        auto it = alerts_.find(a.name);
        if (it != alerts_.end()) {
          a.since_ns = it->second.since_ns;  // keep the original raise time
        }
        // Same name raised twice in one tick: keep the worst severity.
        auto [rit, inserted] = raising_->emplace(a.name, a);
        if (!inserted && severity > rit->second.severity) {
          rit->second = a;
        }
        return Value::Nil();
      });
}

Status HealthEngine::InstallRule(const std::string& name, const std::string& source,
                                 std::map<std::string, double> params) {
  auto chunk = script::Compile(source);
  if (!chunk.ok()) {
    return chunk.status();
  }
  auto rule = std::make_unique<Rule>();
  rule->name = name;
  rule->chunk = std::move(chunk).value();
  rule->interp = std::make_unique<script::Interpreter>();
  rule->interp->set_instruction_budget(1'000'000);
  rule->params = std::move(params);
  rule->interp->SetGlobal("state", Value(Table::Make()));
  RegisterHostApi(rule.get());
  RemoveRule(name);
  rules_.push_back(std::move(rule));
  return Status::Ok();
}

void HealthEngine::RemoveRule(const std::string& name) {
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if ((*it)->name == name) {
      rules_.erase(it);
      return;
    }
  }
}

std::vector<HealthEngine::Transition> HealthEngine::Evaluate(uint64_t now_ns) {
  now_ns_ = now_ns;
  ++evaluations_;
  std::map<std::string, Alert> raising;
  raising_ = &raising;
  for (const auto& rule : rules_) {
    current_rule_ = &rule->name;
    auto params = Table::Make();
    for (const auto& [key, value] : rule->params) {
      params->Set(TableKey(key), Value(value));
    }
    rule->interp->SetGlobal("params", Value(params));
    rule->interp->SetGlobal("now", Value(static_cast<double>(now_ns) / 1e9));
    Status run = rule->interp->Run(rule->chunk);
    rule->interp->print_output().clear();
    if (!run.ok()) {
      // A broken rule must be visible, not silent: surface the runtime
      // error as its own WARN alert.
      Alert a;
      a.name = "rule_error:" + rule->name;
      a.rule = rule->name;
      a.severity = HealthSeverity::kWarn;
      a.message = run.ToString();
      a.since_ns = now_ns;
      auto it = alerts_.find(a.name);
      if (it != alerts_.end()) {
        a.since_ns = it->second.since_ns;
      }
      raising.emplace(a.name, a);
    }
  }
  raising_ = nullptr;
  current_rule_ = nullptr;

  std::vector<Transition> transitions;
  for (const auto& [name, alert] : raising) {
    auto it = alerts_.find(name);
    if (it == alerts_.end() || it->second.severity != alert.severity) {
      Transition t;
      t.severity = alert.severity;
      t.raised = true;
      t.text = std::string(HealthStateName(alert.severity)) + ": " + name + ": " +
               alert.message;
      transitions.push_back(std::move(t));
    }
  }
  for (const auto& [name, alert] : alerts_) {
    if (raising.find(name) == raising.end()) {
      Transition t;
      t.severity = HealthSeverity::kOk;
      t.raised = false;
      t.text = "HEALTH_OK: cleared " + name;
      transitions.push_back(std::move(t));
    }
  }
  alerts_ = std::move(raising);
  return transitions;
}

HealthSeverity HealthEngine::Overall() const {
  HealthSeverity worst = HealthSeverity::kOk;
  for (const auto& [name, alert] : alerts_) {
    worst = std::max(worst, alert.severity);
  }
  return worst;
}

script::EngineStats HealthEngine::ConsumeScriptStats() {
  script::EngineStats out;
  for (const auto& rule : rules_) {
    const script::EngineStats& st = rule->interp->stats();
    out.instructions += st.instructions - rule->exported.instructions;
    out.vm_runs += st.vm_runs - rule->exported.vm_runs;
    out.ic_hits += st.ic_hits - rule->exported.ic_hits;
    out.ic_misses += st.ic_misses - rule->exported.ic_misses;
    out.print_dropped += st.print_dropped - rule->exported.print_dropped;
    rule->exported = st;
  }
  return out;
}

std::string HealthEngine::ToJson(uint64_t now_ns) const {
  std::ostringstream out;
  out << "{\n    \"status\": \"" << HealthStateName(Overall()) << "\",\n"
      << "    \"alerts\": [";
  bool first = true;
  for (const auto& [name, alert] : alerts_) {
    out << (first ? "" : ",") << "\n      {\"name\": \"" << JsonEscape(name)
        << "\", \"severity\": \"" << SeverityName(alert.severity) << "\", \"rule\": \""
        << JsonEscape(alert.rule)
        << "\", \"value\": " << FormatDouble(alert.value, 3) << ", \"for_s\": "
        << FormatDouble(
               static_cast<double>(now_ns > alert.since_ns ? now_ns - alert.since_ns : 0) /
                   1e9,
               3)
        << ", \"message\": \"" << JsonEscape(alert.message) << "\"}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "],\n    \"rules\": [";
  first = true;
  for (const auto& rule : rules_) {
    out << (first ? "" : ", ") << "\"" << JsonEscape(rule->name) << "\"";
    first = false;
  }
  out << "]\n  }";
  return out.str();
}

// -- Built-in rules ----------------------------------------------------------------

namespace {

// A daemon that stopped reporting is the canonical crash signal: the chaos
// engine's crash faults silence kMsgPerfReport until the heal restarts the
// daemon, so this rule drives the crash -> HEALTH_WARN -> heal -> HEALTH_OK
// arc asserted in tests.
constexpr const char* kStaleDaemonRule = R"(
local function check(prefix)
  for _, e in pairs(entities(prefix)) do
    local age = report_age(e)
    if age > params.max_age_s then
      alert("stale:" .. e, "WARN",
            e .. " has not sent a perf report for " .. age .. "s", age)
    end
  end
end
check("osd.")
check("mds.")
)";

// Tail-latency budget on the client append path.
constexpr const char* kZlogTailRule = R"(
for _, e in pairs(entities("client.")) do
  local p99 = series_max(e, "zlog.batch_us.p99", 60)
  if p99 > params.budget_us then
    alert("zlog_tail:" .. e, "WARN",
          e .. " zlog.batch_us p99 " .. p99 .. "us over 60s exceeds budget "
          .. params.budget_us .. "us", p99)
  end
end
)";

// Sequencer liveness: round-trip clients asked for positions but no MDS
// granted any in the window -> every grant was refused. Cached-mode clients
// increment locally and send no grant requests, so they never count; a
// crashed MDS is stale_daemon's to report. Requests from the last 2 s are
// left out: the MDS reports its grants once a second, so a healthy grant
// can reach the store after the request that asked for it.
constexpr const char* kSeqStallRule = R"(
local grants = 0
for _, e in pairs(entities("mds.")) do
  grants = grants + series_sum(e, "mds.seq.positions_granted", params.window_s)
end
local requests = 0
for _, e in pairs(entities("client.")) do
  requests = requests + series_sum(e, "zlog.grants", params.window_s)
                      - series_sum(e, "zlog.grants", 2)
end
if requests > 0 and grants == 0 then
  alert("seq_stall", "ERR",
        "no sequencer grants in " .. params.window_s .. "s while clients sent "
        .. requests .. " grant requests", requests)
end
)";

// Write-load skew across OSDs (min_ops floor keeps idle clusters quiet).
constexpr const char* kOsdImbalanceRule = R"(
local max_ops = 0
local min_ops = 0
local n = 0
for _, e in pairs(entities("osd.")) do
  local ops = series_sum(e, "osd.op.write.count", 60)
  n = n + 1
  if n == 1 or ops > max_ops then max_ops = ops end
  if n == 1 or ops < min_ops then min_ops = ops end
end
if n > 1 and max_ops > params.min_ops and max_ops > min_ops * params.ratio then
  alert("osd_imbalance", "WARN",
        "osd write load imbalance: busiest " .. max_ops .. " ops vs idlest "
        .. min_ops .. " over 60s", max_ops)
end
)";

// Erasure-coded pools losing redundancy: the scrub agent publishes the
// number of objects it found degraded on its last full pass as a gauge.
// Any non-zero value means acked data is one more fault away from loss,
// so the cluster should be WARN until repair brings it back to zero.
constexpr const char* kEcDegradedRule = R"(
for _, e in pairs(entities("scrub.")) do
  local degraded = series_last(e, "scrub.degraded_objects")
  if degraded > params.max_degraded then
    alert("ec_degraded:" .. e, "WARN",
          e .. " last scrub pass found " .. degraded
          .. " EC objects below full redundancy", degraded)
  end
end
)";

// Scrub liveness: the agent tracks objects but has scanned nothing over
// the window. A stalled scrubber silently voids the self-healing story —
// degraded objects stay degraded — so this is an ERR, not a WARN.
constexpr const char* kScrubStalledRule = R"(
for _, e in pairs(entities("scrub.")) do
  local tracked = series_last(e, "scrub.objects_tracked")
  local scanned = series_sum(e, "scrub.objects_scanned", params.window_s)
  if tracked > 0 and scanned == 0 then
    alert("scrub_stalled:" .. e, "ERR",
          e .. " tracks " .. tracked .. " objects but scanned none in "
          .. params.window_s .. "s", tracked)
  end
end
)";

}  // namespace

void HealthEngine::InstallBuiltinRules() {
  InstallRule("stale_daemon", kStaleDaemonRule, {{"max_age_s", 5.0}});
  InstallRule("zlog_tail_latency", kZlogTailRule, {{"budget_us", 50000.0}});
  InstallRule("seq_stall", kSeqStallRule, {{"window_s", 10.0}});
  InstallRule("osd_op_imbalance", kOsdImbalanceRule,
              {{"ratio", 3.0}, {"min_ops", 1000.0}});
  InstallRule("ec_degraded", kEcDegradedRule, {{"max_degraded", 0.0}});
  InstallRule("scrub_stalled", kScrubStalledRule, {{"window_s", 10.0}});
}

}  // namespace mal::telemetry
