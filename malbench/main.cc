// malbench: the repository benchmark program.
//
//   malbench --workload <zlog_append|rados_mixed|ec_repair> --seed <n>
//            --seconds <s> --trace <0|1>
//   malbench --measure-capacity [--seed <n>]     (rados_mixed closed loop)
//
// A run repeats deterministic rounds (boot + set-up, then the timed phase)
// until --seconds of host wall time have passed. Simulated metrics come
// from the first round; every later round of the same seed must reproduce
// them byte for byte, and one extra round on a neighbouring seed must not.
// Host costs are thread CPU time of the warm rounds: the phase cost is
// built from the fastest round per slice (BestPhaseSeconds), set-up cost
// is the fastest of at least kSetupSamples set-ups.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds (trace::TraceCollector + sim::Profiler installed for
// the phase) and prints the per-layer split; the traced rounds must match
// the untraced ones exactly, their critical-path segments must sum to the
// root spans, and there must be one finished root span per completed call.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it ("detail {...}") carries workload-specific numbers:
// sample counts, failed_ratio, backlog, sim_repair_s, per-op critical
// paths and per-layer latency tails. See malbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "malbench/harness.h"
#include "src/common/stats.h"

namespace malbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool measure_capacity = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--measure-capacity") {
      args->measure_capacity = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return args->measure_capacity || !args->workload.empty();
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double QuantileUs(const std::vector<uint64_t>& ns, double q) {
  mal::Histogram h;
  for (uint64_t v : ns) {
    h.Add(static_cast<double>(v) / 1e3);
  }
  return h.count() == 0 ? 0 : h.Quantile(q);
}

// Ordered (name, unit, value) triples for the JSON line.
struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string FlatJson(const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : values) {
    out += (first ? "" : ", ") + Quote(k) + ": " + Num(v);
    first = false;
  }
  return out + "}";
}

// Collects the run verdict: the first failure wins the error message.
struct Verdict {
  bool correct = true;
  std::vector<std::string> problems;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      if (problems.size() < 8) {
        problems.push_back(what);
      }
    }
  }
};

void CheckRound(const RoundResult& round, const std::string& reference, Verdict* verdict,
                const char* label) {
  verdict->Check(round.ok, std::string(label) + " round failed: " + round.error);
  verdict->Check(SimFingerprint(round) == reference,
                 std::string(label) + " round diverged from the first round of the same seed");
}

// Critical-path sanity of a traced round: segments telescope to the root
// spans, one finished root per completed call, every issued op present.
void CheckCriticalPath(const RoundResult& traced, Verdict* verdict) {
  for (const auto& [op, breakdown] : traced.critical_path) {
    uint64_t sum = 0;
    for (const auto& [segment, ns] : breakdown.segment_ns) {
      sum += ns;
    }
    verdict->Check(sum == breakdown.total_ns, "cp." + op + ": segments do not sum to the root");
    auto calls = traced.ops.calls.find(op);
    verdict->Check(calls != traced.ops.calls.end() && calls->second == breakdown.count,
                   "cp." + op + ": root span count differs from completed calls");
  }
  for (const auto& [op, n] : traced.ops.calls) {
    auto it = traced.critical_path.find(op);
    verdict->Check(it != traced.critical_path.end() && it->second.total_ns > 0,
                   "cp." + op + ": no critical path for an issued op");
  }
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

// Host cost of the timed phase. Every round of a seed does identical work,
// and so does each slice between the same two completion marks; other
// processes on the machine only ever slow a slice down. The cost is the
// sum over slices of the fastest round's time for that slice, which
// filters out interference episodes shorter than a round.
double BestPhaseSeconds(const std::vector<RoundResult>& rounds) {
  if (rounds.empty()) {
    return 0;
  }
  size_t slices = rounds.front().phase_slices.size();
  for (const RoundResult& r : rounds) {
    slices = std::min(slices, r.phase_slices.size());
  }
  double total = 0;
  for (size_t k = 0; k < slices; ++k) {
    double best = rounds.front().phase_slices[k];
    for (const RoundResult& r : rounds) {
      best = std::min(best, r.phase_slices[k]);
    }
    total += best;
  }
  return total;
}

std::vector<Metric> EndToEnd(const RoundResult& ref, const std::vector<double>& setup) {
  const OpStats& s = ref.ops;
  return {
      {"sim_ops_per_s", "1/s",
       static_cast<double>(s.in_window) / (static_cast<double>(ref.phase_ns) / 1e9)},
      {"sim_write_p50_us", "us", QuantileUs(s.write_ns, 0.50)},
      {"sim_write_p99_us", "us", QuantileUs(s.write_ns, 0.99)},
      {"sim_read_p50_us", "us", QuantileUs(s.read_ns, 0.50)},
      {"sim_read_p99_us", "us", QuantileUs(s.read_ns, 0.99)},
      {"setup_s", "s", Min(setup)},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"stored_bytes_per_user_byte", "ratio", ref.stored_bytes_per_user_byte},
  };
}

// Mean simulated us per call of one critical-path segment over every op of
// a class ("write"/"read").
double ClassSegmentUs(const RoundResult& traced, bool writes, const std::string& segment) {
  uint64_t ns = 0;
  uint64_t count = 0;
  for (const auto& [op, breakdown] : traced.critical_path) {
    if (IsWriteOp(op) != writes) {
      continue;
    }
    count += breakdown.count;
    auto it = breakdown.segment_ns.find(segment);
    ns += it == breakdown.segment_ns.end() ? 0 : it->second;
  }
  return count == 0 ? 0 : static_cast<double>(ns) / static_cast<double>(count) / 1e3;
}

std::vector<Metric> PerLayer(const RoundResult& traced, const std::vector<RoundResult>& warm,
                             const std::vector<RoundResult>& traced_rounds) {
  const double plain_s = BestPhaseSeconds(warm);
  const auto& L = traced.layer;
  auto layer = [&L](const std::string& name) {
    auto it = L.find(name);
    return it == L.end() ? 0.0 : it->second;
  };
  std::vector<Metric> out = {
      {"host.ops_per_s", "1/s", static_cast<double>(traced.ops.completed) / plain_s},
      {"host.ns_per_event", "ns", plain_s * 1e9 / static_cast<double>(traced.events)},
      {"host.ns_per_msg", "ns", plain_s * 1e9 / static_cast<double>(traced.msgs)},
      {"trace.overhead", "ratio", BestPhaseSeconds(traced_rounds) / plain_s},
  };
  const std::pair<const char*, const char*> kLayer[] = {
      {"sim.events_per_op", "count"},      {"net.msgs_per_op", "count"},
      {"net.bytes_per_op", "B"},           {"net.dropped", "count"},
      {"svc.shed_total", "count"},         {"svc.deadline_drops", "count"},
      {"rados.retries_per_op", "ratio"},   {"rados.map_refreshes", "count"},
      {"zlog.batch_retries", "count"},     {"zlog.epoch_refreshes", "count"},
      {"mds.cpu_busy_frac", "ratio"},      {"mds.seq.redirects", "count"},
      {"osd.cpu_busy_frac", "ratio"},      {"osd.repops_per_write", "count"},
      {"osd.txn_aborts", "count"},         {"script.instructions_per_call", "count"},
      {"script.ic_hit_ratio", "ratio"},    {"script.vm_run_ratio", "ratio"},
      {"ec.degraded_read_ratio", "ratio"}, {"scrub.rebuilt_per_lost", "ratio"},
      {"scrub.objects_scanned", "count"},  {"scrub.repair_failures", "count"},
      {"mon.cpu_busy_frac", "ratio"},      {"mon.paxos.commits", "count"},
      {"mon.paxos.txns_per_commit", "ratio"},
  };
  for (const auto& [name, unit] : kLayer) {
    out.push_back({name, unit, layer(name)});
  }
  for (const char* cls : {"write", "read"}) {
    for (const char* segment : {"network", "osd_commit"}) {
      out.push_back({std::string("cp.") + cls + "." + segment + "_us", "us",
                     ClassSegmentUs(traced, std::strcmp(cls, "write") == 0, segment)});
    }
  }
  return out;
}

// Everything else worth citing, keyed by name: sample counts, failure
// ratio, workload extras, per-op critical paths, latency tails by layer.
std::map<std::string, double> Detail(const RoundResult& ref, size_t rounds) {
  std::map<std::string, double> d = ref.extra;
  const OpStats& s = ref.ops;
  d["rounds"] = static_cast<double>(rounds);
  d["samples.write"] = static_cast<double>(s.write_ns.size());
  d["samples.read"] = static_cast<double>(s.read_ns.size());
  d["ops.attempted"] = static_cast<double>(s.attempted);
  d["ops.completed"] = static_cast<double>(s.completed);
  d["failed_ratio"] =
      s.attempted == 0 ? 0 : static_cast<double>(s.failed + s.wrong) / static_cast<double>(s.attempted);
  for (const auto& [op, n] : s.calls) {
    d["calls." + op] = static_cast<double>(n);
  }
  for (const auto& [op, breakdown] : ref.critical_path) {
    for (const auto& [segment, ns] : breakdown.segment_ns) {
      if (ns > 0) {
        d["cp." + op + "." + segment + "_us"] =
            static_cast<double>(ns) / static_cast<double>(breakdown.count) / 1e3;
      }
    }
  }
  return d;
}

// Set-up samples per run: every warm round contributes one; set-up-only
// repetitions in the last fifth of the run top them up to this count. Like
// the phase cost, set-up cost is the fastest sample: runs of consecutive
// set-ups share the machine's speed of the moment, which swings by half.
constexpr size_t kSetupSamples = 21;
constexpr double kRoundShare = 0.8;

int Run(const Args& args) {
  Verdict verdict;
  WallTimer wall;

  // The reference round fixes every simulated metric; it is also the
  // warm-up, so its host times are not used.
  RoundResult ref = RunRound(args.workload, args.seed, false);
  if (!ref.ok) {
    std::fprintf(stderr, "malbench: %s\n", ref.error.c_str());
    return 1;
  }
  const std::string fingerprint = SimFingerprint(ref);
  std::vector<RoundResult> warm;
  std::vector<RoundResult> traced;
  std::vector<double> setup;

  if (!args.trace) {
    // A neighbouring seed must change the generated inputs and so the
    // simulated outputs (its host times are not used).
    RoundResult other = RunRound(args.workload, args.seed + 1, false);
    verdict.Check(other.ok, "neighbour-seed round failed: " + other.error);
    verdict.Check(SimFingerprint(other) != fingerprint,
                  "a different seed produced identical simulated output");
  }
  const double round_budget = args.trace ? args.seconds : args.seconds * kRoundShare;
  while (verdict.correct && (wall.Seconds() < round_budget || warm.size() < 3 ||
                             (args.trace && traced.size() < 2))) {
    RoundResult r = RunRound(args.workload, args.seed, false);
    CheckRound(r, fingerprint, &verdict, args.trace ? "untraced" : "repeat");
    setup.push_back(r.setup_s);
    warm.push_back(std::move(r));
    if (args.trace) {
      RoundResult t = RunRound(args.workload, args.seed, true);
      CheckRound(t, fingerprint, &verdict, "traced");
      CheckCriticalPath(t, &verdict);
      if (!traced.empty()) {
        t.critical_path.clear();  // the first traced round is reported
      }
      traced.push_back(std::move(t));
    }
  }
  while (!args.trace && verdict.correct && setup.size() < kSetupSamples &&
         wall.Seconds() < args.seconds) {
    double s = TimeSetup(args.workload, args.seed);
    verdict.Check(s >= 0, "set-up-only repetition failed");
    setup.push_back(s);
  }

  std::vector<Metric> metrics;
  std::map<std::string, double> detail;
  if (args.trace) {
    metrics = PerLayer(traced.front(), warm, traced);
    detail = Detail(traced.front(), 1 + warm.size() + traced.size());
    for (const auto& [k, v] : traced.front().layer) {
      detail["layer." + k] = v;
    }
  } else {
    metrics = EndToEnd(ref, setup);
    detail = Detail(ref, 2 + warm.size());
    detail["host.setup_samples"] = static_cast<double>(setup.size());
  }
  std::vector<double> phase;
  for (const RoundResult& r : warm) {
    phase.push_back(r.phase_s);
  }
  detail["host.phase_s_min"] = Min(phase);
  detail["host.phase_s_median"] = Median(phase);
  detail["host.best_phase_s"] = BestPhaseSeconds(warm);
  for (const std::string& p : verdict.problems) {
    std::fprintf(stderr, "malbench: %s\n", p.c_str());
  }
  const OpStats& s = ref.ops;
  std::printf("detail %s\n", FlatJson(detail).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              verdict.correct ? "true" : "false",
              static_cast<unsigned long long>(s.attempted),
              static_cast<unsigned long long>(s.failed + s.wrong),
              MetricsJson(metrics).c_str());
  return verdict.correct ? 0 : 1;
}

}  // namespace
}  // namespace malbench

int main(int argc, char** argv) {
  malbench::Args args;
  if (!malbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: malbench --workload <zlog_append|rados_mixed|ec_repair> --seed <n> "
                 "--seconds <s> --trace <0|1>\n       malbench --measure-capacity [--seed <n>]\n");
    return 2;
  }
  if (args.measure_capacity) {
    double capacity = malbench::MeasureRadosMixedCapacity(args.seed);
    std::printf("rados_mixed capacity_hz %.0f (60%%: %.0f)\n", capacity, capacity * 0.6);
    return capacity > 0 ? 0 : 1;
  }
  return malbench::Run(args);
}
