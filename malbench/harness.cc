#include "malbench/harness.h"

#include <time.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/sim/profiler.h"

namespace malbench {

using mal::PerfSnapshot;
using mal::cluster::Cluster;

namespace {
constexpr uint64_t kMarkEvery = 512;
}  // namespace

void OpStats::Complete(uint64_t n, Time now, Time end, Time latency, bool write) {
  uint64_t before = completed;
  completed += n;
  if (now <= end) {
    in_window += n;
  }
  (write ? write_ns : read_ns).push_back(latency);
  if (completed / kMarkEvery != before / kMarkEvery) {
    cpu_marks.push_back(ThreadCpuSeconds());
  }
}

void OpStats::Wrong(const std::string& what) {
  ++wrong;
  if (violations.size() < 5) {
    violations.push_back(what);
  }
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 0x6d616c62;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

mal::trace::TraceContext BeginOp(const char* op, mal::sim::Actor* caller) {
  mal::trace::TraceCollector* collector = mal::trace::Collector();
  if (collector == nullptr) {
    return {};
  }
  return collector->StartSpan(op, caller->name().ToString(), caller->Now());
}

void EndOp(const mal::trace::TraceContext& span, mal::sim::Actor* caller, bool ok) {
  if (span.valid() && mal::trace::Collector() != nullptr) {
    mal::trace::Collector()->EndSpan(span, caller->Now(), ok ? "ok" : "error");
  }
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

bool IsWriteOp(const std::string& op) {
  return op == "zlog.append_batch" || op == "rados.write" || op == "cls.exec" ||
         op == "ec.write";
}

uint64_t StoredBytes(Cluster* cluster) {
  uint64_t total = 0;
  for (size_t i = 0; i < cluster->num_osds(); ++i) {
    total += cluster->osd(i).store().bytes_used();
  }
  return total;
}

namespace {

// Every counter the per-layer metrics read, captured from outside the
// layers at the start and the end of the timed phase.
struct Counters {
  PerfSnapshot osd, mds, mon, client, scrub;
  uint64_t shed = 0;
  uint64_t deadline_drops = 0;
  uint64_t msgs_sent = 0;
  uint64_t msgs_delivered = 0;
  uint64_t bytes_sent = 0;
  uint64_t dropped = 0;
  uint64_t events = 0;
};

Counters Capture(const ClusterHandles& h) {
  Cluster& c = *h.cluster;
  Counters out;
  std::vector<const mal::sim::Actor*> actors;
  std::vector<PerfSnapshot> parts;
  for (size_t i = 0; i < c.num_osds(); ++i) {
    parts.push_back(c.osd(i).perf().Snapshot("osd", 0));
    actors.push_back(&c.osd(i));
  }
  out.osd = mal::AggregateSnapshots(parts);
  parts.clear();
  for (size_t i = 0; i < c.num_mds(); ++i) {
    parts.push_back(c.mds(i).perf().Snapshot("mds", 0));
    actors.push_back(&c.mds(i));
  }
  out.mds = mal::AggregateSnapshots(parts);
  parts.clear();
  for (size_t i = 0; i < c.num_mons(); ++i) {
    parts.push_back(c.monitor(i).perf().Snapshot("mon", 0));
    actors.push_back(&c.monitor(i));
  }
  out.mon = mal::AggregateSnapshots(parts);
  parts.clear();
  for (mal::cluster::Client* client : h.clients) {
    parts.push_back(client->perf.Snapshot("client", 0));
    actors.push_back(client);
  }
  out.client = mal::AggregateSnapshots(parts);
  parts.clear();
  if (h.scrub != nullptr) {
    parts.push_back(h.scrub->perf().Snapshot("scrub", 0));
    actors.push_back(h.scrub);
  }
  out.scrub = mal::AggregateSnapshots(parts);
  for (const mal::sim::Actor* actor : actors) {
    out.shed += actor->shed_total();
    out.deadline_drops += actor->deadline_drops();
  }
  out.msgs_sent = c.network().messages_sent();
  out.msgs_delivered = c.network().messages_delivered();
  out.bytes_sent = c.network().bytes_sent();
  out.dropped = c.network().dropped_total();
  out.events = c.simulator().events_processed();
  return out;
}

uint64_t Delta(const PerfSnapshot& before, const PerfSnapshot& after, const std::string& name) {
  auto a = after.counters.find(name);
  if (a == after.counters.end()) {
    return 0;
  }
  auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// p99 of a registry histogram (samples retained since boot).
double P99(const PerfSnapshot& snap, const std::string& name) {
  auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.samples.empty()) {
    return 0;
  }
  mal::Histogram h;
  for (double v : it->second.samples) {
    h.Add(v);
  }
  return h.Quantile(0.99);
}

// Profiler CPU-lane ns summed over every entity named "<type>.<n>", over
// (daemons x profiled window).
double BusyFraction(const mal::sim::Profiler& profiler, const std::string& type,
                    size_t daemons, Time window_ns) {
  if (daemons == 0 || window_ns == 0) {
    return 0;
  }
  uint64_t cpu_ns = 0;
  for (const auto& [entity, rows] : profiler.table()) {
    if (entity.compare(0, type.size() + 1, type + ".") == 0) {
      cpu_ns += profiler.Totals(entity).cpu_ns;
    }
  }
  return static_cast<double>(cpu_ns) /
         (static_cast<double>(daemons) * static_cast<double>(window_ns));
}

void FillLayers(const ClusterHandles& h, const Counters& b, const Counters& a,
                RoundResult* r) {
  auto& L = r->layer;
  const double ops = static_cast<double>(r->ops.completed);
  uint64_t writes = 0;
  for (const auto& [op, n] : r->ops.calls) {
    writes += IsWriteOp(op) ? n : 0;
  }
  L["sim.events_per_op"] = Ratio(static_cast<double>(a.events - b.events), ops);
  L["net.msgs_per_op"] = Ratio(static_cast<double>(a.msgs_sent - b.msgs_sent), ops);
  L["net.bytes_per_op"] = Ratio(static_cast<double>(a.bytes_sent - b.bytes_sent), ops);
  L["net.dropped"] = static_cast<double>(a.dropped - b.dropped);
  L["svc.shed_total"] = static_cast<double>(a.shed - b.shed);
  L["svc.deadline_drops"] = static_cast<double>(a.deadline_drops - b.deadline_drops);
  L["rados.retries_per_op"] =
      Ratio(static_cast<double>(Delta(b.client, a.client, "rados.retries")),
            static_cast<double>(Delta(b.client, a.client, "rados.ops")));
  L["rados.map_refreshes"] = static_cast<double>(Delta(b.client, a.client, "rados.map_refreshes"));
  L["zlog.batch_retries"] = static_cast<double>(Delta(b.client, a.client, "zlog.batch_retries"));
  L["zlog.epoch_refreshes"] =
      static_cast<double>(Delta(b.client, a.client, "zlog.epoch_refreshes"));
  L["mds.seq.redirects"] = static_cast<double>(Delta(b.mds, a.mds, "mds.seq.redirects"));
  L["osd.repops_per_write"] = Ratio(
      static_cast<double>(Delta(b.osd, a.osd, "osd.repop.count")), static_cast<double>(writes));
  L["osd.txn_aborts"] = static_cast<double>(Delta(b.osd, a.osd, "osd.txn_aborts"));
  const double vm = static_cast<double>(Delta(b.osd, a.osd, "osd.script.vm_runs"));
  const double oracle = static_cast<double>(Delta(b.osd, a.osd, "osd.script.oracle_runs"));
  const double hits = static_cast<double>(Delta(b.osd, a.osd, "osd.script.ic_hits"));
  const double misses = static_cast<double>(Delta(b.osd, a.osd, "osd.script.ic_misses"));
  L["script.instructions_per_call"] =
      Ratio(static_cast<double>(Delta(b.osd, a.osd, "osd.script.instructions")), vm + oracle);
  L["script.ic_hit_ratio"] = Ratio(hits, hits + misses);
  L["script.vm_run_ratio"] = Ratio(vm, vm + oracle);
  auto ec_reads = r->ops.calls.find("ec.read");
  L["ec.degraded_read_ratio"] =
      Ratio(static_cast<double>(Delta(b.client, a.client, "rados.ec.degraded_reads")),
            ec_reads == r->ops.calls.end() ? 0.0 : static_cast<double>(ec_reads->second));
  L["scrub.rebuilt_per_lost"] =
      Ratio(static_cast<double>(Delta(b.scrub, a.scrub, "scrub.shards_rebuilt")),
            r->extra.count("shards_lost") != 0 ? r->extra["shards_lost"] : 0.0);
  L["scrub.objects_scanned"] = static_cast<double>(Delta(b.scrub, a.scrub, "scrub.objects_scanned"));
  L["scrub.repair_failures"] = static_cast<double>(Delta(b.scrub, a.scrub, "scrub.repair_failures"));
  L["mon.paxos.commits"] = static_cast<double>(Delta(b.mon, a.mon, "mon.paxos.commits"));
  L["mon.paxos.txns_per_commit"] =
      Ratio(static_cast<double>(Delta(b.mon, a.mon, "mon.paxos.proposed_txns")),
            static_cast<double>(Delta(b.mon, a.mon, "mon.paxos.proposals")));

  // Latency tails of single layers: registry histograms, which retain
  // samples since boot (set-up traffic included).
  auto& X = r->extra;
  if (h.cluster->num_mds() > 0) {
    X["mds.seq.grant_us_p99"] = P99(a.mds, "mds.seq.grant_us");
    X["mds.queue_us_p99"] = P99(a.mds, "mds.queue_us");
  }
  for (const auto& [name, hist] : a.osd.histograms) {
    if (name.compare(0, 7, "osd.op.") == 0 &&
        name.size() > 11 && name.compare(name.size() - 11, 11, ".latency_us") == 0) {
      X[name + "_p99"] = P99(a.osd, name);
    }
  }
  if (h.scrub != nullptr) {
    X["scrub.repair_latency_us_p99"] = P99(a.scrub, "scrub.repair_latency_us");
  }
}

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "zlog_append") {
    return MakeZlogAppend(seed);
  }
  if (name == "rados_mixed") {
    return MakeRadosMixed(seed, kRadosMixedRateHz);
  }
  if (name == "ec_repair") {
    return MakeEcRepair(seed);
  }
  return nullptr;
}

}  // namespace

RoundResult RunRound(const std::string& workload, uint64_t seed, bool traced) {
  RoundResult r;
  std::unique_ptr<Workload> w = Make(workload, seed);
  if (w == nullptr) {
    r.error = "unknown workload " + workload;
    return r;
  }
  double setup_start = ThreadCpuSeconds();
  if (!w->Setup(&r.error)) {
    return r;
  }
  r.setup_s = ThreadCpuSeconds() - setup_start;

  ClusterHandles h = w->handles();
  Counters before = Capture(h);
  mal::trace::TraceCollector collector;
  mal::sim::Profiler profiler;
  {
    mal::trace::ScopedCollector scoped_collector(traced ? &collector : nullptr);
    mal::sim::ScopedProfiler scoped_profiler(traced ? &profiler : nullptr);
    double phase_start = ThreadCpuSeconds();
    w->Phase(&r);
    double phase_end = ThreadCpuSeconds();
    r.phase_s = phase_end - phase_start;
    double prev = phase_start;
    for (double mark : r.ops.cpu_marks) {
      r.phase_slices.push_back(mark - prev);
      prev = mark;
    }
    r.phase_slices.push_back(phase_end - prev);
  }
  h = w->handles();  // the phase may have started a scrub agent
  Counters after = Capture(h);
  r.events = after.events - before.events;
  r.msgs = after.msgs_delivered - before.msgs_delivered;
  FillLayers(h, before, after, &r);
  if (traced) {
    Cluster& c = *h.cluster;
    r.layer["osd.cpu_busy_frac"] = BusyFraction(profiler, "osd", c.num_osds(), r.profiled_ns);
    r.layer["mds.cpu_busy_frac"] = BusyFraction(profiler, "mds", c.num_mds(), r.profiled_ns);
    r.layer["mon.cpu_busy_frac"] = BusyFraction(profiler, "mon", c.num_mons(), r.profiled_ns);
    r.critical_path = mal::trace::CriticalPathByOp(collector);
  }
  if (r.error.empty() && r.ops.wrong == 0 && r.ops.failed == 0) {
    r.ok = true;
  } else if (r.error.empty()) {
    r.error = "oracle: " + std::to_string(r.ops.wrong) + " wrong, " +
              std::to_string(r.ops.failed) + " failed";
    for (const std::string& v : r.ops.violations) {
      r.error += "; " + v;
    }
  }
  return r;
}

double TimeSetup(const std::string& workload, uint64_t seed) {
  std::unique_ptr<Workload> w = Make(workload, seed);
  std::string error;
  double start = ThreadCpuSeconds();
  bool ok = w != nullptr && w->Setup(&error);
  return ok ? ThreadCpuSeconds() - start : -1;
}

namespace {

void AppendNum(std::string* out, const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s=%.17g;", key, v);
  *out += buf;
}

uint64_t HashSamples(const std::vector<uint64_t>& samples) {
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t v : samples) {
    h = (h ^ v) * 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string SimFingerprint(const RoundResult& r) {
  std::string out;
  const OpStats& s = r.ops;
  AppendNum(&out, "attempted", static_cast<double>(s.attempted));
  AppendNum(&out, "completed", static_cast<double>(s.completed));
  AppendNum(&out, "failed", static_cast<double>(s.failed));
  AppendNum(&out, "wrong", static_cast<double>(s.wrong));
  AppendNum(&out, "in_window", static_cast<double>(s.in_window));
  AppendNum(&out, "writes", static_cast<double>(s.write_ns.size()));
  AppendNum(&out, "reads", static_cast<double>(s.read_ns.size()));
  out += "write_hash=" + std::to_string(HashSamples(s.write_ns)) + ";";
  out += "read_hash=" + std::to_string(HashSamples(s.read_ns)) + ";";
  for (const auto& [op, n] : s.calls) {
    AppendNum(&out, ("calls." + op).c_str(), static_cast<double>(n));
  }
  AppendNum(&out, "phase_ns", static_cast<double>(r.phase_ns));
  AppendNum(&out, "profiled_ns", static_cast<double>(r.profiled_ns));
  AppendNum(&out, "stored", r.stored_bytes_per_user_byte);
  AppendNum(&out, "events", static_cast<double>(r.events));
  AppendNum(&out, "msgs", static_cast<double>(r.msgs));
  for (const auto& [k, v] : r.extra) {
    AppendNum(&out, k.c_str(), v);
  }
  for (const auto& [k, v] : r.layer) {
    if (k.find("cpu_busy_frac") == std::string::npos) {  // traced rounds only
      AppendNum(&out, k.c_str(), v);
    }
  }
  return out;
}

}  // namespace malbench
