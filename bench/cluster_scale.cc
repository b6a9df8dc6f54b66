// Scheduler-scale benchmark: how fast is the simulator core, and does the
// cluster keep scaling when driven open-loop?
//
// Four sections, all emitted to BENCH_cluster_scale.json:
//   1. timer_storm        — pure scheduler churn (schedule/cancel/fire mix
//                           across all wheel levels) on the production
//                           Simulator vs the retained priority-queue oracle
//                           (LegacySimulator). The two runs execute the
//                           identical logical workload; the shape check
//                           demands the wheel be >= 3x the heap on
//                           events/sec (fastest of 3 interleaved runs each)
//                           and that both end at the same virtual clock
//                           (determinism).
//   2. osd_scaling        — open-loop appends at ~1.3x measured capacity,
//                           sweeping OSD count. Offered load always exceeds
//                           capacity, so completed/sec tracks capacity,
//                           which should be near-linear in OSD count.
//   3. scale_sessions     — >= 100k logical sessions multiplexed over 16
//                           client actors, Zipfian object popularity.
//   4. flash_crowd        — arrival-rate step surge; the completed-ops rate
//                           inside the surge window must rise >= 3x above
//                           the pre-surge baseline (open loop: the cluster
//                           absorbs the surge instead of pacing it away).
//
// `--small` shrinks every section for CI (same checks, smaller totals).
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/cluster/workload.h"
#include "src/common/rng.h"
#include "tests/legacy_simulator.h"

namespace {

using namespace mal;
using namespace mal::bench;

// -- Section 1: timer storm ---------------------------------------------------

struct StormResult {
  uint64_t fired = 0;
  uint64_t cancelled = 0;
  sim::Time end_time = 0;
  double wall_seconds = 0;
};

// Runs an identical self-perpetuating schedule/cancel workload on any
// simulator with the Schedule/Cancel/Run interface. Every delay and cancel
// decision comes from one Rng consumed in event order, and both simulator
// implementations execute events in the same (when, seq) order, so the two
// runs are the same logical history — only the data structure differs.
// Scheduled callbacks capture just a Storm pointer, so the event payload is
// pointer-sized on both implementations (inline for the wheel's small-buffer
// storage, within std::function's SBO for the heap).
template <typename Sim>
struct Storm {
  Sim simulator;
  mal::Rng rng;
  uint64_t total_events;
  uint64_t scheduled = 0;
  uint64_t fired = 0;
  uint64_t cancel_attempts = 0;
  // Ring of recently scheduled ids; cancel targets come from here. Entries
  // may have already fired — stale cancels exercise the dead-id path.
  std::vector<sim::EventId> recent = std::vector<sim::EventId>(1024, 0);

  Storm(uint64_t total, uint64_t seed) : rng(seed), total_events(total) {}

  void ScheduleOne(sim::Time delay) {
    ++scheduled;
    recent[scheduled & (recent.size() - 1)] =
        simulator.Schedule(delay, [this] { Fire(); });
  }

  void Fire() {
    ++fired;
    if (scheduled >= total_events) {
      return;
    }
    // Mixed delay profile touching every wheel level and the overflow list.
    // All ranges are powers of two so one raw draw and a mask suffice — the
    // workload's own cost stays small relative to the scheduler under test.
    uint64_t r = rng.Next();
    uint64_t bucket = r >> 58;  // top 6 bits: 64 buckets
    sim::Time delay;
    if (bucket < 6) {
      delay = 0;  // ~9%: same-instant cascade
    } else if (bucket < 44) {
      delay = 1 + (r & ((1u << 20) - 1));  // ~60%: <= ~1 ms
    } else if (bucket < 63) {
      delay = sim::kMillisecond + (r & ((1u << 27) - 1));  // ~30%: <= ~135 ms
    } else {
      delay = sim::kSecond + (r & ((1ull << 38) - 1));  // ~1.5%: <= ~275 s
    }
    ScheduleOne(delay);
    if ((r & 0xf000) < 0x3000) {
      // ~20% of firings: one extra event plus one cancel — churn without
      // population growth.
      uint64_t r2 = rng.Next();
      if (scheduled < total_events) {
        ScheduleOne(1 + (r2 & ((1u << 23) - 1)));  // <= ~8 ms
      }
      sim::EventId victim = recent[r2 >> 54];  // top 10 bits: ring index
      if (victim != 0) {
        ++cancel_attempts;
        simulator.Cancel(victim);
      }
    }
  }
};

template <typename Sim>
StormResult RunStorm(uint64_t total_events, uint64_t outstanding, uint64_t seed) {
  Storm<Sim> storm(total_events, seed);
  WallTimer timer;
  // Seed a large standing population — the RPC-timeout/periodic-timer load
  // of a cluster at session scale. The wheel holds these at O(1) per event;
  // a binary heap pays O(log n) on every operation.
  for (uint64_t i = 0; i < outstanding && storm.scheduled < total_events; ++i) {
    storm.ScheduleOne(1 + (storm.rng.Next() & ((1ull << 33) - 1)));  // <= ~8.6 s
  }
  storm.simulator.Run();
  StormResult result;
  result.wall_seconds = timer.Seconds();
  result.fired = storm.fired;
  result.cancelled = storm.cancel_attempts;
  result.end_time = storm.simulator.Now();
  return result;
}

// -- Sections 2-4: open-loop cluster runs -------------------------------------

struct ClusterRunResult {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t sessions = 0;
  double completed_per_sec = 0;  // simulated
  double mean_latency_us = 0;
  double p99_latency_us = 0;
  uint64_t sim_events = 0;
};

ClusterRunResult RunOpenLoop(
    uint32_t num_osds, cluster::ScaleWorkloadOptions wl, sim::Time duration,
    const std::function<void(cluster::ScaleWorkload&, sim::Time)>& inspect = {}) {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = num_osds;
  options.num_mds = 1;
  options.osd.replicas = 2;
  options.mon.proposal_interval = 500 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();

  cluster::ScaleWorkload workload(&cluster, wl);
  uint64_t events_before = cluster.simulator().events_processed();
  sim::Time start = cluster.simulator().Now();
  workload.Start();
  cluster.RunFor(duration);
  workload.Stop();
  // Drain in-flight ops so completed/failed settle deterministically.
  cluster.RunFor(2 * sim::kSecond);

  ClusterRunResult result;
  result.issued = workload.issued();
  result.completed = workload.completed();
  result.failed = workload.failed();
  result.sessions = workload.sessions_started();
  result.completed_per_sec =
      static_cast<double>(workload.completed()) / (static_cast<double>(duration) / 1e9);
  result.mean_latency_us = workload.latency().mean();
  result.p99_latency_us = workload.latency().Quantile(0.99);
  result.sim_events = cluster.simulator().events_processed() - events_before;
  if (inspect) {
    inspect(workload, start);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    }
  }

  PrintHeader("cluster scale: scheduler throughput and open-loop scaling",
              small ? "small (CI) configuration" : "full configuration");
  JsonReporter json("cluster_scale");
  bool ok = true;

  // -- 1. timer storm ---------------------------------------------------------
  // The storm runs at full size even under --small (each round costs ~2 s of
  // wall clock): the measured speedup depends on the standing timer
  // population (the heap pays O(log n) per op) and on run length (the heap's
  // leaked cancel tombstones pile up in a map that every Step then
  // searches), so shrinking it would measure a different — easier —
  // baseline. Wheel and heap alternate for 3 rounds and each side keeps its
  // fastest run, so a noisy neighbour on a shared runner slows one sample
  // rather than the ratio.
  const uint64_t storm_events = 4'000'000;
  const uint64_t storm_outstanding = 50'000;
  StormResult wheel;
  StormResult heap;
  for (int round = 0; round < 3; ++round) {
    StormResult w = RunStorm<sim::Simulator>(storm_events, storm_outstanding, /*seed=*/17);
    StormResult h =
        RunStorm<sim::LegacySimulator>(storm_events, storm_outstanding, /*seed=*/17);
    if (round == 0 || w.wall_seconds < wheel.wall_seconds) {
      wheel = w;
    }
    if (round == 0 || h.wall_seconds < heap.wall_seconds) {
      heap = h;
    }
  }
  json.Add("timer_storm(wheel)",
           {{"cancelled", static_cast<double>(wheel.cancelled)},
            {"end_time_s", static_cast<double>(wheel.end_time) / 1e9}},
           static_cast<double>(wheel.fired));
  json.Add("timer_storm(legacy_heap)",
           {{"cancelled", static_cast<double>(heap.cancelled)},
            {"end_time_s", static_cast<double>(heap.end_time) / 1e9}},
           static_cast<double>(heap.fired));
  double wheel_eps = static_cast<double>(wheel.fired) / wheel.wall_seconds;
  double heap_eps = static_cast<double>(heap.fired) / heap.wall_seconds;
  std::printf("timer_storm: wheel %.0f ev/s, legacy heap %.0f ev/s (%.1fx)\n", wheel_eps,
              heap_eps, wheel_eps / heap_eps);
  ok &= ShapeCheck("timer_storm: wheel and heap runs are the same logical history",
                   wheel.fired == heap.fired && wheel.cancelled == heap.cancelled &&
                       wheel.end_time == heap.end_time);
  ok &= ShapeCheck("timer_storm: wheel >= 3x legacy heap events/sec (best of 3)",
                   wheel_eps >= 3.0 * heap_eps);

  // -- 2. OSD scaling sweep ---------------------------------------------------
  // Offered load ~1.3x measured per-OSD capacity (~38k appends/s/OSD with
  // 2 replicas) at each size: the cluster is always the bottleneck, so
  // completed/sec measures capacity, and moderate overload keeps queue
  // waits under the RPC timeout for the run lengths used here.
  const sim::Time sweep_duration = (small ? 4 : 10) * sim::kSecond;
  std::vector<uint32_t> osd_counts = {4, 8, 16};
  std::vector<double> sweep_completed;
  for (uint32_t osds : osd_counts) {
    cluster::ScaleWorkloadOptions wl;
    wl.num_sessions = 10'000;
    wl.num_client_actors = osds;  // clients scale with the cluster
    wl.arrivals.shape = cluster::ArrivalConfig::Shape::kSteady;
    wl.arrivals.base_rate_hz = 50'000.0 * static_cast<double>(osds);
    wl.zipf_theta = 0.2;  // near-uniform: measure scaling, not hotspots
    wl.num_objects = 10'007;
    wl.seed = 42;
    ClusterRunResult r = RunOpenLoop(osds, wl, sweep_duration);
    sweep_completed.push_back(r.completed_per_sec);
    std::printf("osd_scaling(%u osds): %.0f completed/s (issued %llu, failed %llu)\n",
                osds, r.completed_per_sec, static_cast<unsigned long long>(r.issued),
                static_cast<unsigned long long>(r.failed));
    json.Add("osd_scaling(" + std::to_string(osds) + " osds)",
             {{"appends_per_sec", r.completed_per_sec},
              {"issued", static_cast<double>(r.issued)},
              {"completed", static_cast<double>(r.completed)},
              {"failed", static_cast<double>(r.failed)},
              {"mean_latency_us", r.mean_latency_us},
              {"p99_latency_us", r.p99_latency_us}},
             static_cast<double>(r.sim_events));
  }
  ok &= ShapeCheck("osd_scaling: 8 osds >= 1.7x 4 osds",
                   sweep_completed[1] >= 1.7 * sweep_completed[0]);
  ok &= ShapeCheck("osd_scaling: 16 osds >= 3.0x 4 osds",
                   sweep_completed[2] >= 3.0 * sweep_completed[0]);

  // -- 3. >= 100k sessions ----------------------------------------------------
  {
    cluster::ScaleWorkloadOptions wl;
    wl.num_sessions = small ? 100'000 : 150'000;
    wl.num_client_actors = 16;
    wl.arrivals.shape = cluster::ArrivalConfig::Shape::kSteady;
    wl.arrivals.base_rate_hz = small ? 40'000.0 : 50'000.0;
    wl.zipf_theta = 0.99;  // realistic skew
    wl.seed = 7;
    const sim::Time duration = (small ? 4 : 10) * sim::kSecond;
    ClusterRunResult r = RunOpenLoop(16, wl, duration);
    std::printf("scale_sessions: %llu sessions, %.0f completed/s, p99 %.0f us\n",
                static_cast<unsigned long long>(r.sessions), r.completed_per_sec,
                r.p99_latency_us);
    json.Add("scale_sessions",
             {{"sessions", static_cast<double>(r.sessions)},
              {"appends_per_sec", r.completed_per_sec},
              {"issued", static_cast<double>(r.issued)},
              {"completed", static_cast<double>(r.completed)},
              {"failed", static_cast<double>(r.failed)},
              {"mean_latency_us", r.mean_latency_us},
              {"p99_latency_us", r.p99_latency_us}},
             static_cast<double>(r.sim_events));
    ok &= ShapeCheck("scale_sessions: >= 100k logical sessions active",
                     r.sessions >= 100'000);
    ok &= ShapeCheck("scale_sessions: > 97% of issued ops completed",
                     r.failed * 33 < r.issued);
  }

  // -- 4. flash crowd ---------------------------------------------------------
  {
    cluster::ScaleWorkloadOptions wl;
    wl.num_sessions = 10'000;
    wl.num_client_actors = 8;
    wl.arrivals.shape = cluster::ArrivalConfig::Shape::kFlashCrowd;
    wl.arrivals.base_rate_hz = small ? 2'000.0 : 5'000.0;
    wl.arrivals.flash_multiplier = 5.0;
    wl.arrivals.flash_start = 6 * sim::kSecond;
    wl.arrivals.flash_duration = 4 * sim::kSecond;
    wl.zipf_theta = 0.5;
    wl.seed = 99;
    wl.arrivals.flash_start = 10 * sim::kSecond;
    double baseline_rate = 0, surge_rate = 0;
    ClusterRunResult r = RunOpenLoop(
        8, wl, 16 * sim::kSecond,
        [&](cluster::ScaleWorkload& workload, sim::Time start) {
          // The surge window is absolute sim time; the baseline window runs
          // from 1 s after the workload started (skipping ramp-in) to the
          // surge. Boot settle keeps `start` well before flash_start.
          baseline_rate = workload.throughput().MeanRate(start + 1 * sim::kSecond,
                                                         wl.arrivals.flash_start);
          surge_rate = workload.throughput().MeanRate(
              wl.arrivals.flash_start,
              wl.arrivals.flash_start + wl.arrivals.flash_duration);
        });
    std::printf("flash_crowd: baseline %.0f/s, surge %.0f/s (%.1fx)\n", baseline_rate,
                surge_rate, surge_rate / baseline_rate);
    json.Add("flash_crowd",
             {{"baseline_per_sec", baseline_rate},
              {"surge_per_sec", surge_rate},
              {"completed", static_cast<double>(r.completed)},
              {"failed", static_cast<double>(r.failed)},
              {"p99_latency_us", r.p99_latency_us}},
             static_cast<double>(r.sim_events));
    ok &= ShapeCheck("flash_crowd: surge window >= 3x baseline completed rate",
                     surge_rate >= 3.0 * baseline_rate);
  }

  json.Write();
  return ok ? 0 : 1;
}
