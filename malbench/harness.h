// Shared pieces of the repository benchmark: the per-round result record,
// latency/op accounting, root spans around public calls, and the counter
// snapshots the per-layer metrics are computed from.
//
// A round is one deterministic simulation: boot + set-up, then a timed
// phase of simulated load. main.cc repeats rounds for the
// requested wall time; every simulated number of a round is a pure
// function of the workload seed, so all rounds of one run must agree
// byte for byte, and only the host wall times differ between them.
#ifndef MALBENCH_HARNESS_H_
#define MALBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/perf.h"
#include "src/common/trace.h"
#include "src/scrub/agent.h"

namespace malbench {

using mal::sim::Time;

// Simulated-op accounting for one timed phase. An op is one log entry
// appended or read, one RADOS call, or one EC object read or written.
struct OpStats {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;     // error status
  uint64_t wrong = 0;      // completed with a result the oracle rejects
  uint64_t in_window = 0;  // completed at or before the phase end
  std::vector<uint64_t> write_ns;
  std::vector<uint64_t> read_ns;
  // Completed public calls per root-span op name ("zlog.append_batch"...).
  std::map<std::string, uint64_t> calls;
  // First oracle violations, for the error report.
  std::vector<std::string> violations;
  // Host CPU time at every kMarkEvery-th completion: slice k of the phase
  // does identical work in every round of a seed (see main.cc).
  std::vector<double> cpu_marks;

  // Records `n` ops completing at `now`, with one latency sample.
  void Complete(uint64_t n, Time now, Time end, Time latency, bool write);
  void Wrong(const std::string& what);
};

// Everything a workload hands back from one round.
struct RoundResult {
  bool ok = false;
  std::string error;

  OpStats ops;
  Time phase_ns = 0;        // fixed length of the load window
  Time profiled_ns = 0;     // load window plus drain
  double stored_bytes_per_user_byte = 0;
  // Workload-specific simulated results ("sim_repair_s", "backlog"...).
  std::map<std::string, double> extra;

  // Per-layer simulated metrics (deterministic), filled by the harness.
  std::map<std::string, double> layer;

  // Host measurements: CPU seconds of the (single) simulation thread.
  double setup_s = 0;
  double phase_s = 0;
  std::vector<double> phase_slices;  // phase_s split at the cpu_marks
  uint64_t events = 0;
  uint64_t msgs = 0;

  // Traced rounds only.
  std::map<std::string, mal::trace::OpBreakdown> critical_path;
};

// The cluster-facing handles a workload exposes so the harness can read
// every layer's counters from outside.
struct ClusterHandles {
  mal::cluster::Cluster* cluster = nullptr;
  std::vector<mal::cluster::Client*> clients;
  mal::scrub::Agent* scrub = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Boot, preload, script install, sequencer spread. False on failure.
  virtual bool Setup(std::string* error) = 0;
  // The timed phase: load, drain, correctness checks.
  virtual void Phase(RoundResult* result) = 0;
  virtual ClusterHandles handles() = 0;
};

std::unique_ptr<Workload> MakeZlogAppend(uint64_t seed);
std::unique_ptr<Workload> MakeRadosMixed(uint64_t seed, double rate_hz);
std::unique_ptr<Workload> MakeEcRepair(uint64_t seed);

// Offered rate of rados_mixed's open loop: 60% of the 91 652 op/s
// closed-loop capacity measured with `malbench --measure-capacity`.
constexpr double kRadosMixedRateHz = 55'000;
double MeasureRadosMixedCapacity(uint64_t seed);

// Runs one full round (set-up + phase) and fills the harness-side fields.
RoundResult RunRound(const std::string& workload, uint64_t seed, bool traced);

// Host CPU seconds of one set-up alone (boot, preload, script install,
// sequencer spread); negative if the set-up failed.
double TimeSetup(const std::string& workload, uint64_t seed);

// Canonical text of every simulated output of a round; two rounds of the
// same seed must produce identical strings.
std::string SimFingerprint(const RoundResult& round);

// -- helpers shared by the workloads --------------------------------------------

// Mixes the workload seed into an independent stream id.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// Opens the benchmark's root span for one public call under `op`; returns
// an invalid context when no collector is installed. The caller makes it
// ambient (trace::ScopedContext) around the call so the program's RPC
// spans nest under it.
mal::trace::TraceContext BeginOp(const char* op, mal::sim::Actor* caller);
void EndOp(const mal::trace::TraceContext& span, mal::sim::Actor* caller, bool ok);

// True for the op names of write calls ("zlog.append_batch", "rados.write",
// "cls.exec", "ec.write"); the rest are reads.
bool IsWriteOp(const std::string& op);

// Sum of OSD store bytes.
uint64_t StoredBytes(mal::cluster::Cluster* cluster);

// Host CPU time of this thread: the single-threaded simulation's cost,
// not counting time the scheduler gives to other processes.
double ThreadCpuSeconds();

// Host wall clock (run length).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace malbench

#endif  // MALBENCH_HARNESS_H_
