// §6.2.3 "Feature: Backoff" — aggressiveness of balancing decisions.
//
// Paper: "the more conservative the approach the less overall throughput"
// during the balancing phase, but conservatism (waiting for the receiver
// to cool down; sustained-overload countdowns) avoids thrashing. We sweep
// the Mantle policy's when() threshold and cooldown and report time of
// first migration, number of migrations, and total + stable throughput.
#include "bench/balancer_experiment.h"
#include "bench/bench_util.h"

namespace {

std::string PolicyWithKnobs(double receiver_threshold_fraction, int cooldown) {
  char buffer[1024];
  std::snprintf(buffer, sizeof(buffer), R"(
if state.cooldown == nil then state.cooldown = 0 end

function when()
  if state.cooldown > 0 then
    state.cooldown = state.cooldown - 1
    return false
  end
  local my = mds[whoami]["load"]
  if my < 100 then return false end
  local coolest = nil
  for rank, row in pairs(mds) do
    if rank ~= whoami then
      if coolest == nil or row["load"] < mds[coolest]["load"] then
        coolest = rank
      end
    end
  end
  if coolest == nil then return false end
  if mds[coolest]["load"] > my * %f then return false end
  state.receiver = coolest
  state.cooldown = %d
  return true
end

function where()
  targets[state.receiver] = mds[whoami]["load"] / 2
end
)",
                receiver_threshold_fraction, cooldown);
  return buffer;
}

}  // namespace

int main() {
  using namespace mal::bench;
  namespace sim = mal::sim;
  PrintHeader("Backoff study (§6.2.3): aggressive vs conservative balancing",
              "Mantle policy knobs: receiver-cool threshold and post-migration "
              "cooldown ticks. 3 sequencers x 4 clients, 3 MDS, 150 s runs.");
  PrintColumns({"policy", "first_migration_s", "migrations", "stable_ops_per_sec",
                "total_ops"});

  struct Knobs {
    const char* name;
    double threshold;
    int cooldown;
  };
  const Knobs sweep[] = {
      {"aggressive(thr=0.9,cd=0)", 0.9, 0},
      {"moderate(thr=0.5,cd=1)", 0.5, 1},
      {"conservative(thr=0.25,cd=2)", 0.25, 2},
      {"very-conservative(thr=0.1,cd=4)", 0.1, 4},
  };
  double aggressive_first = -1;
  double conservative_first = -1;
  uint64_t granted_twice = 0;
  uint64_t failed_grants = 0;
  for (const Knobs& knobs : sweep) {
    BalancerExperimentConfig config;
    config.name = knobs.name;
    config.duration = 150 * sim::kSecond;
    config.mantle_policy = PolicyWithKnobs(knobs.threshold, knobs.cooldown);
    BalancerExperimentResult result = RunBalancerExperiment(config);
    double total = 0;
    for (const auto& [t, v] : result.cluster_series) {
      total += v;
    }
    granted_twice += result.positions_granted_twice;
    failed_grants += result.failed_grants;
    double first = result.migrations.empty() ? -1 : std::get<0>(result.migrations[0]);
    std::printf("%s\t%.1f\t%zu\t%.0f\t%.0f\n", knobs.name, first,
                result.migrations.size(), result.stable_ops_per_sec, total);
    if (knobs.cooldown == 0) {
      aggressive_first = first;
    }
    if (knobs.cooldown == 4) {
      conservative_first = first;
    }
  }
  PrintSection("shape check");
  bool ok = ShapeCheck("conservative policies migrate later (or not at all)",
                       conservative_first < 0 || conservative_first >= aggressive_first);
  std::printf("positions granted twice: %llu\n",
              static_cast<unsigned long long>(granted_twice));
  ok &= ShapeCheck("no sequencer position granted twice", granted_twice == 0);
  std::printf("sequencer grants failed: %llu\n",
              static_cast<unsigned long long>(failed_grants));
  ok &= ShapeCheck("no sequencer grant failed", failed_grants == 0);
  return ok ? 0 : 1;
}
