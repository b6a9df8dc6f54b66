// Mantle: the programmable metadata load balancer (paper §5.1),
// re-implemented on Malacology interfaces.
//
// Policies are MalScript sources evaluated against the cluster load table.
// Globals available to a policy:
//   whoami   — this MDS's rank (number)
//   mds      — table: mds[rank] = {load, cpu, req_rate, subtrees}
//              where subtrees maps path -> requests/sec
//   targets  — table the policy fills: targets[rank] = load to export
//   time     — current virtual time in seconds
//   state    — table persisted across balancing ticks (for backoff
//              counters etc.; §6.2.3)
//
// A policy may be written in two styles:
//   1. callback style: define `when()` (should I migrate?) and `where()`
//      (fill `targets`); or
//   2. statement style: top-level statements that fill `targets` directly,
//      e.g. the paper's  targets[whoami+1] = mds[whoami]["load"]/2.
//
// MantleManager composes the Malacology interfaces exactly as §5.1
// describes: the policy body is durable as a RADOS object whose name is
// the version (Durability interface), the current version is published in
// the MDSMap service metadata (Service Metadata interface), version
// changes and errors go to the monitor's centralized cluster log, and the
// policy object is fetched with a timeout of half the balancing tick so a
// slow OSD cannot wedge the MDS (§5.1.2).
#ifndef MALACOLOGY_MANTLE_MANTLE_H_
#define MALACOLOGY_MANTLE_MANTLE_H_

#include <memory>
#include <string>

#include "src/mds/balancer.h"
#include "src/mds/mds.h"
#include "src/script/interpreter.h"

namespace mal::mantle {

class MantleBalancer : public mds::BalancerPolicy {
 public:
  // Compiles `source`; fails fast on syntax errors (nothing is installed).
  static mal::Result<std::shared_ptr<MantleBalancer>> Load(const std::string& version,
                                                           const std::string& source);

  std::string name() const override { return "mantle:" + version_; }
  const std::string& version() const { return version_; }

  mal::Result<mds::MigrationTargets> Decide(const mds::BalancerContext& ctx) override;

  // Print output produced by the policy (drained per tick); the manager
  // relays it to the centralized cluster log.
  std::vector<std::string> DrainPolicyOutput();

  // Engine-counter deltas since the previous call (the interpreter is
  // persistent, so we diff against the last exported snapshot).
  mds::PolicyScriptStats ConsumeScriptStats() override;

 private:
  MantleBalancer(std::string version, std::shared_ptr<const script::CompiledChunk> chunk);

  std::string version_;
  std::shared_ptr<const script::CompiledChunk> chunk_;
  script::Interpreter interp_;  // persistent: `state` survives across ticks
  script::EngineStats exported_;  // stats() snapshot at last ConsumeScriptStats
};

// Per-MDS manager wiring Mantle into the daemon.
class MantleManager {
 public:
  MantleManager(mds::MdsDaemon* daemon);

  // Starts watching the MDSMap for balancer version changes.
  void Start(sim::Time check_interval = 1 * sim::kSecond);

  const std::string& loaded_version() const { return loaded_version_; }

  // Admin path (any client can use these helpers too): store the policy as
  // a RADOS object named `version`, then publish the version in the MDSMap.
  static void InstallPolicy(rados::RadosClient* rados, const std::string& version,
                            const std::string& source,
                            std::function<void(mal::Status)> on_done);

 private:
  void CheckVersion();
  void FetchAndLoad(const std::string& version);

  mds::MdsDaemon* daemon_;
  std::string loaded_version_;
  bool fetch_in_flight_ = false;
};

// The balancer version key in the MDSMap service metadata.
inline constexpr char kBalancerVersionKey[] = "mantle.balancer_version";

}  // namespace mal::mantle

#endif  // MALACOLOGY_MANTLE_MANTLE_H_
