// Balancer policy interface and the stock CephFS balancing modes.
//
// The policy/mechanism split follows Mantle (paper §5.1): a policy decides
// *how much load* to send to which MDS rank; the MDS mechanism layer picks
// which subtrees realize that amount and performs the migrations. The
// stock CephFS balancer ships three hard-coded metric modes (CPU,
// workload, hybrid) that Figure 10a compares; Mantle's script-driven
// policy lives in src/mantle and implements this same interface.
#ifndef MALACOLOGY_MDS_BALANCER_H_
#define MALACOLOGY_MDS_BALANCER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/perf.h"
#include "src/common/status.h"
#include "src/mds/types.h"

namespace mal::mds {

struct SubtreeLoad {
  std::string path;
  double rate = 0;  // requests/sec observed on this subtree
};

struct BalancerContext {
  uint32_t whoami = 0;
  uint64_t now_ns = 0;
  std::map<uint32_t, LoadMetrics> mds;  // cluster load table (incl. self)
  std::vector<SubtreeLoad> my_subtrees;
};

// rank -> amount of load (requests/sec) to export there.
using MigrationTargets = std::map<uint32_t, double>;

// Script-engine counters for script-driven policies (Mantle); native
// policies report all-zeros.
using PolicyScriptStats = mal::ScriptCounters;

class BalancerPolicy {
 public:
  virtual ~BalancerPolicy() = default;
  virtual std::string name() const = 0;
  virtual mal::Result<MigrationTargets> Decide(const BalancerContext& ctx) = 0;

  // Deltas since the previous call (the daemon drains this every tick and
  // feeds its perf registry). Default: no script engine, nothing to report.
  virtual PolicyScriptStats ConsumeScriptStats() { return {}; }
};

// The three stock CephFS modes (Fig 10a): identical decision structure,
// different load metric.
enum class CephFsMode { kCpu, kWorkload, kHybrid };
const char* CephFsModeName(CephFsMode mode);

class CephFsBalancer : public BalancerPolicy {
 public:
  explicit CephFsBalancer(CephFsMode mode, double imbalance_threshold = 1.2)
      : mode_(mode), threshold_(imbalance_threshold) {}

  std::string name() const override {
    return std::string("cephfs-") + CephFsModeName(mode_);
  }

  mal::Result<MigrationTargets> Decide(const BalancerContext& ctx) override;

 private:
  double Metric(const LoadMetrics& m) const;

  CephFsMode mode_;
  double threshold_;
};

// Mechanism helper: greedily chooses subtrees whose combined rate
// approximates `amount`. Shared by every policy.
std::vector<std::string> PickSubtreesForLoad(const std::vector<SubtreeLoad>& subtrees,
                                             double amount);

}  // namespace mal::mds

#endif  // MALACOLOGY_MDS_BALANCER_H_
