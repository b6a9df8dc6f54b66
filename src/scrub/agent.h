// Background scrub and self-healing rebuild for erasure-coded pools
// (paper §4.4: "RADOS protects data using common techniques such as
// erasure coding, replication, and scrubbing"). This is the only scrubber;
// replicated-layout objects are not scrubbed.
//
// The agent is a maintenance actor (entity "scrub.<id>") that discovers EC
// pools from the OSDMap's service metadata and finds their objects the way
// Ceph's scrub does, by listing what each OSD holds: a pass opens with one
// listing per up OSD and pool (ec::Pool::ListObjects) and queues each name,
// in name order, the first time any listing reports it. A listing that
// fails also refreshes the agent's map (see RadosClient::ListObjects), so
// an OSD failed in a map the agent missed stops drawing its repairs. At a
// paced rate the agent then gathers all k+1 shards of every queued object
// with checksum verification. A name none of whose shards holds stamped
// data (debris a Seal alone created) is skipped. Any hole — a shard lost
// with its OSD, silently bit-rotted, stranded on a former canonical home
// after membership change, or stale from a torn write — is repaired by
// decoding the surviving generation and filling only the damaged slots on
// their *current* canonical homes (ec::Pool::Fill). Whole-OSD rebuild is
// therefore the same code path as single-shard repair.
//
// Pacing: one timer fires every interval / objects_per_tick and starts the
// queue head while fewer than objects_per_tick objects are in flight; the
// listings count as one until the last has answered. Every listing, gather
// and repair runs under a kOpBudget deadline, so an OSD that crashed but is
// still up in the map costs one budget, not an rpc timeout per retry. A
// gather that cannot decode or a repair that fails is requeued behind the
// pass, up to three attempts per object.
//
// Everything the agent observes flows into perf counters
// (scrub.objects_scanned, scrub.shards_rebuilt, scrub.bytes_rebuilt,
// scrub.repair_failures, scrub.unrecoverable, scrub.repair_latency_us, and
// the scrub.degraded_objects / scrub.objects_tracked gauges refreshed per
// pass) and is pushed to the monitor, where the ec_degraded /
// scrub_stalled health rules watch them.
#ifndef MALACOLOGY_SCRUB_AGENT_H_
#define MALACOLOGY_SCRUB_AGENT_H_

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "src/common/perf.h"
#include "src/ec/pool.h"
#include "src/rados/client.h"
#include "src/sim/actor.h"

namespace mal::scrub {

struct ScrubConfig {
  // Pacing: `objects_per_tick` objects are started per `interval`, evenly
  // spaced, with at most `objects_per_tick` in flight (0 counts as 1).
  sim::Time interval = 500 * sim::kMillisecond;
  uint32_t objects_per_tick = 4;
};

class Agent : public sim::Actor {
 public:
  Agent(sim::Simulator* simulator, sim::Network* network, uint32_t id,
        std::vector<uint32_t> mons, ScrubConfig config = {});

  // Connects to the monitors and starts the paced scrub timer.
  void Boot();

  mal::PerfRegistry& perf() { return perf_; }
  rados::RadosClient& rados() { return rados_; }

  // Objects found degraded (and repaired, where possible) during the most
  // recently completed pass; mirrors the scrub.degraded_objects gauge.
  uint64_t last_pass_degraded() const { return last_pass_degraded_; }
  // Completed full walks over every tracked pool.
  uint64_t passes_completed() const { return passes_completed_; }

 protected:
  void HandleRequest(const sim::Envelope& request) override;

 private:
  struct WorkItem {
    std::string pool;
    uint32_t k = 0;
    std::string object;
    // Attempts already made this pass: an undecodable gather or a failed
    // repair (e.g. the map still routing a shard to a dead OSD) requeues
    // the object instead of leaving it degraded until the next pass.
    uint32_t attempts = 0;
  };

  void Tick();
  // Opens a pass: lists every EC pool of the current map on every up OSD
  // at once, queueing names as the listings land.
  void StartPass();
  // Queues a listing's names not yet seen this pass (sorted), merged in
  // name order among the listed objects not yet started: the order one
  // listing of the whole pool would give, whichever OSD answers first.
  void Enqueue(std::vector<WorkItem> fresh);
  void Scrub(WorkItem item);
  void Repair(WorkItem item, const std::vector<ec::ShardInfo>& shards,
              const mal::Buffer& data, uint32_t missing);
  // Requeues `item` for another attempt; false once its budget is spent.
  bool Retry(WorkItem item);
  // One in-flight object (or the listings) finished; closes the pass when
  // nothing is queued or in flight.
  void Done();

  ScrubConfig config_;
  rados::RadosClient rados_;
  mal::PerfRegistry perf_;
  std::deque<WorkItem> queue_;
  uint32_t in_flight_ = 0;
  uint64_t pass_degraded_ = 0;
  // Logical oids ("<pool>/<object>") the pass's listings have reported.
  std::set<std::string> pass_seen_;
  uint64_t last_pass_degraded_ = 0;
  uint64_t passes_completed_ = 0;
};

}  // namespace mal::scrub

#endif  // MALACOLOGY_SCRUB_AGENT_H_
