#include "src/scrub/agent.h"

#include <cstdint>
#include <limits>
#include <utility>

#include "src/mon/maps.h"

namespace mal::scrub {

namespace {

// Repair runs below the client fencing layer: it restores redundancy of an
// existing write generation (same bytes, same stamp) rather than creating
// a new one, so it must pass the ec.check_epoch guard even on sealed
// objects. The max epoch always passes and never advances the seal.
constexpr uint64_t kRepairEpoch = std::numeric_limits<uint64_t>::max();

}  // namespace

Agent::Agent(sim::Simulator* simulator, sim::Network* network, uint32_t id,
             std::vector<uint32_t> mons, ScrubConfig config)
    : Actor(simulator, network, sim::EntityName::Scrub(id)),
      config_(config),
      rados_(this, std::move(mons)) {
  rados_.set_perf(&perf_);
}

void Agent::Boot() {
  rados_.Connect([](mal::Status) {});
  StartPeriodic(config_.interval, [this] { Tick(); });
  if (config_.report_interval > 0) {
    StartPeriodic(config_.report_interval, [this] {
      if (!perf_.empty()) {
        rados_.mon_client().ReportPerf(perf_.Snapshot(name().ToString(), Now()));
      }
    });
  }
}

void Agent::HandleRequest(const sim::Envelope& request) {
  if (rados_.OnMapUpdate(request)) {
    return;
  }
  rados_.OnNotify(request);
}

void Agent::Tick() {
  if (busy_) {
    return;  // previous batch or refill still draining; keep the pace honest
  }
  if (!queue_.empty()) {
    busy_ = true;
    ScrubNext(config_.objects_per_tick);
    return;
  }
  // Queue drained: enumerate the EC pools in the current map view and
  // start a fresh pass.
  std::vector<std::pair<std::string, uint32_t>> pools;
  const auto& metadata = rados_.osd_map().service_metadata;
  for (auto it = metadata.lower_bound(mon::kPoolKeyPrefix); it != metadata.end(); ++it) {
    if (it->first.rfind(mon::kPoolKeyPrefix, 0) != 0) {
      break;
    }
    auto layout = mon::PoolLayout::Parse(it->second);
    if (layout.has_value() && layout->kind == mon::PoolLayout::Kind::kErasure) {
      pools.emplace_back(it->first.substr(sizeof(mon::kPoolKeyPrefix) - 1), layout->width);
    }
  }
  pass_open_ = true;
  pass_degraded_ = 0;
  pass_tracked_ = 0;
  if (pools.empty()) {
    FinishPass();
    return;
  }
  busy_ = true;
  Refill(std::move(pools), 0);
}

void Agent::Refill(std::vector<std::pair<std::string, uint32_t>> pools, size_t next) {
  if (next >= pools.size()) {
    pass_tracked_ = queue_.size();
    if (queue_.empty()) {
      FinishPass();
    }
    busy_ = false;  // scrubbing starts on the next tick (paced)
    return;
  }
  auto [pool_name, k] = pools[next];
  ec::Pool pool(&rados_, pool_name, k);
  pool.ListObjects([this, pools = std::move(pools), next, pool_name = pool_name,
                    k = k](mal::Status status, std::vector<std::string> objects) mutable {
    if (status.ok()) {
      for (std::string& object : objects) {
        queue_.push_back(WorkItem{pool_name, k, std::move(object)});
      }
    }
    Refill(std::move(pools), next + 1);
  });
}

void Agent::FinishPass() {
  if (!pass_open_) {
    return;
  }
  pass_open_ = false;
  last_pass_degraded_ = pass_degraded_;
  ++passes_completed_;
  perf_.Set("scrub.degraded_objects", static_cast<double>(pass_degraded_));
  perf_.Set("scrub.objects_tracked", static_cast<double>(pass_tracked_));
}

void Agent::ScrubNext(uint32_t budget) {
  if (queue_.empty()) {
    FinishPass();
    busy_ = false;
    return;
  }
  if (budget == 0) {
    busy_ = false;  // batch exhausted; resume at the next tick
    return;
  }
  WorkItem item = std::move(queue_.front());
  queue_.pop_front();
  ScrubOne(item, budget - 1);
}

void Agent::ScrubOne(const WorkItem& item, uint32_t budget) {
  ec::Pool pool(&rados_, item.pool, item.k);
  std::string object = item.object;
  pool.GatherShards(
      object, [this, pool_name = item.pool, k = item.k, object, attempts = item.attempts,
               budget](const std::vector<ec::ShardInfo>& shards) mutable {
        perf_.Inc("scrub.objects_scanned");
        uint64_t size = 0;
        uint32_t missing = 0;
        auto generation = ec::SelectGeneration(shards, &size, &missing);
        if (missing == 0) {
          ScrubNext(budget);  // fully redundant, consistent generation
          return;
        }
        if (attempts == 0) {
          ++pass_degraded_;  // count the object once, not per retry
        }
        auto decoded = ec::Decode(generation, size);
        if (!decoded.ok()) {
          // Beyond the code's tolerance (or nothing left at all): record
          // it loudly; only an operator restore can help now.
          perf_.Inc("scrub.unrecoverable");
          rados_.mon_client().Log("ERROR", "scrub: unrecoverable object " + pool_name +
                                               "/" + object + ": " +
                                               decoded.status().ToString());
          ScrubNext(budget);
          return;
        }
        uint64_t shard_len = 0;
        for (const auto& shard : generation) {
          if (shard.has_value()) {
            shard_len = shard->size();
            break;
          }
        }
        sim::Time start = Now();
        ec::Pool repair_pool(&rados_, pool_name, k);
        repair_pool.set_epoch(kRepairEpoch);
        repair_pool.Write(object, decoded.value(),
                          [this, pool_name, k, object, attempts, missing, shard_len,
                           start, budget](mal::Status status) {
                            if (status.ok()) {
                              perf_.Inc("scrub.shards_rebuilt", missing);
                              perf_.Inc("scrub.bytes_rebuilt", missing * shard_len);
                              perf_.Observe("scrub.repair_latency_us",
                                            static_cast<double>(Now() - start) / 1e3);
                            } else {
                              perf_.Inc("scrub.repair_failures");
                              // Retry behind the rest of the pass: map-churn
                              // write failures usually clear within seconds,
                              // and waiting a whole pass widens the window
                              // in which a second fault turns one degraded
                              // object into a data loss.
                              if (attempts + 1 < 3) {
                                queue_.push_back(
                                    WorkItem{pool_name, k, object, attempts + 1});
                              }
                            }
                            ScrubNext(budget);
                          });
      });
}

}  // namespace mal::scrub
