#include "src/scrub/agent.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <tuple>
#include <utility>

#include "src/common/deadline.h"
#include "src/mon/maps.h"

namespace mal::scrub {

namespace {

// Budget of every gather and every repair: an OSD that crashed but is still
// up in the map stalls one object for this long, not for rpc timeouts.
constexpr sim::Time kOpBudget = 1 * sim::kSecond;
// Attempts per object and pass before it waits for the next pass.
constexpr uint32_t kMaxAttempts = 3;

}  // namespace

Agent::Agent(sim::Simulator* simulator, sim::Network* network, uint32_t id,
             std::vector<uint32_t> mons, ScrubConfig config)
    : Actor(simulator, network, sim::EntityName::Scrub(id)),
      config_(config),
      rados_(this, std::move(mons)) {
  config_.objects_per_tick = std::max<uint32_t>(config_.objects_per_tick, 1);
  rados_.set_perf(&perf_);
}

void Agent::Boot() {
  rados_.Connect([](mal::Status) {});
  // Even starts: one object per interval / objects_per_tick.
  StartPeriodic(std::max<sim::Time>(config_.interval / config_.objects_per_tick, 1),
                [this] { Tick(); });
  rados_.mon_client().StartPerfReports(perf_);
}

void Agent::HandleRequest(const sim::Envelope& request) {
  if (rados_.OnMapUpdate(request)) {
    return;
  }
  rados_.OnNotify(request);
}

void Agent::Tick() {
  if (queue_.empty()) {
    if (in_flight_ == 0) {
      StartPass();
    }
    return;
  }
  if (in_flight_ < config_.objects_per_tick) {
    WorkItem item = std::move(queue_.front());
    queue_.pop_front();
    Scrub(std::move(item));
  }
}

void Agent::StartPass() {
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
  pass_degraded_ = 0;
  pass_seen_.clear();
  // The listings count as one object in flight until the last of them has
  // answered or spent its budget; the names each one reports are queued
  // as it lands, so a silent OSD holds back no other OSD's objects.
  ++in_flight_;
  auto listings = std::make_shared<size_t>(1);
  mal::ScopedDeadline budget(Now() + kOpBudget);
  for (const auto& [pool_name, k] : pools) {
    ec::Pool pool(&rados_, pool_name, k);
    *listings += pool.ListObjects([this, listings, pool_name = pool_name, k = k](
                                      mal::Status, std::vector<std::string> objects) {
      std::vector<WorkItem> fresh;
      for (std::string& object : objects) {
        if (pass_seen_.insert(osd::PoolOid(pool_name, object)).second) {
          fresh.push_back(WorkItem{pool_name, k, std::move(object)});
        }
      }
      Enqueue(std::move(fresh));
      if (--*listings == 0) {
        Done();
      }
    });
  }
  if (--*listings == 0) {
    Done();
  }
}

void Agent::Enqueue(std::vector<WorkItem> fresh) {
  auto before = [](const WorkItem& a, const WorkItem& b) {
    return std::tie(a.pool, a.object) < std::tie(b.pool, b.object);
  };
  std::deque<WorkItem> merged;
  auto next = fresh.begin();
  for (WorkItem& queued : queue_) {
    // Retries keep their place behind the listed objects around them.
    while (next != fresh.end() && queued.attempts == 0 && before(*next, queued)) {
      merged.push_back(std::move(*next++));
    }
    merged.push_back(std::move(queued));
  }
  std::move(next, fresh.end(), std::back_inserter(merged));
  queue_.swap(merged);
}

void Agent::Scrub(WorkItem item) {
  ++in_flight_;
  ec::Pool pool(&rados_, item.pool, item.k);
  mal::ScopedDeadline budget(Now() + kOpBudget);
  pool.GatherShards(item.object, [this, item](const std::vector<ec::ShardInfo>& shards) {
    perf_.Inc("scrub.objects_scanned");
    if (std::none_of(shards.begin(), shards.end(),
                     [](const ec::ShardInfo& shard) { return shard.present; })) {
      Done();  // no shard holds stamped data: debris, such as what a Seal alone made
      return;
    }
    uint64_t size = 0;
    uint32_t missing = 0;
    auto generation = ec::SelectGeneration(shards, &size, &missing);
    if (missing == 0) {
      Done();  // fully redundant, consistent generation
      return;
    }
    if (item.attempts == 0) {
      ++pass_degraded_;  // count the object once, not per retry
    }
    auto decoded = ec::Decode(generation, size);
    if (decoded.ok()) {
      Repair(item, shards, decoded.value(), missing);
      return;
    }
    // A shard whose home crashed but is still up in the map is a hole
    // until the map catches up, so retry before declaring a loss.
    if (!Retry(item)) {
      perf_.Inc("scrub.unrecoverable");
      rados_.mon_client().Log("ERROR", "scrub: unrecoverable object " + item.pool + "/" +
                                           item.object + ": " + decoded.status().ToString());
    }
    Done();
  });
}

void Agent::Repair(WorkItem item, const std::vector<ec::ShardInfo>& shards,
                   const mal::Buffer& data, uint32_t missing) {
  uint64_t bytes = missing * ((data.size() + item.k - 1) / item.k);
  sim::Time start = Now();
  ec::Pool pool(&rados_, item.pool, item.k);
  // A fresh budget: the gather's deadline is still ambient in its callback.
  mal::ScopedDeadline budget(Now() + kOpBudget);
  pool.Fill(item.object, data, shards,
            [this, item, missing, bytes, start](mal::Status status) {
              if (status.ok()) {
                perf_.Inc("scrub.shards_rebuilt", missing);
                perf_.Inc("scrub.bytes_rebuilt", bytes);
                perf_.Observe("scrub.repair_latency_us",
                              static_cast<double>(Now() - start) / 1e3);
              } else {
                // kAborted: a slot changed since the gather (a client write
                // landed), which calls for a rescan, not a failure.
                if (status.code() != mal::Code::kAborted) {
                  perf_.Inc("scrub.repair_failures");
                }
                Retry(item);
              }
              Done();
            });
}

bool Agent::Retry(WorkItem item) {
  if (++item.attempts >= kMaxAttempts) {
    return false;
  }
  queue_.push_back(std::move(item));
  return true;
}

void Agent::Done() {
  if (--in_flight_ > 0 || !queue_.empty()) {
    return;
  }
  last_pass_degraded_ = pass_degraded_;
  ++passes_completed_;
  perf_.Set("scrub.degraded_objects", static_cast<double>(pass_degraded_));
  perf_.Set("scrub.objects_tracked", static_cast<double>(pass_seen_.size()));
}

}  // namespace mal::scrub
