#include "src/mantle/mantle.h"

#include <utility>

#include "src/common/log.h"

namespace mal::mantle {

using script::Table;
using script::TableKey;
using script::Value;

MantleBalancer::MantleBalancer(std::string version,
                               std::shared_ptr<const script::CompiledChunk> chunk)
    : version_(std::move(version)), chunk_(std::move(chunk)) {
  interp_.set_instruction_budget(1'000'000);
  interp_.SetGlobal("state", Value(Table::Make()));
}

mal::Result<std::shared_ptr<MantleBalancer>> MantleBalancer::Load(
    const std::string& version, const std::string& source) {
  auto chunk = script::Compile(source);
  if (!chunk.ok()) {
    return chunk.status();
  }
  return std::shared_ptr<MantleBalancer>(
      new MantleBalancer(version, std::move(chunk).value()));
}

std::vector<std::string> MantleBalancer::DrainPolicyOutput() {
  std::vector<std::string> out = std::move(interp_.print_output());
  interp_.print_output().clear();
  return out;
}

mds::PolicyScriptStats MantleBalancer::ConsumeScriptStats() {
  const script::EngineStats& st = interp_.stats();
  mds::PolicyScriptStats out;
  out.instructions = st.instructions - exported_.instructions;
  out.vm_runs = st.vm_runs - exported_.vm_runs;
  out.ic_hits = st.ic_hits - exported_.ic_hits;
  out.ic_misses = st.ic_misses - exported_.ic_misses;
  out.print_dropped = st.print_dropped - exported_.print_dropped;
  exported_ = st;
  return out;
}

mal::Result<mds::MigrationTargets> MantleBalancer::Decide(const mds::BalancerContext& ctx) {
  // Publish the load table as the `mds` global.
  auto mds_table = Table::Make();
  for (const auto& [rank, metrics] : ctx.mds) {
    auto row = Table::Make();
    row->Set(TableKey("load"), Value(metrics.load));
    row->Set(TableKey("cpu"), Value(metrics.cpu));
    row->Set(TableKey("req_rate"), Value(metrics.req_rate));
    auto subtrees = Table::Make();
    for (const auto& [path, rate] : metrics.subtree_rate) {
      subtrees->Set(TableKey(path), Value(rate));
    }
    row->Set(TableKey("subtrees"), Value(subtrees));
    // Per-inode sequencer load (sharded sequencers): mds[i]["seq"][path] is
    // the grant rate of each hosted log, so a hot-log policy can pick the
    // heaviest log instead of guessing from subtree names; "num_seqs" is
    // the owned-log count. Empty/0 when ownership sharding is off.
    auto seqs = Table::Make();
    for (const std::string& path : metrics.seq_paths) {
      auto rate_it = metrics.subtree_rate.find(path);
      seqs->Set(TableKey(path),
                Value(rate_it == metrics.subtree_rate.end() ? 0.0 : rate_it->second));
    }
    row->Set(TableKey("seq"), Value(seqs));
    row->Set(TableKey("num_seqs"), Value(static_cast<double>(metrics.seq_paths.size())));
    mds_table->Set(TableKey(static_cast<double>(rank)), Value(row));
  }
  interp_.SetGlobal("mds", Value(mds_table));
  interp_.SetGlobal("whoami", Value(static_cast<double>(ctx.whoami)));
  interp_.SetGlobal("time", Value(static_cast<double>(ctx.now_ns) / 1e9));
  auto targets = Table::Make();
  interp_.SetGlobal("targets", Value(targets));

  // Run the chunk: statement-style policies fill `targets` right here;
  // callback-style policies (re)define when()/where().
  mal::Status run = interp_.Run(chunk_);
  if (!run.ok()) {
    return run;
  }
  Value when = interp_.GetGlobal("when");
  if (when.is_callable()) {
    auto should = interp_.Call(when, {});
    if (!should.ok()) {
      return should.status();
    }
    if (!should.value().Truthy()) {
      return mds::MigrationTargets{};  // policy chose not to migrate
    }
    Value where = interp_.GetGlobal("where");
    if (where.is_callable()) {
      auto filled = interp_.Call(where, {});
      if (!filled.ok()) {
        return filled.status();
      }
    }
  }
  mds::MigrationTargets out;
  for (const auto& [key, value] : targets->entries()) {
    if (!std::holds_alternative<double>(key.k) || !value.is_number()) {
      continue;
    }
    double rank = std::get<double>(key.k);
    double amount = value.as_number();
    if (rank >= 0 && amount > 0) {
      out[static_cast<uint32_t>(rank)] = amount;
    }
  }
  return out;
}

// -- MantleManager -----------------------------------------------------------------

MantleManager::MantleManager(mds::MdsDaemon* daemon) : daemon_(daemon) {}

void MantleManager::Start(sim::Time check_interval) {
  daemon_->StartPeriodic(check_interval, [this] { CheckVersion(); });
}

void MantleManager::CheckVersion() {
  const auto& metadata = daemon_->mds_map().service_metadata;
  auto it = metadata.find(kBalancerVersionKey);
  if (it == metadata.end() || it->second == loaded_version_ || fetch_in_flight_) {
    return;
  }
  FetchAndLoad(it->second);
}

void MantleManager::FetchAndLoad(const std::string& version) {
  fetch_in_flight_ = true;
  // "The balancer pulls the code from RADOS synchronously; we achieve this
  // with a timeout: half the balancing tick interval" (§5.1.2).
  sim::Time timeout = daemon_->config().balance_interval / 2;
  auto done = std::make_shared<bool>(false);
  // Guarded: the fetch-timeout timer must not mutate a restarted daemon.
  daemon_->ScheduleGuarded(timeout, [this, done, version] {
    if (!*done) {
      *done = true;
      fetch_in_flight_ = false;
      daemon_->mon_client().Log(
          "ERROR", "mantle: Connection Timeout fetching balancer '" + version + "'");
    }
  });
  daemon_->rados_client().Read(
      version, [this, done, version](mal::Status status, const mal::Buffer& body) {
        if (*done) {
          return;  // timed out already; drop the late answer
        }
        *done = true;
        fetch_in_flight_ = false;
        if (!status.ok()) {
          daemon_->mon_client().Log("ERROR", "mantle: failed to read balancer '" + version +
                                                 "': " + status.ToString());
          return;
        }
        auto balancer = MantleBalancer::Load(version, body.ToString());
        if (!balancer.ok()) {
          daemon_->mon_client().Log("ERROR", "mantle: balancer '" + version +
                                                 "' rejected: " +
                                                 balancer.status().ToString());
          return;
        }
        loaded_version_ = version;
        daemon_->SetBalancerPolicy(balancer.value());
        daemon_->mon_client().Log("INFO",
                                  "mantle: loaded balancer version '" + version + "'");
      });
}

void MantleManager::InstallPolicy(rados::RadosClient* rados, const std::string& version,
                                  const std::string& source,
                                  std::function<void(mal::Status)> on_done) {
  // Validate before publishing: a broken policy must never reach the map.
  auto compiled = MantleBalancer::Load(version, source);
  if (!compiled.ok()) {
    on_done(compiled.status());
    return;
  }
  rados->WriteFull(version, mal::Buffer::FromString(source),
                   [rados, version, on_done = std::move(on_done)](mal::Status status) {
                     if (!status.ok()) {
                       on_done(status);
                       return;
                     }
                     rados->mon_client().SetServiceMetadata(
                         mon::MapKind::kMdsMap, kBalancerVersionKey, version, on_done);
                   });
}

}  // namespace mal::mantle
