#include "src/cluster/cluster.h"

#include <algorithm>

namespace mal::cluster {

namespace {

std::vector<uint32_t> Iota(uint32_t n) {
  std::vector<uint32_t> ids;
  ids.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ids.push_back(i);
  }
  return ids;
}

}  // namespace

Client::Client(sim::Simulator* simulator, sim::Network* network, uint32_t id,
               std::vector<uint32_t> mons, mds::MdsClientConfig mds_config)
    : Actor(simulator, network, sim::EntityName::Client(id)),
      rados(this, mons),
      mds(this, mds_config) {
  rados.set_perf(&perf);
}

std::unique_ptr<zlog::Log> Client::OpenLog(zlog::LogOptions options) {
  auto log = std::make_unique<zlog::Log>(this, &rados, &mds, std::move(options));
  log->set_perf(&perf);
  return log;
}

void Client::StartPerfReports(sim::Time interval) {
  if (interval == 0) {
    return;
  }
  rados.mon_client().StartPerfReports(perf, interval);
}

void Client::HandleRequest(const sim::Envelope& request) {
  if (rados.OnMapUpdate(request)) {
    return;
  }
  if (rados.OnNotify(request)) {
    return;
  }
  if (mds.OnMessage(request)) {
    return;
  }
}

Cluster::Cluster(ClusterOptions options)
    : options_(options), network_(&simulator_, options.network) {}

void Cluster::Boot() {
  std::vector<uint32_t> mon_ids = Iota(options_.num_mons);
  for (uint32_t i = 0; i < options_.num_mons; ++i) {
    mons_.push_back(
        std::make_unique<mon::Monitor>(&simulator_, &network_, i, mon_ids, options_.mon));
  }
  for (auto& monitor : mons_) {
    monitor->Boot();
  }
  for (uint32_t i = 0; i < options_.num_osds; ++i) {
    osd::OsdConfig config = options_.osd;
    config.seed += i;  // decorrelate gossip peer choices
    config.subscribe_to_mon =
        options_.osd_subscribe_fraction >= 1.0 ||
        i < static_cast<uint32_t>(options_.osd_subscribe_fraction *
                                  static_cast<double>(options_.num_osds));
    osds_.push_back(std::make_unique<osd::Osd>(&simulator_, &network_, i, mon_ids, config));
    osds_.back()->Boot();
  }
  for (uint32_t i = 0; i < options_.num_mds; ++i) {
    mds::MdsConfig config = options_.mds;
    config.seed = options_.network.seed * 131 + i;
    mds_.push_back(
        std::make_unique<mds::MdsDaemon>(&simulator_, &network_, i, mon_ids, config));
    mds_.back()->Boot();
  }
  RunFor(options_.boot_settle);
}

Client* Cluster::NewClient(mds::MdsClientConfig mds_config) {
  // Validate the wiring before constructing the actor: a client homed at a
  // rank that does not exist would time out on every session RPC, which is
  // much harder to diagnose than an assert at the call site.
  assert(options_.num_mons >= 1 && "cluster has no monitors to connect to");
  assert(mds_config.home_mds < options_.num_mds && "client home_mds rank out of range");
  clients_.push_back(std::make_unique<Client>(&simulator_, &network_, next_client_id_++,
                                              Iota(options_.num_mons), mds_config));
  Client* client = clients_.back().get();
  bool connected = false;
  client->rados.Connect([&connected](mal::Status) { connected = true; });
  RunUntil([&connected] { return connected; });
  return client;
}

scrub::Agent* Cluster::NewScrubAgent(scrub::ScrubConfig config) {
  assert(options_.num_mons >= 1 && "cluster has no monitors to connect to");
  scrub_agents_.push_back(
      std::make_unique<scrub::Agent>(&simulator_, &network_,
                                     static_cast<uint32_t>(scrub_agents_.size()),
                                     Iota(options_.num_mons), config));
  scrub::Agent* agent = scrub_agents_.back().get();
  agent->Boot();
  // Let the connect round-trip settle so the agent's first tick sees a map.
  RunFor(100 * sim::kMillisecond);
  return agent;
}

void Cluster::RunFor(sim::Time duration) {
  simulator_.RunUntil(simulator_.Now() + duration);
}

bool Cluster::RunUntil(const std::function<bool()>& done, sim::Time timeout) {
  sim::Time deadline = simulator_.Now() + timeout;
  while (simulator_.Now() < deadline) {
    if (done()) {
      return true;
    }
    // Event-granular: run one event so the predicate is observed at the
    // exact virtual time it becomes true (latency measurements depend on
    // this). With an empty queue, idle-advance in 1 ms quanta.
    if (!simulator_.Step()) {
      simulator_.RunUntil(std::min(simulator_.Now() + sim::kMillisecond, deadline));
    }
  }
  return done();
}

}  // namespace mal::cluster
