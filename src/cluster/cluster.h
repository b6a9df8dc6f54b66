// Cluster: one-call assembly of a full Malacology deployment inside a
// simulation — monitors (Paxos quorum), OSDs (replicated object store with
// object classes), metadata servers, and application clients. This is the
// entry point examples, benches, and integration tests build on.
#ifndef MALACOLOGY_CLUSTER_CLUSTER_H_
#define MALACOLOGY_CLUSTER_CLUSTER_H_

#include <cassert>
#include <functional>
#include <memory>
#include <vector>

#include "src/mds/mds.h"
#include "src/mds/mds_client.h"
#include "src/mon/monitor.h"
#include "src/osd/osd.h"
#include "src/rados/client.h"
#include "src/scrub/agent.h"
#include "src/zlog/log.h"

namespace mal::cluster {

struct ClusterOptions {
  uint32_t num_mons = 1;
  uint32_t num_osds = 3;
  uint32_t num_mds = 1;
  mon::MonitorConfig mon;
  osd::OsdConfig osd;
  // Fraction of OSDs that subscribe to monitor map pushes; the rest learn
  // purely via gossip (Fig 8 experiments).
  double osd_subscribe_fraction = 1.0;
  mds::MdsConfig mds;
  sim::NetworkConfig network;
  // How long Boot() settles (elections, registrations, subscriptions).
  sim::Time boot_settle = 3 * sim::kSecond;
};

// An application client actor bundling the three client libraries. Incoming
// pushes (map updates, cap revokes) are routed automatically.
class Client : public sim::Actor {
 public:
  Client(sim::Simulator* simulator, sim::Network* network, uint32_t id,
         std::vector<uint32_t> mons, mds::MdsClientConfig mds_config = {});

  rados::RadosClient rados;
  mds::MdsClient mds;
  // Client-side counters (rados.*, zlog.*). Wired into `rados` and every
  // log returned by OpenLog().
  mal::PerfRegistry perf;

  // Creates a ZLog handle bound to this client's libraries.
  std::unique_ptr<zlog::Log> OpenLog(zlog::LogOptions options = {});

  // Starts pushing this client's counter snapshot to the monitor every
  // `interval`. Off by default so closed-loop experiments keep their exact
  // message schedules; benches/tests opt in.
  void StartPerfReports(sim::Time interval);

 protected:
  void HandleRequest(const sim::Envelope& request) override;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});

  // Boots every daemon and settles. Clients are created separately.
  void Boot();

  Client* NewClient(mds::MdsClientConfig mds_config = {});

  // Boots a background scrub/repair agent (entity "scrub.<n>") that walks
  // every EC pool in the map. Settles until its RADOS handle is connected.
  scrub::Agent* NewScrubAgent(scrub::ScrubConfig config = {});

  sim::Simulator& simulator() { return simulator_; }
  sim::Network& network() { return network_; }
  // Bounds-checked: a bad rank is a harness bug worth an immediate assert,
  // not a silent out-of-bounds deref.
  mon::Monitor& monitor(size_t i = 0) {
    assert(i < mons_.size() && "monitor rank out of range");
    return *mons_[i];
  }
  osd::Osd& osd(size_t i) {
    assert(i < osds_.size() && "osd rank out of range");
    return *osds_[i];
  }
  mds::MdsDaemon& mds(size_t i = 0) {
    assert(i < mds_.size() && "mds rank out of range");
    return *mds_[i];
  }
  Client& client(size_t i) {
    assert(i < clients_.size() && "client index out of range");
    return *clients_[i];
  }
  size_t num_mons() const { return mons_.size(); }
  size_t num_osds() const { return osds_.size(); }
  size_t num_mds() const { return mds_.size(); }
  size_t num_clients() const { return clients_.size(); }
  const ClusterOptions& options() const { return options_; }

  // Advances virtual time.
  void RunFor(sim::Time duration);
  // Runs until `done` returns true or `timeout` elapses; returns whether
  // the predicate was satisfied. The workhorse of the sync-style helpers.
  bool RunUntil(const std::function<bool()>& done, sim::Time timeout = 30 * sim::kSecond);

 private:
  ClusterOptions options_;
  sim::Simulator simulator_;
  sim::Network network_;
  std::vector<std::unique_ptr<mon::Monitor>> mons_;
  std::vector<std::unique_ptr<osd::Osd>> osds_;
  std::vector<std::unique_ptr<mds::MdsDaemon>> mds_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<scrub::Agent>> scrub_agents_;
  uint32_t next_client_id_ = 0;
};

}  // namespace mal::cluster

#endif  // MALACOLOGY_CLUSTER_CLUSTER_H_
