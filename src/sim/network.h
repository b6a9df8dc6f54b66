// Entity naming, message envelopes, and the latency-modeled network.
//
// Every daemon and client is addressed by an EntityName (type + id), like
// Ceph's entity_name_t. Messages are serialized payloads (front bytes plus
// data segments held by reference, mal::Payload) in an Envelope;
// the network charges base latency + per-byte cost + log-normal jitter and
// supports crash and partition injection for failure testing.
#ifndef MALACOLOGY_SIM_NETWORK_H_
#define MALACOLOGY_SIM_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/rng.h"
#include "src/common/trace.h"
#include "src/sim/simulator.h"

namespace mal::sim {

enum class EntityType : uint8_t { kMon = 0, kOsd = 1, kMds = 2, kClient = 3, kScrub = 4 };

struct EntityName {
  EntityType type = EntityType::kClient;
  uint32_t id = 0;

  static EntityName Mon(uint32_t id) { return {EntityType::kMon, id}; }
  static EntityName Osd(uint32_t id) { return {EntityType::kOsd, id}; }
  static EntityName Mds(uint32_t id) { return {EntityType::kMds, id}; }
  static EntityName Client(uint32_t id) { return {EntityType::kClient, id}; }
  static EntityName Scrub(uint32_t id) { return {EntityType::kScrub, id}; }

  bool operator<(const EntityName& o) const {
    return std::tie(type, id) < std::tie(o.type, o.id);
  }
  bool operator==(const EntityName& o) const { return type == o.type && id == o.id; }
  bool operator!=(const EntityName& o) const { return !(*this == o); }

  std::string ToString() const;

  template <class Ar>
  void Fields(Ar& ar) { ar(type, id); }
};

// A message on the wire. `type` is module-defined (see src/*/messages.h);
// rpc_id/is_reply implement request-response on top of one-way delivery.
struct Envelope {
  EntityName from;
  EntityName to;
  uint32_t type = 0;
  uint64_t rpc_id = 0;
  bool is_reply = false;
  uint32_t error_code = 0;  // mal::Code for replies
  mal::Payload payload;
  // Trace context propagated with the message (Dapper's in-band baggage).
  // Deliberately excluded from WireSize: tracing must not perturb the
  // latency model or the jitter RNG stream of an untraced run.
  trace::TraceContext trace;
  // Absolute sim-ns deadline for the request (0 = none). Like `trace`,
  // excluded from WireSize so deadline propagation is latency- and
  // RNG-neutral for runs that never set a deadline.
  uint64_t deadline_ns = 0;

  // Front plus segments plus a 32-byte header: the flat encoding's size, so
  // sending bulk data by reference costs the same simulated time.
  size_t WireSize() const { return payload.size() + 32; }
};

// Receives envelopes from the network. Implemented by Actor.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void Deliver(Envelope envelope) = 0;
};

struct NetworkConfig {
  Time base_latency = 100 * kMicrosecond;  // LAN round-trip/2 w/ kernel stack
  double per_byte_ns = 1.0;                // ~1 GB/s
  double jitter_sigma = 0.1;               // log-normal sigma on base latency
  Time local_latency = 5 * kMicrosecond;   // loopback (same node id & type)
  uint64_t seed = 0x6d616c61;              // "mala"
  // Seed for the fault-injection RNG. Deliberately a SEPARATE stream from
  // the latency jitter RNG: with all fault probabilities at zero no fault
  // draws happen at all, so a chaos-free run is byte-identical whether or
  // not the knobs exist; and enabling faults never perturbs the latency
  // stream of messages that pass through unharmed.
  uint64_t fault_seed = 0x63686173;  // "chas"
};

// Probabilistic per-link fault knobs (all default off). Applied to
// non-loopback sends only; each injected fault is counted per reason
// (net.chaos_* rows) and logged at debug level.
struct FaultSpec {
  double loss_prob = 0.0;     // silently drop the message
  double dup_prob = 0.0;      // deliver an extra copy (independent latency)
  double reorder_prob = 0.0;  // add extra delay so later sends overtake it
  // Extra-delay ceiling for a reordered message (uniform in (0, ceiling]).
  Time reorder_delay = 2 * kMillisecond;

  bool enabled() const {
    return loss_prob > 0.0 || dup_prob > 0.0 || reorder_prob > 0.0;
  }
};

class Network {
 public:
  Network(Simulator* simulator, NetworkConfig config = {});

  // Registration: an entity must be attached before it can receive.
  void Attach(EntityName name, MessageSink* sink);
  void Detach(EntityName name);

  // Sends an envelope; delivery is scheduled on the simulator. Messages to
  // crashed/partitioned/unattached entities are dropped (like UDP; RPC
  // timeouts provide the failure signal, as in a real cluster) — each drop
  // is counted per reason and logged at debug level so partitions are
  // debuggable.
  void Send(Envelope envelope);

  // Failure injection.
  void SetCrashed(EntityName name, bool crashed);
  void SetPartitioned(EntityName a, EntityName b, bool partitioned);

  // Chaos knobs: probabilistic loss/duplication/reordering, drawn from the
  // dedicated fault RNG (NetworkConfig::fault_seed). The default spec
  // applies to every non-loopback link; a per-link spec (unordered pair)
  // overrides it. ClearFaults() heals everything.
  void SetDefaultFaults(FaultSpec spec) { default_faults_ = spec; }
  void SetLinkFaults(EntityName a, EntityName b, FaultSpec spec);
  void ClearLinkFaults(EntityName a, EntityName b);
  void ClearFaults();

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

  // Drop counters by reason ("net.dropped_*" in dumps): endpoint crashed at
  // send time, link partitioned, destination crashed while the message was
  // in flight, destination never attached / already detached.
  uint64_t dropped_crashed() const { return dropped_crashed_; }
  uint64_t dropped_partitioned() const { return dropped_partitioned_; }
  uint64_t dropped_crashed_inflight() const { return dropped_crashed_inflight_; }
  uint64_t dropped_unattached() const { return dropped_unattached_; }
  // Chaos counters ("net.chaos_*" in dumps): injected losses, extra copies
  // delivered, messages delayed past their natural delivery time.
  uint64_t chaos_lost() const { return chaos_lost_; }
  uint64_t chaos_duplicated() const { return chaos_duplicated_; }
  uint64_t chaos_reordered() const { return chaos_reordered_; }
  uint64_t dropped_total() const {
    return dropped_crashed_ + dropped_partitioned_ + dropped_crashed_inflight_ +
           dropped_unattached_ + chaos_lost_;
  }

  Simulator* simulator() { return simulator_; }

 private:
  Time ComputeLatency(const Envelope& envelope);
  // The fault spec governing from->to, or nullptr when no fault applies
  // (loopback, or all knobs off). Returning nullptr on the default path
  // guarantees zero fault-RNG draws when chaos is disabled.
  const FaultSpec* FaultsFor(const Envelope& envelope) const;
  // Parks the envelope in the in-flight pool and schedules a delivery event
  // whose capture is just (this, slot) — small enough for the simulator's
  // inline callback storage, so a message send allocates nothing.
  void ScheduleDelivery(Envelope envelope, Time latency);
  void DeliverPooled(uint32_t slot);

  Simulator* simulator_;
  NetworkConfig config_;
  mal::Rng rng_;
  mal::Rng fault_rng_;
  std::map<EntityName, MessageSink*> sinks_;
  std::set<EntityName> crashed_;
  std::set<std::pair<EntityName, EntityName>> partitions_;
  FaultSpec default_faults_;
  std::map<std::pair<EntityName, EntityName>, FaultSpec> link_faults_;
  uint64_t messages_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t dropped_crashed_ = 0;
  uint64_t dropped_partitioned_ = 0;
  uint64_t dropped_crashed_inflight_ = 0;
  uint64_t dropped_unattached_ = 0;
  uint64_t chaos_lost_ = 0;
  uint64_t chaos_duplicated_ = 0;
  uint64_t chaos_reordered_ = 0;
  // In-flight envelope pool: slots recycle through a free list, so steady-
  // state traffic reuses the same headers instead of allocating per message.
  std::deque<Envelope> inflight_;
  std::vector<uint32_t> inflight_free_;
};

}  // namespace mal::sim

#endif  // MALACOLOGY_SIM_NETWORK_H_
