#include "src/sim/network.h"

#include <algorithm>

#include "src/common/log.h"

namespace mal::sim {
namespace {

void LogDrop(const Envelope& envelope, const char* reason) {
  MAL_DEBUG("net") << "drop [" << reason << "] " << envelope.from.ToString() << " -> "
                   << envelope.to.ToString() << " "
                   << trace::MessageTypeName(envelope.type)
                   << (envelope.is_reply ? " (reply)" : "") << " " << envelope.WireSize()
                   << "B";
}

}  // namespace

std::string EntityName::ToString() const {
  const char* prefix = "?";
  switch (type) {
    case EntityType::kMon:
      prefix = "mon";
      break;
    case EntityType::kOsd:
      prefix = "osd";
      break;
    case EntityType::kMds:
      prefix = "mds";
      break;
    case EntityType::kClient:
      prefix = "client";
      break;
    case EntityType::kScrub:
      prefix = "scrub";
      break;
  }
  return std::string(prefix) + "." + std::to_string(id);
}

Network::Network(Simulator* simulator, NetworkConfig config)
    : simulator_(simulator),
      config_(config),
      rng_(config.seed),
      fault_rng_(config.fault_seed) {}

void Network::Attach(EntityName name, MessageSink* sink) { sinks_[name] = sink; }

void Network::Detach(EntityName name) { sinks_.erase(name); }

Time Network::ComputeLatency(const Envelope& envelope) {
  Time base =
      envelope.from == envelope.to ? config_.local_latency : config_.base_latency;
  double jittered = rng_.LogNormal(static_cast<double>(base), config_.jitter_sigma);
  double bytes_cost = config_.per_byte_ns * static_cast<double>(envelope.WireSize());
  return static_cast<Time>(std::max(1.0, jittered + bytes_cost));
}

void Network::Send(Envelope envelope) {
  ++messages_sent_;
  bytes_sent_ += envelope.WireSize();
  if (crashed_.count(envelope.from) != 0 || crashed_.count(envelope.to) != 0) {
    ++dropped_crashed_;
    LogDrop(envelope, "crashed");
    return;
  }
  auto key = std::minmax(envelope.from, envelope.to);
  if (partitions_.count({key.first, key.second}) != 0) {
    ++dropped_partitioned_;
    LogDrop(envelope, "partitioned");
    return;
  }
  Time latency = ComputeLatency(envelope);

  // Chaos knobs. Every draw here comes from fault_rng_ (never rng_), so the
  // latency-jitter stream of surviving messages is untouched and a run with
  // all knobs off performs no draws at all.
  if (const FaultSpec* faults = FaultsFor(envelope)) {
    if (faults->loss_prob > 0.0 && fault_rng_.Bernoulli(faults->loss_prob)) {
      ++chaos_lost_;
      LogDrop(envelope, "chaos_loss");
      return;
    }
    if (faults->reorder_prob > 0.0 && fault_rng_.Bernoulli(faults->reorder_prob)) {
      // Extra delay lets messages sent after this one overtake it.
      Time extra = 1 + fault_rng_.NextBelow(
                           std::max<Time>(1, faults->reorder_delay));
      latency += extra;
      ++chaos_reordered_;
      MAL_DEBUG("net") << "chaos reorder +" << extra << "ns "
                       << envelope.from.ToString() << " -> "
                       << envelope.to.ToString() << " "
                       << trace::MessageTypeName(envelope.type);
    }
    if (faults->dup_prob > 0.0 && fault_rng_.Bernoulli(faults->dup_prob)) {
      // The duplicate gets its own latency (same model, fault stream) so it
      // may arrive before or after the original.
      double jittered = fault_rng_.LogNormal(
          static_cast<double>(config_.base_latency), config_.jitter_sigma);
      double bytes_cost =
          config_.per_byte_ns * static_cast<double>(envelope.WireSize());
      Time dup_latency = static_cast<Time>(std::max(1.0, jittered + bytes_cost));
      ++chaos_duplicated_;
      MAL_DEBUG("net") << "chaos dup " << envelope.from.ToString() << " -> "
                       << envelope.to.ToString() << " "
                       << trace::MessageTypeName(envelope.type);
      ScheduleDelivery(envelope, dup_latency);
    }
  }

  ScheduleDelivery(std::move(envelope), latency);
}

const FaultSpec* Network::FaultsFor(const Envelope& envelope) const {
  if (envelope.from == envelope.to) return nullptr;  // loopback is reliable
  if (!link_faults_.empty()) {
    auto key = std::minmax(envelope.from, envelope.to);
    auto it = link_faults_.find({key.first, key.second});
    if (it != link_faults_.end()) return it->second.enabled() ? &it->second : nullptr;
  }
  return default_faults_.enabled() ? &default_faults_ : nullptr;
}

void Network::ScheduleDelivery(Envelope envelope, Time latency) {
  uint32_t slot;
  if (!inflight_free_.empty()) {
    slot = inflight_free_.back();
    inflight_free_.pop_back();
    inflight_[slot] = std::move(envelope);
  } else {
    slot = static_cast<uint32_t>(inflight_.size());
    inflight_.push_back(std::move(envelope));
  }
  simulator_->Schedule(latency, [this, slot] { DeliverPooled(slot); });
}

void Network::DeliverPooled(uint32_t slot) {
  Envelope envelope = std::move(inflight_[slot]);
  inflight_free_.push_back(slot);
  // Re-check failure state at delivery time: a crash that happened while
  // the message was in flight still loses it.
  if (crashed_.count(envelope.to) != 0) {
    ++dropped_crashed_inflight_;
    LogDrop(envelope, "crashed_inflight");
    return;
  }
  auto it = sinks_.find(envelope.to);
  if (it == sinks_.end()) {
    ++dropped_unattached_;
    LogDrop(envelope, "unattached");
    return;
  }
  ++messages_delivered_;
  it->second->Deliver(std::move(envelope));
}

void Network::SetCrashed(EntityName name, bool crashed) {
  if (crashed) {
    crashed_.insert(name);
  } else {
    crashed_.erase(name);
  }
}

void Network::SetPartitioned(EntityName a, EntityName b, bool partitioned) {
  auto key = std::minmax(a, b);
  if (partitioned) {
    partitions_.insert({key.first, key.second});
  } else {
    partitions_.erase({key.first, key.second});
  }
}

void Network::SetLinkFaults(EntityName a, EntityName b, FaultSpec spec) {
  auto key = std::minmax(a, b);
  link_faults_[{key.first, key.second}] = spec;
}

void Network::ClearLinkFaults(EntityName a, EntityName b) {
  auto key = std::minmax(a, b);
  link_faults_.erase({key.first, key.second});
}

void Network::ClearFaults() {
  default_faults_ = FaultSpec{};
  link_faults_.clear();
}

}  // namespace mal::sim
