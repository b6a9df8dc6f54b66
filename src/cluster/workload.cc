#include "src/cluster/workload.h"

#include <algorithm>
#include <cmath>

#include "src/common/log.h"

namespace mal::cluster {

SequencerClient::SequencerClient(Cluster* cluster, Client* client,
                                 SequencerClientOptions options)
    : cluster_(cluster), client_(client), options_(std::move(options)) {}

void SequencerClient::Start() {
  running_ = true;
  Loop();
}

void SequencerClient::Record(sim::Time issued_at, uint64_t position) {
  sim::Time now = cluster_->simulator().Now();
  latency_.Add(static_cast<double>(now - issued_at + options_.local_cost) / 1e3);  // usec
  throughput_.Record(now);
  if (events_.size() < 2'000'000) {
    events_.emplace_back(now, position);
  } else {
    // Cap memory on very long runs — but count what we drop, so a truncated
    // scatter plot is distinguishable from a complete one (the aggregate
    // latency/throughput stats above still see every op).
    if (events_dropped_ == 0) {
      MAL_WARN("workload") << "event sample cap (2M) reached; further (time, position) "
                              "samples are dropped and counted in events_dropped()";
    }
    ++events_dropped_;
  }
}

void SequencerClient::Loop() {
  if (!running_) {
    return;
  }
  sim::Time issued_at = cluster_->simulator().Now();
  if (options_.cached) {
    if (client_->mds.HasCap(options_.path)) {
      auto position = client_->mds.LocalNextBatch(options_.path, 1);
      if (position.ok()) {
        Record(issued_at, position.value());
        cluster_->simulator().Schedule(options_.local_cost, [this] { Loop(); });
        return;
      }
    }
    client_->mds.AcquireCap(options_.path, [this, issued_at](mal::Status status) {
      if (!running_) {
        return;
      }
      if (!status.ok()) {
        // Back off briefly on errors (e.g. recovery in progress) and retry.
        cluster_->simulator().Schedule(10 * sim::kMillisecond, [this] { Loop(); });
        return;
      }
      auto position = client_->mds.LocalNextBatch(options_.path, 1);
      if (position.ok()) {
        Record(issued_at, position.value());
      }
      cluster_->simulator().Schedule(options_.local_cost, [this] { Loop(); });
    });
    return;
  }
  // Round-trip mode: one RPC per position, immediate re-issue.
  client_->mds.SeqNextBatch(
      options_.path, 1, [this, issued_at](mal::Status status, uint64_t pos, bool) {
        if (!running_) {
          return;
        }
        if (status.ok()) {
          Record(issued_at, pos);
        } else {
          ++failed_grants_;
        }
        cluster_->simulator().Schedule(options_.local_cost, [this] { Loop(); });
      });
}

double ArrivalConfig::RateAt(sim::Time now) const {
  switch (shape) {
    case Shape::kSteady:
      return base_rate_hz;
    case Shape::kDiurnal: {
      double phase = 2.0 * M_PI * static_cast<double>(now % diurnal_period) /
                     static_cast<double>(diurnal_period);
      return base_rate_hz * (1.0 + diurnal_amplitude * std::sin(phase));
    }
    case Shape::kFlashCrowd:
      if (now >= flash_start && now < flash_start + flash_duration) {
        return base_rate_hz * flash_multiplier;
      }
      return base_rate_hz;
  }
  return base_rate_hz;
}

double ArrivalConfig::PeakRate() const {
  switch (shape) {
    case Shape::kSteady:
      return base_rate_hz;
    case Shape::kDiurnal:
      return base_rate_hz * (1.0 + diurnal_amplitude);
    case Shape::kFlashCrowd:
      return base_rate_hz * std::max(1.0, flash_multiplier);
  }
  return base_rate_hz;
}

sim::Time ArrivalProcess::NextAfter(sim::Time now) {
  // Thinning: exponential candidate gaps at the peak rate; accept each
  // candidate with probability lambda(t)/peak. Peak >= lambda everywhere,
  // so acceptance is a true probability and the process is exact.
  const double peak = config_.PeakRate();
  sim::Time t = now;
  while (true) {
    double gap_s = rng_.Exponential(1.0 / peak);
    sim::Time gap = std::max<sim::Time>(
        1, static_cast<sim::Time>(gap_s * static_cast<double>(sim::kSecond)));
    t += gap;
    if (rng_.UniformDouble() * peak <= config_.RateAt(t)) {
      return t;
    }
  }
}

ScaleWorkload::ScaleWorkload(Cluster* cluster, ScaleWorkloadOptions options)
    : cluster_(cluster),
      options_(options),
      arrivals_(options.arrivals, options.seed),
      op_rng_(options.seed ^ 0x9e3779b97f4a7c15ULL),
      zipf_(options.num_objects, options.zipf_theta),
      seq_zipf_(std::max<uint64_t>(1, options.seq_paths.size()), options.zipf_theta),
      payload_(mal::Buffer::FromString(std::string(options.append_size, 's'))),
      session_ops_(options.num_sessions, 0) {
  for (uint32_t i = 0; i < options_.num_client_actors; ++i) {
    clients_.push_back(cluster_->NewClient());
  }
}

void ScaleWorkload::Start() {
  running_ = true;
  Arrive();
}

void ScaleWorkload::Arrive() {
  if (!running_) {
    return;
  }
  sim::Time now = cluster_->simulator().Now();
  sim::Time next = arrivals_.NextAfter(now);
  cluster_->simulator().Schedule(next - now, [this] {
    if (!running_) {
      return;
    }
    uint64_t session = next_session_;
    next_session_ = (next_session_ + 1) % options_.num_sessions;
    IssueOp(session);
    Arrive();  // open loop: the next arrival does not wait for this op
  });
}

void ScaleWorkload::IssueOp(uint64_t session) {
  if (session_ops_[session]++ == 0) {
    ++sessions_started_;
  }
  ++issued_;
  Client* client = clients_[session % clients_.size()];
  sim::Time issued_at = cluster_->simulator().Now();
  auto finish = [this, issued_at](mal::Status status) {
    if (status.ok()) {
      ++completed_;
      sim::Time now = cluster_->simulator().Now();
      latency_.Add(static_cast<double>(now - issued_at) / 1e3);  // usec
      throughput_.Record(now);
    } else {
      ++failed_;
    }
  };
  if (options_.seq_fraction > 0.0 && op_rng_.Bernoulli(options_.seq_fraction)) {
    const std::string* path = &options_.seq_path;
    if (!options_.seq_paths.empty()) {
      // Multi-log mode: Zipf over the log list, hottest first.
      uint64_t log = seq_zipf_.Next(&op_rng_);
      path = &options_.seq_paths[log];
    }
    client->mds.SeqNextBatch(*path, 1,
                             [finish](mal::Status status, uint64_t, bool) { finish(status); });
    return;
  }
  uint64_t key = zipf_.Next(&op_rng_);
  client->rados.Append("scale." + std::to_string(key), payload_, finish);
}

mal::Status CreateSequencer(Cluster* cluster, Client* client, const std::string& path,
                            const mds::LeasePolicy& policy) {
  mal::Status result = mal::Status::TimedOut("create sequencer");
  bool done = false;
  client->mds.Create(path, mds::InodeType::kSequencer, policy, [&](mal::Status s) {
    result = s;
    done = true;
  });
  cluster->RunUntil([&] { return done; });
  return result;
}

}  // namespace mal::cluster
