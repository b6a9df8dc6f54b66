// rados_mixed: an open loop of independent RADOS users. Poisson arrivals at
// a fixed rate (60% of the closed-loop capacity measured with
// `malbench --measure-capacity`) pick keys by Zipf(0.99) over 10k
// preloaded 4 KiB objects and ops by the mix 55% Read, 25% WriteFull,
// 10% OmapSet, 10% Exec of a MalScript class installed at set-up (an xattr
// read-modify-write plus an append). No MDS: ZLog and the sequencer are
// bypassed entirely, and this is the only workload that runs the script VM
// on the op path.
//
// Oracle: every WriteFull payload carries (object, version). A read must
// return an exact payload of a version already issued, followed only by
// whole Exec append records, and that version must not have been
// superseded before the read was issued: no WriteFull issued after the
// returned version's ack may have been acked before the read started
// (concurrent writes may apply in either order). Exec returns the object's
// exec counter, which must exceed every counter acked before the exec was
// issued and not exceed the number of execs issued.
//
// The generator is an event chain inside the simulator: each arrival runs
// exactly at its scheduled simulated time, so it can never run late, and
// latency measured from issue equals latency from the scheduled arrival.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "malbench/harness.h"
#include "src/common/rng.h"

namespace malbench {
namespace {

using mal::Buffer;
using mal::Status;
using mal::sim::kMillisecond;
using mal::sim::kSecond;

constexpr uint32_t kClients = 8;
constexpr uint32_t kObjects = 10'000;
constexpr size_t kObjectBytes = 4096;
constexpr double kZipfTheta = 0.99;
constexpr Time kPhase = 500 * kMillisecond;
constexpr uint32_t kPreloadWindow = 64;
constexpr char kAppendRecord[] = "+exec+:";  // 7 bytes per Exec append
constexpr size_t kAppendBytes = sizeof(kAppendRecord) - 1;

constexpr char kClassSource[] = R"(
function touch(input)
  local n = cls_xattr_get("n")
  if n == nil then n = 0 else n = tonumber(n) end
  n = n + 1
  cls_xattr_set("n", tostring(n))
  cls_append(input)
  return tostring(n)
end
)";

enum class OpKind { kRead, kWriteFull, kOmapSet, kExec };

std::string Oid(uint32_t object) { return "obj" + std::to_string(object); }

std::string Payload(uint32_t object, uint64_t version) {
  char head[48];
  int n = std::snprintf(head, sizeof(head), "o%u:v%llu;", object,
                        static_cast<unsigned long long>(version));
  std::string out(head, static_cast<size_t>(n));
  out.reserve(kObjectBytes);
  uint64_t x = SubSeed(object, version);
  while (out.size() < kObjectBytes) {
    out.push_back(static_cast<char>('a' + x % 26));
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return out;
}

// Version named by a payload header, or -1 when unparseable.
int64_t ParseVersion(const std::string& data, uint32_t object) {
  unsigned obj = 0;
  unsigned long long version = 0;
  if (std::sscanf(data.c_str(), "o%u:v%llu;", &obj, &version) != 2 || obj != object) {
    return -1;
  }
  return static_cast<int64_t>(version);
}

constexpr Time kNotAcked = ~Time{0};

struct ObjectState {
  uint64_t issued_version = 0;  // last WriteFull version issued
  // Per version: when its WriteFull was acked (kNotAcked while in flight).
  std::vector<Time> acked_at = {0};  // version 0 is the preload
  // Latest issue time among acked WriteFulls.
  Time newest_acked_issue = 0;
  uint64_t execs_issued = 0;
  uint64_t execs_acked = 0;  // highest exec counter acked
};

// Draws the op schedule: arrival gaps, kinds, keys.
class Generator {
 public:
  Generator(uint64_t seed, double rate_hz)
      : rng_(SubSeed(seed, 7)), zipf_(kObjects, kZipfTheta), mean_gap_ns_(1e9 / rate_hz) {}

  Time NextGap() {
    double gap = rng_.Exponential(mean_gap_ns_);
    return gap < 1.0 ? 1 : static_cast<Time>(gap);
  }
  OpKind NextKind() {
    double u = rng_.UniformDouble();
    return u < 0.55 ? OpKind::kRead
                    : u < 0.80 ? OpKind::kWriteFull
                               : u < 0.90 ? OpKind::kOmapSet : OpKind::kExec;
  }
  uint32_t NextObject() {
    // Scatter Zipf ranks over the key space so hot keys spread over OSDs.
    uint64_t rank = zipf_.Next(&rng_);
    return static_cast<uint32_t>((rank * 7919) % kObjects);
  }

 private:
  mal::Rng rng_;
  mal::ZipfGenerator zipf_;
  double mean_gap_ns_;
};

class RadosMixed : public Workload {
 public:
  RadosMixed(uint64_t seed, double rate_hz)
      : seed_(seed), gen_(seed, rate_hz), objects_(kObjects) {}

  bool Setup(std::string* error) override {
    mal::cluster::ClusterOptions options;
    options.num_mons = 1;
    options.num_osds = 4;
    options.osd.replicas = 2;
    options.num_mds = 0;
    options.mon.proposal_interval = 200 * kMillisecond;
    options.network.seed = SubSeed(seed_, 1);
    cluster_ = std::make_unique<mal::cluster::Cluster>(options);
    cluster_->Boot();
    baseline_bytes_ = StoredBytes(cluster_.get());
    for (uint32_t i = 0; i < kClients; ++i) {
      clients_.push_back(cluster_->NewClient());
    }

    bool installed = false;
    bool install_failed = false;
    clients_[0]->rados.InstallScriptInterface("bench", "v1", kClassSource, [&](Status s) {
      installed = true;
      install_failed = !s.ok();
    });
    if (!cluster_->RunUntil([&] { return installed; }) || install_failed) {
      *error = "rados_mixed: script install failed";
      return false;
    }

    // Preload every object at version 0, kPreloadWindow writes in flight.
    uint32_t next = 0;
    uint32_t inflight = 0;
    bool preload_failed = false;
    std::function<void()> pump = [&] {
      while (inflight < kPreloadWindow && next < kObjects) {
        uint32_t object = next++;
        ++inflight;
        clients_[object % kClients]->rados.WriteFull(
            Oid(object), Buffer::FromString(Payload(object, 0)), [&](Status s) {
              --inflight;
              preload_failed = preload_failed || !s.ok();
              pump();
            });
      }
    };
    pump();
    if (!cluster_->RunUntil([&] { return next == kObjects && inflight == 0; }, 300 * kSecond) ||
        preload_failed) {
      *error = "rados_mixed: preload failed";
      return false;
    }
    // Every OSD must have loaded the class before the first Exec.
    cluster_->RunFor(1 * kSecond);
    return true;
  }

  void Phase(RoundResult* r) override {
    result_ = r;
    start_ = cluster_->simulator().Now();
    end_ = start_ + kPhase;
    ScheduleArrival();
    cluster_->RunFor(kPhase);
    uint64_t backlog = issued_ - finished_;
    bool drained = cluster_->RunUntil([&] { return issued_ == finished_; }, 60 * kSecond);
    if (!drained) {
      r->error = "rados_mixed: in-flight ops did not drain";
    }
    r->phase_ns = kPhase;
    r->profiled_ns = cluster_->simulator().Now() - start_;
    r->extra["backlog"] = static_cast<double>(backlog);
    r->extra["generator_late_ns"] = 0;  // DES arrivals run exactly on schedule
    // Open-loop health: the in-flight count must not grow across the phase.
    double first = Mean(0, inflight_samples_.size() / 4);
    double last = Mean(inflight_samples_.size() * 3 / 4, inflight_samples_.size());
    r->extra["inflight_first_quarter"] = first;
    r->extra["inflight_last_quarter"] = last;
    if (last > 2.0 * first + 16.0) {
      r->error = "rados_mixed: backlog grew across the phase (offered rate above capacity)";
    }
    // User bytes: one 4 KiB payload per object plus the latest acked value
    // of every omap key (Exec appends count as overhead).
    uint64_t user_bytes = static_cast<uint64_t>(kObjects) * kObjectBytes;
    for (const auto& [key, bytes] : omap_bytes_) {
      user_bytes += bytes;
    }
    r->stored_bytes_per_user_byte =
        static_cast<double>(StoredBytes(cluster_.get()) - baseline_bytes_) /
        static_cast<double>(user_bytes);
  }

  ClusterHandles handles() override {
    ClusterHandles h;
    h.cluster = cluster_.get();
    h.clients = clients_;
    return h;
  }

  // Closed loop at `depth` ops in flight per client for `window`: the
  // completion rate is the capacity the open loop's rate is set against.
  double MeasureCapacity(uint32_t depth, Time window) {
    RoundResult r;
    result_ = &r;
    start_ = cluster_->simulator().Now();
    end_ = start_ + window;
    closed_loop_ = true;
    for (uint32_t i = 0; i < kClients * depth; ++i) {
      Issue(i % kClients);
    }
    cluster_->RunFor(window);
    closed_loop_ = false;
    cluster_->RunUntil([&] { return issued_ == finished_; }, 60 * kSecond);
    return static_cast<double>(r.ops.in_window) / (static_cast<double>(window) / 1e9);
  }

 private:
  double Mean(size_t from, size_t to) const {
    if (to <= from) {
      return 0;
    }
    double sum = 0;
    for (size_t i = from; i < to; ++i) {
      sum += inflight_samples_[i];
    }
    return sum / static_cast<double>(to - from);
  }

  void ScheduleArrival() {
    mal::trace::ScopedContext untraced(mal::trace::TraceContext{});
    cluster_->simulator().Schedule(gen_.NextGap(), [this] {
      if (cluster_->simulator().Now() >= end_) {
        return;
      }
      inflight_samples_.push_back(static_cast<double>(issued_ - finished_));
      Issue(static_cast<uint32_t>(arrivals_++ % kClients));
      ScheduleArrival();
    });
  }

  void Finish(Time issued, bool write) {
    ++finished_;
    OpStats& ops = result_->ops;
    Time now = cluster_->simulator().Now();
    ops.Complete(1, now, end_, now - issued, write);
    if (closed_loop_ && now < end_) {
      Issue(static_cast<uint32_t>(arrivals_++ % kClients));
    }
  }

  void Fail() {
    ++finished_;
    ++result_->ops.failed;
  }

  void Issue(uint32_t client_index) {
    mal::cluster::Client* client = clients_[client_index];
    OpKind kind = gen_.NextKind();
    uint32_t object = gen_.NextObject();
    ObjectState& st = objects_[object];
    ++issued_;
    ++result_->ops.attempted;
    Time issued = cluster_->simulator().Now();
    OpStats* ops = &result_->ops;
    switch (kind) {
      case OpKind::kRead: {
        Time floor = st.newest_acked_issue;
        mal::trace::TraceContext span = BeginOp("rados.read", client);
        mal::trace::ScopedContext scope(span);
        client->rados.Read(Oid(object), [=, this](Status s, const Buffer& data) {
          EndOp(span, client, s.ok());
          if (!s.ok()) {
            Fail();
            return;
          }
          ++ops->calls["rados.read"];
          CheckRead(object, floor, data.ToString());
          Finish(issued, false);
        });
        break;
      }
      case OpKind::kWriteFull: {
        uint64_t version = ++st.issued_version;
        st.acked_at.push_back(kNotAcked);
        mal::trace::TraceContext span = BeginOp("rados.write", client);
        mal::trace::ScopedContext scope(span);
        client->rados.WriteFull(
            Oid(object), Buffer::FromString(Payload(object, version)), [=, this](Status s) {
              EndOp(span, client, s.ok());
              if (!s.ok()) {
                Fail();
                return;
              }
              ++ops->calls["rados.write"];
              ObjectState& state = objects_[object];
              state.acked_at[version] = cluster_->simulator().Now();
              state.newest_acked_issue = std::max(state.newest_acked_issue, issued);
              Finish(issued, true);
            });
        break;
      }
      case OpKind::kOmapSet: {
        std::string key = "k" + std::to_string(issued_ % 16);
        std::string value = "v" + std::to_string(issued_);
        size_t bytes = key.size() + value.size();
        mal::trace::TraceContext span = BeginOp("rados.write", client);
        mal::trace::ScopedContext scope(span);
        client->rados.OmapSet(Oid(object), key, value, [=, this](Status s) {
          EndOp(span, client, s.ok());
          if (!s.ok()) {
            Fail();
            return;
          }
          ++ops->calls["rados.write"];
          omap_bytes_[{object, key}] = bytes;
          Finish(issued, true);
        });
        break;
      }
      case OpKind::kExec: {
        uint64_t floor = st.execs_acked;
        ++st.execs_issued;
        mal::trace::TraceContext span = BeginOp("cls.exec", client);
        mal::trace::ScopedContext scope(span);
        client->rados.Exec(
            Oid(object), "bench", "touch", Buffer::FromString(kAppendRecord),
            [=, this](Status s, const Buffer& out) {
              EndOp(span, client, s.ok());
              if (!s.ok()) {
                Fail();
                return;
              }
              ++ops->calls["cls.exec"];
              // Concurrent execs may apply in either order, so the
              // ceiling is every exec issued by now.
              ObjectState& state = objects_[object];
              uint64_t ceiling = state.execs_issued;
              uint64_t n = std::strtoull(out.ToString().c_str(), nullptr, 10);
              if (n <= floor || n > ceiling) {
                ops->Wrong(Oid(object) + " exec counter " + std::to_string(n) +
                           " outside (" + std::to_string(floor) + ", " +
                           std::to_string(ceiling) + "]");
              }
              state.execs_acked = std::max(state.execs_acked, n);
              Finish(issued, true);
            });
        break;
      }
    }
  }

  // `floor`: the newest issue time of a WriteFull acked before the read.
  void CheckRead(uint32_t object, Time floor, const std::string& data) {
    const ObjectState& st = objects_[object];
    int64_t version = ParseVersion(data, object);
    bool ok = version >= 0 && static_cast<uint64_t>(version) <= st.issued_version &&
              st.acked_at[static_cast<size_t>(version)] >= floor &&
              data.size() >= kObjectBytes &&
              data.compare(0, kObjectBytes, Payload(object, static_cast<uint64_t>(version))) == 0;
    for (size_t at = kObjectBytes; ok && at < data.size(); at += kAppendBytes) {
      ok = data.compare(at, kAppendBytes, kAppendRecord) == 0;
    }
    if (!ok) {
      result_->ops.Wrong(Oid(object) + " read version " + std::to_string(version) +
                         " (stale, unissued or corrupt; last issued " +
                         std::to_string(st.issued_version) + ")");
    }
  }

  uint64_t seed_;
  Generator gen_;
  std::unique_ptr<mal::cluster::Cluster> cluster_;
  std::vector<mal::cluster::Client*> clients_;
  std::vector<ObjectState> objects_;
  uint64_t baseline_bytes_ = 0;
  std::map<std::pair<uint32_t, std::string>, size_t> omap_bytes_;
  RoundResult* result_ = nullptr;
  Time start_ = 0;
  Time end_ = 0;
  uint64_t issued_ = 0;
  uint64_t finished_ = 0;
  uint64_t arrivals_ = 0;
  bool closed_loop_ = false;
  std::vector<double> inflight_samples_;
};

}  // namespace

std::unique_ptr<Workload> MakeRadosMixed(uint64_t seed, double rate_hz) {
  return std::make_unique<RadosMixed>(seed, rate_hz);
}

double MeasureRadosMixedCapacity(uint64_t seed) {
  RadosMixed workload(seed, kRadosMixedRateHz);
  std::string error;
  if (!workload.Setup(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 0;
  }
  return workload.MeasureCapacity(16, 500 * kMillisecond);
}

}  // namespace malbench
