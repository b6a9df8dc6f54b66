// ZLog: a high-performance distributed shared log (paper §5.2), an
// implementation of the CORFU protocol mapped onto Malacology interfaces:
//
//  - the sequencer is a kSequencer inode in the metadata service (File
//    Type interface) — either round-trip (every position is an MDS RPC) or
//    cached (the client holds the exclusive capability and increments the
//    tail locally under programmable lease terms);
//  - log entries live in a stripe of RADOS objects driven through the
//    `zlog` object class (Data I/O interface), whose write-once +
//    epoch-seal semantics provide CORFU's correctness;
//  - sequencer recovery follows CORFU: bump the epoch, seal every stripe
//    object (invalidating stale clients), take the max tail, and install
//    the recovered state back into the inode.
#ifndef MALACOLOGY_ZLOG_LOG_H_
#define MALACOLOGY_ZLOG_LOG_H_

#include <deque>
#include <functional>
#include <optional>
#include <vector>
#include <memory>
#include <string>

#include "src/cls/builtin.h"
#include "src/common/perf.h"
#include "src/common/rng.h"
#include "src/common/trace.h"
#include "src/mds/mds_client.h"
#include "src/rados/client.h"
#include "src/svc/retry.h"

namespace mal::zlog {

// A CORFU view (projection): from `base_pos` onward, positions stripe
// across `width` objects. Views are installed by Reconfigure()/Recover()
// under a new epoch; the full view history lives in the sequencer inode's
// params, so every client maps any historical position identically.
struct View {
  uint64_t epoch = 0;
  uint32_t width = 1;
  uint64_t base_pos = 0;
};

enum class SequencerMode : uint8_t {
  kRoundTrip = 0,  // every position is an MDS round-trip (§6.2 experiments)
  kCached = 1,     // exclusive capability + local increments (§6.1)
};

struct LogOptions {
  std::string name = "log";
  uint32_t stripe_width = 4;  // log positions stripe across this many objects
  SequencerMode sequencer_mode = SequencerMode::kRoundTrip;
  // Lease terms for kCached mode (the Fig 5/6/7 knobs).
  mds::LeasePolicy lease;
  // Attempt budget and backoff between append retries (epoch fences,
  // position collisions, unreachable targets, sequencer recovery). The
  // default zero base delay retries immediately.
  svc::RetryPolicy retry{.max_attempts = 4};
  // Windowed pipeline: how many AppendBatch() calls may be on the wire at
  // once. Batches beyond the window queue; independent batches overlap so
  // the append path is bandwidth-bound instead of per-RPC-latency-bound.
  uint32_t max_inflight = 4;
};

// Read results distinguish real data from junk (filled) and trimmed holes.
enum class EntryState : uint8_t { kData = 1, kFilled = 2, kTrimmed = 3 };

class Log {
 public:
  Log(sim::Actor* owner, rados::RadosClient* rados, mds::MdsClient* mds,
      LogOptions options = {});

  using PositionHandler = std::function<void(mal::Status, uint64_t)>;
  using ReadHandler = std::function<void(mal::Status, EntryState, const mal::Buffer&)>;
  using DoneHandler = std::function<void(mal::Status)>;
  using BatchHandler = std::function<void(mal::Status, const std::vector<uint64_t>&)>;

  // Creates the sequencer inode (idempotent) and learns the current epoch.
  void Open(DoneHandler on_done);

  // Appends one entry as a one-entry AppendBatch: it shares the window,
  // grant coalescing, recovery and retry budget with every other append on
  // this handle. The position is valid on success.
  void Append(mal::Buffer data, PositionHandler on_done);

  // Batched, pipelined append: reserves entries.size() contiguous positions
  // in ONE sequencer round-trip, groups the entries by stripe object, and
  // ships each object a single write_batch transaction carrying all of its
  // entries. Up to LogOptions::max_inflight batches ride the wire
  // concurrently; excess batches queue. Per-entry failures (epoch fencing,
  // write-once collisions after recovery) are retried with fresh positions
  // without stalling the other entries or the rest of the window. On
  // success, positions[i] is where entries[i] landed.
  //
  // Contention-aware grant coalescing: while the MDS reports that other
  // clients are queued behind this log's grants, at most one grant is in
  // flight; batches that become ready meanwhile share the next grant (split
  // in FIFO order) and one write_batch per stripe object. Uncontended, every
  // batch sends its own grant at once.
  void AppendBatch(std::vector<mal::Buffer> entries, BatchHandler on_done);

  // Batches currently on the wire (diagnostics/bench).
  uint32_t inflight_batches() const { return inflight_; }

  // Optional counter sink owned by the embedding client. When set, the log
  // records zlog.batches / zlog.entries / zlog.grants (round-trip grant
  // requests) / zlog.epoch_refreshes / zlog.batch_retries / zlog.takeovers
  // plus the zlog.inflight gauge and a zlog.batch_us latency histogram.
  void set_perf(mal::PerfRegistry* perf) { perf_ = perf; }

  // Random read of a position; never blocks on the sequencer.
  void Read(uint64_t position, ReadHandler on_data);

  // CORFU hole handling and GC.
  void Fill(uint64_t position, DoneHandler on_done);
  void Trim(uint64_t position, DoneHandler on_done);

  // Current tail without allocating (round-trip to the sequencer inode).
  void CheckTail(PositionHandler on_tail);

  // CORFU sequencer recovery: seal all stripe objects at a higher epoch,
  // compute the tail, install it into the inode, clear the recovery flag.
  // Objects already sealed past the inode's epoch (a recovery that sealed
  // some objects but never installed) are outbid with a higher epoch.
  void Recover(PositionHandler on_recovered);

  // CORFU view change: seals the log at a new epoch and installs a view
  // with a different stripe width starting at the sealed tail. Appends
  // before the tail stay mapped by the old views; new appends stripe over
  // `new_width` objects. Concurrent reconfigurations race on the seal and
  // the loser observes kStaleEpoch.
  void Reconfigure(uint32_t new_width, PositionHandler on_done);

  const std::vector<View>& views() const { return views_; }

  uint64_t epoch() const { return epoch_; }
  const std::string& sequencer_path() const { return sequencer_path_; }
  // The stripe object holding `position`.
  std::string ObjectFor(uint64_t position) const;

 private:
  struct Batch;  // in-flight AppendBatch state (defined in log.cc)
  // A batch waiting for positions for its pending entries, and the batch's
  // retry loop.
  struct Member {
    std::shared_ptr<Batch> batch;
    svc::Retry retry;
    sim::Time ready_ns = 0;  // when it joined the grant queue
  };
  // Batches sharing one grant, in FIFO order; the first is the leader whose
  // span parents the shared RPCs.
  using Group = std::vector<Member>;
  using GrantHandler = std::function<void(mal::Status, uint64_t first, bool contended)>;

  // Reserves `count` contiguous positions (one round-trip or one local
  // increment) and yields the first plus the MDS contention hint (local
  // grants are never contended).
  void GetPositionBatch(uint64_t count, GrantHandler on_grant);
  // Launches queued batches while the in-flight window has room.
  void PumpBatchQueue();
  // One try of the batch: queues its pending entries for the next grant.
  void BatchAttempt(std::shared_ptr<Batch> batch, const svc::Retry& retry);
  // Sends every queued member one shared grant, unless the last grant was
  // contended and a grant is still in flight.
  void PumpGrants();
  // Sequencer failures run recovery or takeover once for the whole group.
  void OnGroupGrant(std::shared_ptr<Group> group, mal::Status status, uint64_t first);
  // Ends a grant (after any recovery it needed) and sends the next one.
  void ReleaseGrant();
  // Traces [since, now) as a `name` child of `span`: a client-side wait the
  // critical path counts as queueing.
  void RecordQueueWait(const trace::TraceContext& span, const char* name, sim::Time since);
  // Splits [first, first + n) across the members in order and ships one
  // write_batch per stripe object; failed entries retry per member.
  void WriteGroup(std::shared_ptr<Group> group, uint64_t first);
  void FinishBatch(std::shared_ptr<Batch> batch, mal::Status status);
  void RefreshEpoch(DoneHandler on_done);
  // Every object of every view (the set recovery must seal).
  std::vector<std::string> AllObjects() const;
  // Object `index` of `view`'s stripe: `<name>[.v<epoch>].<index>`.
  std::string StripeObject(const View& view, uint64_t index) const;
  // Seals every object at `new_epoch`, returns max tail; then installs
  // tail + epoch (+ optional view entry) into the sequencer inode. With
  // `takeover` the install carries the takeover directive: the receiving
  // rank creates the inode if it does not host it and claims ownership
  // (sharded-sequencer failover).
  void SealAndInstall(uint64_t new_epoch, std::optional<uint32_t> new_width,
                      PositionHandler on_done, bool takeover = false);
  // True for failures that mean "the owning rank is gone" rather than "the
  // request was bad": worth attempting a takeover.
  static bool ShouldTakeover(const mal::Status& status);
  // Sharded-sequencer failover (treated like CORFU sequencer failure): if
  // the published ownership map has an entry for this log and the cluster
  // has survivors, seal at a bumped epoch and install the recovered tail on
  // a surviving rank. Calls on_done(ok) when a new owner is serving.
  void MaybeTakeover(DoneHandler on_done);
  // Recover() or takeover at `new_epoch`; a seal found stale is retried just
  // past the stripe's highest sealed epoch, up to `tries_left` times.
  // `takeover` is passed to SealAndInstall.
  void RecoverAt(uint64_t new_epoch, int tries_left, bool takeover,
                 PositionHandler on_recovered);
  // Highest epoch any stripe object is sealed at (unreachable objects and
  // unsealed ones count as 0).
  void ReadSealedEpoch(PositionHandler on_epoch);
  static std::string EncodeViews(const std::vector<View>& views);
  static std::vector<View> DecodeViews(const std::string& encoded, uint32_t default_width);

  sim::Actor* owner_;
  rados::RadosClient* rados_;
  mds::MdsClient* mds_;
  mal::PerfRegistry* perf_ = nullptr;
  LogOptions options_;
  mal::Rng retry_rng_;
  std::string sequencer_path_;
  uint64_t epoch_ = 0;
  std::vector<View> views_;  // sorted by base_pos; views_[0].base_pos == 0
  // Windowed pipeline state.
  std::deque<std::shared_ptr<Batch>> batch_queue_;
  uint32_t inflight_ = 0;
  // Grant coalescing state.
  Group grant_queue_;  // members ready for positions
  uint32_t grants_inflight_ = 0;
  bool contended_ = false;  // the last grant's contention hint
  // Rotates the surviving-rank pick across repeated takeover attempts.
  uint64_t takeover_round_ = 0;
};

}  // namespace mal::zlog

#endif  // MALACOLOGY_ZLOG_LOG_H_
