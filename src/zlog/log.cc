#include "src/zlog/log.h"

#include <algorithm>
#include <map>

#include "src/mon/maps.h"

namespace mal::zlog {

using cls::ZlogOps;

namespace {

uint64_t ParseU64(const std::string& s) {
  return s.empty() ? 0 : std::strtoull(s.c_str(), nullptr, 10);
}

}  // namespace

Log::Log(sim::Actor* owner, rados::RadosClient* rados, mds::MdsClient* mds,
         LogOptions options)
    : owner_(owner),
      rados_(rados),
      mds_(mds),
      options_(std::move(options)),
      retry_rng_(0x7a6c6f67ULL * 0x9e3779b97f4a7c15ULL +
                 (static_cast<uint64_t>(owner->name().type) << 32) + owner->name().id),
      sequencer_path_("/zlog/" + options_.name) {
  views_.push_back(View{0, options_.stripe_width, 0});
}

std::string Log::EncodeViews(const std::vector<View>& views) {
  std::string out;
  for (const View& view : views) {
    if (!out.empty()) {
      out += ";";
    }
    out += std::to_string(view.epoch) + ":" + std::to_string(view.width) + ":" +
           std::to_string(view.base_pos);
  }
  return out;
}

std::vector<View> Log::DecodeViews(const std::string& encoded, uint32_t default_width) {
  std::vector<View> views;
  size_t start = 0;
  while (start < encoded.size()) {
    size_t end = encoded.find(';', start);
    if (end == std::string::npos) {
      end = encoded.size();
    }
    std::string entry = encoded.substr(start, end - start);
    size_t c1 = entry.find(':');
    size_t c2 = entry.find(':', c1 + 1);
    if (c1 != std::string::npos && c2 != std::string::npos) {
      View view;
      view.epoch = std::strtoull(entry.substr(0, c1).c_str(), nullptr, 10);
      view.width = static_cast<uint32_t>(
          std::strtoul(entry.substr(c1 + 1, c2 - c1 - 1).c_str(), nullptr, 10));
      view.base_pos = std::strtoull(entry.substr(c2 + 1).c_str(), nullptr, 10);
      if (view.width > 0) {
        views.push_back(view);
      }
    }
    start = end + 1;
  }
  if (views.empty() || views.front().base_pos != 0) {
    views.insert(views.begin(), View{0, default_width, 0});
  }
  return views;
}

std::string Log::StripeObject(const View& view, uint64_t index) const {
  std::string prefix = options_.name + ".";
  if (view.epoch != 0) {
    prefix += "v" + std::to_string(view.epoch) + ".";
  }
  return prefix + std::to_string(index);
}

std::string Log::ObjectFor(uint64_t position) const {
  // Latest view whose base covers the position (views_ sorted by base_pos).
  const View* view = &views_.front();
  for (const View& candidate : views_) {
    if (candidate.base_pos <= position) {
      view = &candidate;
    }
  }
  return StripeObject(*view, (position - view->base_pos) % view->width);
}

std::vector<std::string> Log::AllObjects() const {
  std::vector<std::string> objects;
  for (const View& view : views_) {
    for (uint32_t i = 0; i < view.width; ++i) {
      objects.push_back(StripeObject(view, i));
    }
  }
  return objects;
}

void Log::Open(DoneHandler on_done) {
  mds::LeasePolicy policy = options_.lease;
  if (options_.sequencer_mode == SequencerMode::kRoundTrip) {
    policy.mode = mds::LeaseMode::kRoundTrip;
  }
  mds_->Create(sequencer_path_, mds::InodeType::kSequencer, policy,
               [this, on_done = std::move(on_done)](mal::Status status) {
                 if (!status.ok() && status.code() != mal::Code::kAlreadyExists) {
                   on_done(status);
                   return;
                 }
                 RefreshEpoch(on_done);
               });
}

void Log::RefreshEpoch(DoneHandler on_done) {
  if (perf_ != nullptr) {
    perf_->Inc("zlog.epoch_refreshes");
  }
  mds_->Lookup(sequencer_path_,
               [this, on_done = std::move(on_done)](mal::Status status,
                                                    const mds::MdsReply& reply) {
                 if (!status.ok()) {
                   on_done(status);
                   return;
                 }
                 auto it = reply.inode.params.find("epoch");
                 epoch_ = it == reply.inode.params.end() ? 0 : ParseU64(it->second);
                 auto views_it = reply.inode.params.find("views");
                 if (views_it != reply.inode.params.end()) {
                   views_ = DecodeViews(views_it->second, options_.stripe_width);
                 }
                 on_done(mal::Status::Ok());
               });
}

void Log::GetPositionBatch(uint64_t count, GrantHandler on_grant) {
  if (options_.sequencer_mode == SequencerMode::kRoundTrip) {
    if (perf_ != nullptr) {
      perf_->Inc("zlog.grants");
    }
    mds_->SeqNextBatch(sequencer_path_, count, std::move(on_grant));
    return;
  }
  if (mds_->HasCap(sequencer_path_)) {
    auto first = mds_->LocalNextBatch(sequencer_path_, count);
    if (first.ok()) {
      on_grant(mal::Status::Ok(), first.value(), false);
      return;
    }
    // Cap slipped away between the check and the increment; fall through.
  }
  mds_->AcquireCap(sequencer_path_,
                   [this, count, on_grant = std::move(on_grant)](mal::Status status) {
                     if (!status.ok()) {
                       on_grant(status, 0, false);
                       return;
                     }
                     auto first = mds_->LocalNextBatch(sequencer_path_, count);
                     if (!first.ok()) {
                       on_grant(first.status(), 0, false);
                       return;
                     }
                     on_grant(mal::Status::Ok(), first.value(), false);
                   });
}

void Log::Append(mal::Buffer data, PositionHandler on_done) {
  std::vector<mal::Buffer> entries;
  entries.push_back(std::move(data));
  AppendBatch(std::move(entries),
              [done = std::move(on_done)](mal::Status s, const std::vector<uint64_t>& at) {
                done(s, at[0]);
              });
}

// -- batched, pipelined append ---------------------------------------------------

struct Log::Batch {
  std::vector<mal::Buffer> entries;
  std::vector<uint64_t> positions;  // parallel to entries; valid on success
  std::vector<size_t> pending;      // entries still to place (fresh positions each try)
  BatchHandler on_done;
  trace::TraceContext span;  // root span covering queue + seq + OSD writes
  sim::Time start_ns = 0;
};

void Log::AppendBatch(std::vector<mal::Buffer> entries, BatchHandler on_done) {
  if (entries.empty()) {
    on_done(mal::Status::Ok(), {});
    return;
  }
  if (perf_ != nullptr) {
    perf_->Inc("zlog.batches");
    perf_->Inc("zlog.entries", entries.size());
  }
  auto batch = std::make_shared<Batch>();
  batch->entries = std::move(entries);
  batch->positions.resize(batch->entries.size(), 0);
  batch->on_done = std::move(on_done);
  batch->start_ns = owner_->Now();
  if (trace::Collector() != nullptr) {
    batch->span = trace::Collector()->StartSpan(
        "zlog.AppendBatch", owner_->name().ToString(), owner_->Now(), trace::Current());
  }
  batch_queue_.push_back(std::move(batch));
  PumpBatchQueue();
}

void Log::PumpBatchQueue() {
  while (inflight_ < std::max<uint32_t>(options_.max_inflight, 1) &&
         !batch_queue_.empty()) {
    std::shared_ptr<Batch> batch = batch_queue_.front();
    batch_queue_.pop_front();
    RecordQueueWait(batch->span, "queue:zlog.window", batch->start_ns);
    ++inflight_;
    if (perf_ != nullptr) {
      perf_->Set("zlog.inflight", inflight_);
    }
    batch->pending.resize(batch->entries.size());
    for (size_t i = 0; i < batch->pending.size(); ++i) {
      batch->pending[i] = i;
    }
    svc::Retry::Start(
        owner_->simulator(), &retry_rng_, options_.retry,
        [this, batch](const svc::Retry& retry) { BatchAttempt(batch, retry); },
        [this, batch] {
          // Every exhaustion follows a retry, which counts like any other.
          if (perf_ != nullptr) {
            perf_->Inc("zlog.batch_retries");
          }
          trace::ScopedContext scope(batch->span);
          FinishBatch(batch, mal::Status::Unavailable("append retries exhausted"));
        });
  }
}

void Log::FinishBatch(std::shared_ptr<Batch> batch, mal::Status status) {
  --inflight_;
  if (perf_ != nullptr) {
    perf_->Set("zlog.inflight", inflight_);
    perf_->Observe("zlog.batch_us",
                   static_cast<double>(owner_->Now() - batch->start_ns) / 1e3);
  }
  if (batch->span.valid() && trace::Collector() != nullptr) {
    trace::Collector()->EndSpan(batch->span, owner_->Now(),
                                status.ok() ? "ok" : status.message());
  }
  batch->on_done(status, batch->positions);
  PumpBatchQueue();
}

void Log::BatchAttempt(std::shared_ptr<Batch> batch, const svc::Retry& retry) {
  if (retry.attempt() > 0 && perf_ != nullptr) {
    perf_->Inc("zlog.batch_retries");
  }
  grant_queue_.push_back(Member{std::move(batch), retry, owner_->Now()});
  PumpGrants();
}

void Log::PumpGrants() {
  if (grant_queue_.empty() || (contended_ && grants_inflight_ > 0)) {
    return;
  }
  auto group = std::make_shared<Group>();
  group->swap(grant_queue_);
  uint64_t count = 0;
  for (const Member& member : *group) {
    count += member.batch->pending.size();
  }
  // Every hop of the group — sequencer grant, per-object OSD transactions,
  // recovery — hangs under the leader's root span; the other members get a
  // follows-from link to it so their critical paths still see the work. A
  // member's wait for the log's previous grant is client-side queueing.
  // We may run from another batch's completion context, so pin the ambient
  // context explicitly.
  const trace::TraceContext& leader = group->front().batch->span;
  if (trace::TraceCollector* collector = trace::Collector()) {
    for (size_t m = 0; m < group->size(); ++m) {
      const Member& member = (*group)[m];
      if (m > 0) {
        collector->Link(member.batch->span, leader);
      }
      RecordQueueWait(member.batch->span, "queue:zlog.grant", member.ready_ns);
    }
  }
  trace::ScopedContext scope(leader);
  ++grants_inflight_;
  GetPositionBatch(count, [this, group](mal::Status status, uint64_t first,
                                        bool contended) {
    if (status.ok()) {
      contended_ = contended;
    }
    OnGroupGrant(group, status, first);
  });
}

void Log::RecordQueueWait(const trace::TraceContext& span, const char* name,
                          sim::Time since) {
  trace::TraceCollector* collector = trace::Collector();
  if (collector != nullptr && span.valid() && since < owner_->Now()) {
    collector->EndSpan(collector->StartSpan(name, owner_->name().ToString(), since, span),
                       owner_->Now());
  }
}

void Log::ReleaseGrant() {
  --grants_inflight_;
  PumpGrants();
}

void Log::OnGroupGrant(std::shared_ptr<Group> group, mal::Status status, uint64_t first) {
  // Sequencer failures are the group's, not a member's: run recovery or
  // takeover once, then every member retries with fresh positions. The
  // grant stays in flight until then, so under contention the batches
  // queued meanwhile wait for the recovered sequencer instead of chasing
  // the failed one.
  auto retry_all = [this, group] {
    for (const Member& member : *group) {
      member.retry();
    }
    ReleaseGrant();
  };
  auto fail_all = [this, group](const mal::Status& failure) {
    for (const Member& member : *group) {
      FinishBatch(member.batch, failure);
    }
    ReleaseGrant();
  };
  auto takeover_or_fail = [this, retry_all, fail_all](const mal::Status& failure) {
    if (!ShouldTakeover(failure)) {
      fail_all(failure);
      return;
    }
    // The owning rank is gone (or lost the inode): attempt the
    // sharded-sequencer takeover, then retry with fresh positions from
    // the new owner.
    MaybeTakeover([retry_all, fail_all, failure](mal::Status t) {
      if (t.ok()) {
        retry_all();
      } else {
        fail_all(failure);
      }
    });
  };
  if (status.code() == mal::Code::kAborted) {
    // Sequencer lost its state: run CORFU recovery, then retry under the
    // new epoch.
    Recover([retry_all, takeover_or_fail](mal::Status recover_status, uint64_t) {
      if (recover_status.ok()) {
        retry_all();
      } else {
        takeover_or_fail(recover_status);
      }
    });
    return;
  }
  if (!status.ok()) {
    takeover_or_fail(status);
    return;
  }
  WriteGroup(std::move(group), first);
  ReleaseGrant();
}

void Log::WriteGroup(std::shared_ptr<Group> group, uint64_t first) {
  // Assign the grant [first, first+n) member by member, and group entries
  // by stripe object: each OSD receives ONE transaction carrying all of
  // the group's entries for it.
  struct Slot {
    size_t member;
    size_t index;
  };
  std::map<std::string, std::vector<cls::ZlogOps::BatchEntry>> per_object;
  std::map<std::string, std::vector<Slot>> object_slots;
  uint64_t pos = first;
  for (size_t m = 0; m < group->size(); ++m) {
    Batch& batch = *(*group)[m].batch;
    for (size_t index : batch.pending) {
      batch.positions[index] = pos;
      std::string oid = ObjectFor(pos);
      per_object[oid].push_back({pos, batch.entries[index]});
      object_slots[oid].push_back({m, index});
      ++pos;
    }
  }
  std::vector<rados::RadosClient::TargetedOp> ops;
  std::vector<std::vector<Slot>> op_slots;  // parallel to ops
  ops.reserve(per_object.size());
  for (auto& [oid, batch_entries] : per_object) {
    ops.push_back({oid, rados::RadosClient::MakeExecOp(
                            "zlog", "write_batch",
                            cls::ZlogOps::MakeWriteBatch(epoch_, batch_entries))});
    op_slots.push_back(std::move(object_slots[oid]));
  }
  rados_->ExecuteTargeted(
      std::move(ops), [this, group, op_slots = std::move(op_slots)](
                          std::vector<osd::OpResult> results) {
        // Collect, per member, entries that failed and must retry with
        // fresh positions: whole targets that were fenced (stale epoch) or
        // unreachable, and individual write-once collisions.
        std::vector<std::vector<size_t>> retry(group->size());
        bool fenced = false;
        for (size_t j = 0; j < results.size(); ++j) {
          const osd::OpResult& r = results[j];
          auto retry_slot = [&retry](const Slot& slot) {
            retry[slot.member].push_back(slot.index);
          };
          if (!r.status.ok()) {
            // Whole-target failure: fenced by a newer epoch, or the target
            // was unreachable/aborted. Every entry retries.
            fenced = fenced || r.status.code() == mal::Code::kStaleEpoch;
            std::for_each(op_slots[j].begin(), op_slots[j].end(), retry_slot);
            continue;
          }
          auto codes = cls::ZlogOps::ParseWriteBatchResult(r.out);
          if (!codes.ok() || codes.value().size() != op_slots[j].size()) {
            std::for_each(op_slots[j].begin(), op_slots[j].end(), retry_slot);
            continue;
          }
          for (size_t k = 0; k < codes.value().size(); ++k) {
            // Per-entry invalidation: a collision (position consumed by
            // recovery) retries alone; committed siblings stand.
            if (codes.value()[k] != mal::Code::kOk) {
              retry_slot(op_slots[j][k]);
            }
          }
        }
        // Members whose entries all landed finish now; the rest retry just
        // the entries that failed.
        auto retrying = std::make_shared<Group>();
        for (size_t m = 0; m < group->size(); ++m) {
          Member& member = (*group)[m];
          if (retry[m].empty()) {
            FinishBatch(member.batch, mal::Status::Ok());
            continue;
          }
          std::sort(retry[m].begin(), retry[m].end());
          member.batch->pending = std::move(retry[m]);
          retrying->push_back(std::move(member));
        }
        if (retrying->empty()) {
          return;
        }
        if (!fenced) {
          for (const Member& member : *retrying) {
            member.retry();
          }
          return;
        }
        // We were sealed mid-group: learn the new epoch once for the whole
        // group, then retry the invalidated entries with fresh positions.
        RefreshEpoch([this, retrying](mal::Status refresh_status) {
          for (const Member& member : *retrying) {
            if (refresh_status.ok()) {
              member.retry();
            } else {
              FinishBatch(member.batch, refresh_status);
            }
          }
        });
      });
}

void Log::Read(uint64_t position, ReadHandler on_data) {
  rados_->Exec(ObjectFor(position), "zlog", "read", ZlogOps::MakeRead(epoch_, position),
               [on_data = std::move(on_data)](mal::Status status, const mal::Buffer& out) {
                 auto entry = mal::DecodeReply<cls::ZlogEntry>(status, out);
                 if (!entry.ok()) {
                   on_data(entry.status(), EntryState::kData, mal::Buffer());
                   return;
                 }
                 // The data aliases the reply payload.
                 on_data(mal::Status::Ok(), static_cast<EntryState>(entry.value().state),
                         entry.value().data);
               });
}

void Log::Fill(uint64_t position, DoneHandler on_done) {
  rados_->Exec(ObjectFor(position), "zlog", "fill", ZlogOps::MakeFill(epoch_, position),
               [on_done = std::move(on_done)](mal::Status status, const mal::Buffer&) {
                 on_done(status);
               });
}

void Log::Trim(uint64_t position, DoneHandler on_done) {
  rados_->Exec(ObjectFor(position), "zlog", "trim", ZlogOps::MakeTrim(epoch_, position),
               [on_done = std::move(on_done)](mal::Status status, const mal::Buffer&) {
                 on_done(status);
               });
}

void Log::CheckTail(PositionHandler on_tail) {
  mds_->SeqRead(sequencer_path_, std::move(on_tail));
}

void Log::SealAndInstall(uint64_t new_epoch, std::optional<uint32_t> new_width,
                         PositionHandler on_done, bool takeover) {
  std::vector<std::string> objects = AllObjects();
  auto max_tail = std::make_shared<uint64_t>(0);
  auto pending = std::make_shared<size_t>(objects.size());
  auto failed = std::make_shared<mal::Status>();
  for (const std::string& oid : objects) {
    rados_->Exec(
        oid, "zlog", "seal", ZlogOps::MakeSeal(new_epoch),
        [this, max_tail, pending, failed, new_epoch, new_width, on_done, takeover](
            mal::Status seal_status, const mal::Buffer& out) {
          auto tail = mal::DecodeReply<uint64_t>(seal_status, out);
          if (!tail.ok()) {
            if (failed->ok()) {
              *failed = tail.status();
            }
          } else {
            *max_tail = std::max(*max_tail, tail.value());
          }
          if (--*pending != 0) {
            return;
          }
          if (!failed->ok()) {
            // Lost a seal race or a device refused: report; the caller can
            // retry (a competing recovery/reconfiguration may have won).
            on_done(*failed, 0);
            return;
          }
          // Install tail + epoch (+ the new view) into the sequencer inode
          // and clear the recovery flag.
          std::vector<View> new_views = views_;
          if (new_width.has_value()) {
            new_views.push_back(View{new_epoch, *new_width, *max_tail});
          }
          mds::ClientRequest install;
          install.op = mds::MdsOp::kSetSeqState;
          install.path = sequencer_path_;
          install.seq_value = *max_tail;
          install.params["epoch"] = std::to_string(new_epoch);
          install.params["views"] = EncodeViews(new_views);
          install.params["needs_recovery"] = "";  // erase
          if (takeover) {
            // Failover install: the target rank creates the inode if it does
            // not host it yet, with the same lease policy Open() would use.
            install.params["takeover"] = "1";
            install.inode_type = mds::InodeType::kSequencer;
            install.policy = options_.lease;
            if (options_.sequencer_mode == SequencerMode::kRoundTrip) {
              install.policy.mode = mds::LeaseMode::kRoundTrip;
            }
          }
          mds_->Request(install, [this, new_epoch, new_views, max_tail, on_done](
                                     mal::Status install_status, const mds::MdsReply&) {
            if (!install_status.ok()) {
              on_done(install_status, 0);
              return;
            }
            epoch_ = new_epoch;
            views_ = new_views;
            on_done(mal::Status::Ok(), *max_tail);
          });
        });
  }
}

bool Log::ShouldTakeover(const mal::Status& status) {
  // kUnavailable/kTimedOut: the owning rank is down or unreachable.
  // kNotFound: the ownership map named a rank that lost (or never got) the
  // inode — an aborted demotion; installing recovered state there heals it.
  return status.code() == mal::Code::kUnavailable ||
         status.code() == mal::Code::kTimedOut ||
         status.code() == mal::Code::kNotFound;
}

void Log::MaybeTakeover(DoneHandler on_done) {
  // Owner change is CORFU failover (paper §5.2.2): consult the published
  // ownership map; if this log's sequencer is sharded and the cluster has a
  // survivor, seal at a bumped epoch — fencing every grant the dead rank
  // ever issued — and install the recovered tail on the survivor. Without
  // an ownership entry (legacy single-sequencer placement) the failure is
  // surfaced unchanged.
  rados_->mon_client().GetMap(
      mon::MapKind::kMdsMap,
      [this, on_done = std::move(on_done)](mal::Status status,
                                           const mon::MapUpdate& update) {
        if (!status.ok()) {
          on_done(status);
          return;
        }
        auto map = mal::Decode<mon::MdsMap>(update.map_payload);
        if (!map.ok()) {
          on_done(map.status());
          return;
        }
        std::optional<uint32_t> owner = mon::SeqOwnerOf(map.value(), sequencer_path_);
        if (!owner.has_value()) {
          on_done(mal::Status::Unavailable("sequencer is not sharded"));
          return;
        }
        std::vector<uint32_t> active;
        for (const auto& [id, info] : map.value().mds) {
          if (info.state == mon::MdsState::kActive) {
            active.push_back(id);
          }
        }
        if (active.empty()) {
          on_done(mal::Status::Unavailable("no active mds"));
          return;
        }
        // Prefer a rank other than the (presumed dead) published owner;
        // rotate across attempts so concurrent takeovers spread out.
        uint32_t pick = active[takeover_round_++ % active.size()];
        if (pick == *owner && active.size() > 1) {
          pick = active[takeover_round_++ % active.size()];
        }
        if (perf_ != nullptr) {
          perf_->Inc("zlog.takeovers");
        }
        // Aim the install at the chosen survivor before any MDS can
        // redirect us there; the server-side takeover directive bypasses
        // the (stale) ownership check.
        mds_->SetAuthorityHint(sequencer_path_, pick);
        RecoverAt(epoch_ + 1, /*tries_left=*/4, /*takeover=*/true,
                  [on_done = std::move(on_done)](mal::Status installed, uint64_t) {
                    on_done(installed);
                  });
      });
}

void Log::Recover(PositionHandler on_recovered) {
  // Learn the latest epoch first so our seal outbids everyone sealed-so-far.
  RefreshEpoch([this, on_recovered = std::move(on_recovered)](mal::Status status) {
    if (!status.ok()) {
      on_recovered(status, 0);
      return;
    }
    RecoverAt(epoch_ + 1, /*tries_left=*/4, /*takeover=*/false, std::move(on_recovered));
  });
}

void Log::RecoverAt(uint64_t new_epoch, int tries_left, bool takeover,
                    PositionHandler on_recovered) {
  SealAndInstall(
      new_epoch, std::nullopt,
      [this, new_epoch, tries_left, takeover, on_recovered](mal::Status status,
                                                            uint64_t tail) {
        if (status.code() == mal::Code::kStaleEpoch && tries_left > 0) {
          // Some object is sealed at or past new_epoch: a racing recovery
          // or takeover, or one that sealed part of the stripe and never
          // installed its epoch. Outbid it.
          ReadSealedEpoch([this, new_epoch, tries_left, takeover, on_recovered](
                              mal::Status, uint64_t sealed) {
            RecoverAt(std::max(new_epoch, sealed) + 1, tries_left - 1, takeover,
                      on_recovered);
          });
          return;
        }
        on_recovered(status, tail);
      },
      takeover);
}

void Log::ReadSealedEpoch(PositionHandler on_epoch) {
  std::vector<std::string> objects = AllObjects();
  auto sealed = std::make_shared<uint64_t>(0);
  auto pending = std::make_shared<size_t>(objects.size());
  for (const std::string& oid : objects) {
    osd::Op op;
    op.type = osd::Op::Type::kXattrGet;
    op.key = ZlogOps::kEpochXattr;
    rados_->Execute(oid, {op}, [sealed, pending, on_epoch](mal::Status status,
                                                          const osd::OsdOpReply& reply) {
      if (status.ok() && !reply.results.empty()) {
        *sealed = std::max(*sealed, ParseU64(reply.results.front().out.ToString()));
      }
      if (--*pending == 0) {
        on_epoch(mal::Status::Ok(), *sealed);
      }
    });
  }
}

void Log::Reconfigure(uint32_t new_width, PositionHandler on_done) {
  if (new_width == 0) {
    on_done(mal::Status::InvalidArgument("stripe width must be positive"), 0);
    return;
  }
  RefreshEpoch([this, new_width, on_done = std::move(on_done)](mal::Status status) {
    if (!status.ok()) {
      on_done(status, 0);
      return;
    }
    SealAndInstall(epoch_ + 1, new_width, std::move(on_done));
  });
}

}  // namespace mal::zlog
