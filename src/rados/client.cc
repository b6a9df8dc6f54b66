#include "src/rados/client.h"

#include "src/common/deadline.h"
#include "src/common/log.h"

namespace mal::rados {

void RadosClient::Connect(DoneHandler on_done) {
  mon_client_.Subscribe(mon::MapKind::kOsdMap, [this] { return osd_map_.epoch; });
  RefreshMap(std::move(on_done));
}

void RadosClient::RefreshMap(DoneHandler on_done) {
  if (perf_ != nullptr) {
    perf_->Inc("rados.map_refreshes");
  }
  mon_client_.GetMap(mon::MapKind::kOsdMap,
                     [this, on_done = std::move(on_done)](mal::Status status,
                                                          const mon::MapUpdate& update) {
                       on_done(status.ok() ? AdoptMap(update.map_payload) : status);
                     });
}

void RadosClient::FetchNewerMap(DoneHandler on_done) {
  if (perf_ != nullptr) {
    perf_->Inc("rados.map_refreshes");
  }
  mal::ScopedDeadline unbounded(on_done ? mal::CurrentDeadline() : 0);
  mon_client_.GetMapAbove(
      mon::MapKind::kOsdMap, osd_map_.epoch,
      [this, on_done = std::move(on_done)](mal::Status status,
                                           const mon::MapUpdate& update) {
        mal::Status adopted = status.ok() ? AdoptMap(update.map_payload) : status;
        if (on_done) {
          on_done(adopted);
        }
      });
}

mal::Status RadosClient::AdoptMap(const mal::Buffer& payload) {
  auto map = mal::Decode<mon::OsdMap>(payload);
  if (!map.ok()) {
    return map.status();
  }
  if (map.value().epoch > osd_map_.epoch) {
    osd_map_ = std::move(map).value();
  }
  return mal::Status::Ok();
}

bool RadosClient::OnMapUpdate(const sim::Envelope& envelope) {
  if (envelope.type != mon::kMsgMapUpdate) {
    return false;
  }
  auto update = mal::Decode<mon::MapUpdate>(envelope.payload);
  if (!update.ok()) {
    MAL_WARN(owner_->name().ToString())
        << "dropping malformed map update: " << update.status();
    return true;
  }
  return OnMapUpdate(update.value());
}

bool RadosClient::OnMapUpdate(const mon::MapUpdate& update) {
  if (update.kind != mon::MapKind::kOsdMap) {
    return false;
  }
  AdoptMap(update.map_payload);
  return true;
}

void RadosClient::Execute(const std::string& oid, std::vector<osd::Op> ops,
                          OpHandler on_reply) {
  if (perf_ != nullptr) {
    perf_->Inc("rados.ops");
  }
  auto op = std::make_shared<PendingOp>(PendingOp{oid, std::move(ops), std::move(on_reply)});
  svc::Retry::Start(
      owner_->simulator(), &retry_rng_, retry_policy_,
      [this, op](const svc::Retry& retry) { ExecuteAttempt(op, retry); },
      [op] {
        op->on_reply(mal::Status::Unavailable("no reachable primary for " + op->oid),
                     osd::OsdOpReply{});
      });
}

void RadosClient::ExecuteAttempt(const std::shared_ptr<PendingOp>& op,
                                 const svc::Retry& retry) {
  if (retry.attempt() > 0 && perf_ != nullptr) {
    perf_->Inc("rados.retries");
  }
  std::vector<uint32_t> acting = osd::ActingSetForOid(op->oid, osd_map_, replicas_);
  if (acting.empty()) {
    // No map yet (or no OSD up).
    RefreshAndRetry(op, retry);
    return;
  }
  osd::OsdOpRequest req;
  req.oid = op->oid;
  req.ops = op->ops;
  const sim::Time sent = owner_->Now();
  owner_->SendRequest(
      sim::EntityName::Osd(acting[0]), osd::kMsgOsdOp, mal::EncodeSegmented(req),
      [this, op, retry, sent](mal::Status status, const sim::Envelope& reply) {
        if (status.code() == mal::Code::kUnavailable ||
            status.code() == mal::Code::kTimedOut) {
          // Stale placement or dead primary.
          RefreshAndRetry(op, retry);
          return;
        }
        if (status.code() == mal::Code::kBusy) {
          // The primary shed us at admission: our placement was right, so
          // skip the map refresh and just back off before resending.
          if (perf_ != nullptr) {
            perf_->Inc("rados.busy_rejections");
          }
          retry();
          return;
        }
        // kDeadlineExceeded and transaction-level errors are terminal:
        // retrying a spent budget only wastes server CPU. But when our own
        // clamped timeout fired after the send, the primary never answered:
        // it may be failed in a map this client missed.
        if (status.code() == mal::Code::kDeadlineExceeded && !reply.is_reply &&
            owner_->Now() > sent) {
          FetchNewerMap();
        }
        auto decoded = mal::DecodeReply<osd::OsdOpReply>(status, reply.payload);
        if (!decoded.ok()) {
          op->on_reply(decoded.status(), osd::OsdOpReply{});
          return;
        }
        op->on_reply(mal::Status::Ok(), decoded.value());
      });
}

void RadosClient::RefreshAndRetry(const std::shared_ptr<PendingOp>& op,
                                  const svc::Retry& retry) {
  FetchNewerMap([op, retry](mal::Status status) {
    if (!status.ok()) {
      op->on_reply(status, osd::OsdOpReply{});
      return;
    }
    retry();
  });
}

template <typename Handler>
void RadosClient::ExecuteOne(const std::string& oid, osd::Op op, Handler on_result) {
  std::vector<osd::Op> ops;
  ops.push_back(std::move(op));
  Execute(oid, std::move(ops),
          [on_result = std::move(on_result)](mal::Status status,
                                             const osd::OsdOpReply& reply) {
            if (!status.ok()) {
              on_result(status, mal::Buffer());
            } else if (reply.results.empty()) {
              on_result(mal::Status::Internal("empty op reply"), mal::Buffer());
            } else {
              on_result(reply.results[0].status, reply.results[0].out);
            }
          });
}

namespace {

// Adapts a DoneHandler to ExecuteOne's (status, output) shape.
auto StatusOnly(RadosClient::DoneHandler on_done) {
  return [on_done = std::move(on_done)](mal::Status status, const mal::Buffer&) {
    on_done(status);
  };
}

}  // namespace

void RadosClient::WriteFull(const std::string& oid, mal::Buffer data, DoneHandler on_done) {
  osd::Op op;
  op.type = osd::Op::Type::kWriteFull;
  op.data = std::move(data);
  ExecuteOne(oid, std::move(op), StatusOnly(std::move(on_done)));
}

void RadosClient::Append(const std::string& oid, mal::Buffer data, DoneHandler on_done) {
  osd::Op op;
  op.type = osd::Op::Type::kAppend;
  op.data = std::move(data);
  ExecuteOne(oid, std::move(op), StatusOnly(std::move(on_done)));
}

void RadosClient::Read(const std::string& oid, DataHandler on_data) {
  osd::Op op;
  op.type = osd::Op::Type::kRead;
  ExecuteOne(oid, std::move(op), std::move(on_data));
}

void RadosClient::Remove(const std::string& oid, DoneHandler on_done) {
  osd::Op op;
  op.type = osd::Op::Type::kRemove;
  ExecuteOne(oid, std::move(op), StatusOnly(std::move(on_done)));
}

void RadosClient::CreateExclusive(const std::string& oid, DoneHandler on_done) {
  osd::Op op;
  op.type = osd::Op::Type::kCreate;
  op.excl = true;
  ExecuteOne(oid, std::move(op), StatusOnly(std::move(on_done)));
}

void RadosClient::OmapSet(const std::string& oid, const std::string& key,
                          const std::string& value, DoneHandler on_done) {
  osd::Op op;
  op.type = osd::Op::Type::kOmapSet;
  op.key = key;
  op.value = value;
  ExecuteOne(oid, std::move(op), StatusOnly(std::move(on_done)));
}

void RadosClient::OmapGet(const std::string& oid, const std::string& key,
                          DataHandler on_data) {
  osd::Op op;
  op.type = osd::Op::Type::kOmapGet;
  op.key = key;
  ExecuteOne(oid, std::move(op), std::move(on_data));
}

void RadosClient::Exec(const std::string& oid, const std::string& cls,
                       const std::string& method, mal::Buffer input, DataHandler on_out) {
  ExecuteOne(oid, MakeExecOp(cls, method, std::move(input)), std::move(on_out));
}

void RadosClient::ListObjects(uint32_t osd, const std::string& prefix, ListHandler on_list) {
  owner_->SendRequest(sim::EntityName::Osd(osd), osd::kMsgListObjects,
                      mal::Encode(osd::ListObjectsRequest{prefix}),
                      [this, on_list = std::move(on_list)](mal::Status status,
                                                           const sim::Envelope& reply) {
                        if (!status.ok()) {
                          // The OSD may be failed in a map this client missed.
                          FetchNewerMap();
                          on_list(status, {});
                          return;
                        }
                        auto listed = mal::Decode<osd::ListObjectsReply>(reply.payload);
                        if (!listed.ok()) {
                          on_list(listed.status(), {});
                          return;
                        }
                        on_list(mal::Status::Ok(), std::move(listed.value().oids));
                      });
}

osd::Op RadosClient::MakeExecOp(const std::string& cls, const std::string& method,
                                mal::Buffer input) {
  osd::Op op;
  op.type = osd::Op::Type::kExec;
  op.cls_name = cls;
  op.method = method;
  op.data = std::move(input);
  return op;
}

void RadosClient::ExecuteTargeted(std::vector<TargetedOp> ops, TargetedHandler on_done) {
  if (ops.empty()) {
    on_done({});
    return;
  }
  // Group op indices by target, preserving input order within each target.
  std::map<std::string, std::vector<size_t>> by_target;
  for (size_t i = 0; i < ops.size(); ++i) {
    by_target[ops[i].oid].push_back(i);
  }
  auto results = std::make_shared<std::vector<osd::OpResult>>(ops.size());
  auto pending = std::make_shared<size_t>(by_target.size());
  auto done = std::make_shared<TargetedHandler>(std::move(on_done));
  for (auto& [oid, indices] : by_target) {
    std::vector<osd::Op> txn;
    txn.reserve(indices.size());
    for (size_t i : indices) {
      txn.push_back(std::move(ops[i].op));
    }
    Execute(oid, std::move(txn),
            [results, pending, done, indices](mal::Status status,
                                              const osd::OsdOpReply& reply) {
              bool aborted = !status.ok();
              for (size_t slot = 0; slot < indices.size(); ++slot) {
                osd::OpResult& r = (*results)[indices[slot]];
                if (!status.ok()) {
                  r.status = status;  // transport-level failure: whole target
                } else if (slot < reply.results.size()) {
                  r = reply.results[slot];
                  aborted = aborted || !r.status.ok();
                } else {
                  r.status = mal::Status::Internal("missing op result");
                  aborted = true;
                }
              }
              if (aborted && status.ok()) {
                // The target transaction is atomic: ops that individually
                // reported OK did not commit if a sibling op failed.
                for (size_t slot = 0; slot < indices.size(); ++slot) {
                  osd::OpResult& r = (*results)[indices[slot]];
                  if (r.status.ok()) {
                    r.status = mal::Status::Aborted("transaction aborted by sibling op");
                  }
                }
              }
              if (--*pending == 0) {
                (*done)(std::move(*results));
              }
            });
  }
}

void RadosClient::Watch(const std::string& oid, NotifyHandler on_notify,
                        DoneHandler on_done) {
  std::vector<uint32_t> acting = osd::ActingSetForOid(oid, osd_map_, replicas_);
  if (acting.empty()) {
    on_done(mal::Status::Unavailable("no primary for " + oid));
    return;
  }
  osd::WatchRequest req{oid, /*unwatch=*/false};
  notify_handlers_[oid] = std::move(on_notify);
  owner_->SendRequest(sim::EntityName::Osd(acting[0]), osd::kMsgWatch, mal::Encode(req),
                      [this, oid, on_done = std::move(on_done)](
                          mal::Status status, const sim::Envelope&) {
                        if (!status.ok()) {
                          notify_handlers_.erase(oid);
                        }
                        on_done(status);
                      });
}

void RadosClient::Unwatch(const std::string& oid, DoneHandler on_done) {
  notify_handlers_.erase(oid);
  std::vector<uint32_t> acting = osd::ActingSetForOid(oid, osd_map_, replicas_);
  if (acting.empty()) {
    on_done(mal::Status::Ok());
    return;
  }
  osd::WatchRequest req{oid, /*unwatch=*/true};
  owner_->SendRequest(sim::EntityName::Osd(acting[0]), osd::kMsgWatch, mal::Encode(req),
                      [on_done = std::move(on_done)](mal::Status status,
                                                     const sim::Envelope&) {
                        on_done(status);
                      });
}

bool RadosClient::OnNotify(const sim::Envelope& envelope) {
  if (envelope.type != osd::kMsgNotify) {
    return false;
  }
  auto event = mal::Decode<osd::NotifyEvent>(envelope.payload);
  if (!event.ok()) {
    MAL_WARN(owner_->name().ToString()) << "dropping malformed notify: " << event.status();
    return true;
  }
  auto it = notify_handlers_.find(event.value().oid);
  if (it != notify_handlers_.end()) {
    it->second(event.value().oid, event.value().version);
  }
  return true;
}

void RadosClient::InstallScriptInterface(const std::string& cls, const std::string& version,
                                         const std::string& source, DoneHandler on_done) {
  // Two service-metadata keys. The version commits after the source: sent
  // together, they could land in separate Paxos batches in either order,
  // and an OSD that saw the new version first would load the old source
  // under it.
  mon_client_.SetServiceMetadata(
      mon::MapKind::kOsdMap, "cls.src." + cls, source,
      [this, cls, version, on_done = std::move(on_done)](mal::Status s) mutable {
        if (!s.ok()) {
          on_done(s);
          return;
        }
        mon_client_.SetServiceMetadata(mon::MapKind::kOsdMap, "cls.ver." + cls, version,
                                       std::move(on_done));
      });
}

}  // namespace mal::rados
