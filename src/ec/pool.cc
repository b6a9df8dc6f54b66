#include "src/ec/pool.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>

namespace mal::ec {

namespace {

mal::Buffer U64Input(uint64_t value) { return mal::Encode(value); }

uint64_t ParseU64(const std::string& s) {
  return s.empty() ? 0 : std::strtoull(s.c_str(), nullptr, 10);
}

}  // namespace

std::vector<std::optional<mal::Buffer>> SelectGeneration(const std::vector<ShardInfo>& shards,
                                                         uint64_t* size_out,
                                                         uint32_t* missing_out) {
  // Plurality vote over write-generation stamps among checksum-valid
  // shards. std::map iterates ascending and `>` keeps the first maximum,
  // so ties deterministically pick the smallest stamp.
  std::map<uint64_t, uint32_t> votes;
  for (const ShardInfo& shard : shards) {
    if (shard.valid) {
      ++votes[shard.stamp];
    }
  }
  uint64_t winner = 0;
  uint32_t best = 0;
  bool have = false;
  for (const auto& [stamp, count] : votes) {
    if (count > best) {
      best = count;
      winner = stamp;
      have = true;
    }
  }
  std::vector<std::optional<mal::Buffer>> generation(shards.size());
  uint32_t missing = 0;
  uint64_t size = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (have && shards[i].valid && shards[i].stamp == winner) {
      generation[i] = shards[i].data;
      size = shards[i].size;
    } else {
      ++missing;
    }
  }
  *size_out = size;
  *missing_out = missing;
  return generation;
}

void Pool::Create(rados::RadosClient* rados, const std::string& name,
                  const mon::PoolLayout& layout, DoneHandler on_done) {
  rados->mon_client().SetServiceMetadata(
      mon::MapKind::kOsdMap, mon::PoolKey(name), layout.Format(),
      [rados, on_done](mal::Status status) {
        if (!status.ok()) {
          on_done(status);
          return;
        }
        // Pull the map carrying the pool entry so this client's very next
        // placement decision routes by the pool layout (other parties
        // converge through the normal push/gossip machinery).
        rados->RefreshMap(on_done);
      });
}

std::optional<Pool> Pool::Bind(rados::RadosClient* rados, const std::string& name) {
  auto layout = mon::PoolLayoutOf(rados->osd_map(), name);
  if (!layout.has_value() || layout->kind != mon::PoolLayout::Kind::kErasure) {
    return std::nullopt;
  }
  return Pool(rados, name, layout->width);
}

void Pool::AppendShardWrite(std::vector<rados::RadosClient::TargetedOp>* ops,
                            const std::string& object, uint32_t index, osd::Op guard,
                            const mal::Buffer& shard, uint64_t size, uint64_t stamp) const {
  std::string oid = ShardOid(object, index);
  ops->push_back({oid, std::move(guard)});
  osd::Op write;
  write.type = osd::Op::Type::kWriteFull;
  write.data = shard;
  ops->push_back({oid, std::move(write)});
  auto set_attr = [&](const char* key, uint64_t value) {
    osd::Op attr;
    attr.type = osd::Op::Type::kXattrSet;
    attr.key = key;
    attr.value = std::to_string(value);
    ops->push_back({oid, std::move(attr)});
  };
  set_attr(kShardSizeXattr, size);
  set_attr(kShardCksumXattr, Checksum(shard.View()));
  set_attr(kShardStampXattr, stamp);
}

void Pool::Submit(std::vector<rados::RadosClient::TargetedOp> ops, DoneHandler on_done) {
  rados_->ExecuteTargeted(std::move(ops), [on_done](std::vector<osd::OpResult> results) {
    mal::Status first;
    for (const osd::OpResult& result : results) {
      if (!result.status.ok() && first.ok()) {
        first = result.status;
      }
    }
    on_done(first);
  });
}

void Pool::Write(const std::string& object, mal::Buffer data, DoneHandler on_done) {
  std::vector<mal::Buffer> shards = Encode(data, k_);
  uint64_t stamp = Checksum(data.View());
  std::vector<rados::RadosClient::TargetedOp> ops;
  ops.reserve(shards.size() * 5);
  for (uint32_t i = 0; i < shards.size(); ++i) {
    AppendShardWrite(&ops, object, i,
                     rados::RadosClient::MakeExecOp("ec", "check_epoch", U64Input(epoch_)),
                     shards[i], data.size(), stamp);
  }
  Submit(std::move(ops), std::move(on_done));
}

void Pool::Fill(const std::string& object, const mal::Buffer& data,
                const std::vector<ShardInfo>& seen, DoneHandler on_done) {
  std::vector<mal::Buffer> shards = Encode(data, k_);
  uint64_t stamp = Checksum(data.View());
  std::vector<rados::RadosClient::TargetedOp> ops;
  for (uint32_t i = 0; i < shards.size(); ++i) {
    if (seen[i].valid && seen[i].stamp == stamp) {
      continue;  // already holds a valid copy of this generation
    }
    AppendShardWrite(&ops, object, i,
                     rados::RadosClient::MakeExecOp("ec", "check_stamp",
                                                    U64Input(seen[i].stamp)),
                     shards[i], data.size(), stamp);
  }
  Submit(std::move(ops), std::move(on_done));
}

namespace {

// True once the valid shards sharing one stamp are at least k and a strict
// majority of the k+1: no reply still missing can then change the
// generation SelectGeneration picks, nor the bytes it decodes to.
bool Settled(const std::vector<ShardInfo>& shards, uint32_t k) {
  for (const ShardInfo& a : shards) {
    uint32_t agree = 0;
    for (const ShardInfo& b : shards) {
      agree += a.valid && b.valid && b.stamp == a.stamp ? 1 : 0;
    }
    if (agree >= k && 2 * agree > shards.size()) {
      return true;
    }
  }
  return false;
}

}  // namespace

void Pool::Gather(const std::string& object, ShardsPredicate done, GatherHandler on_done,
                  GatherHandler on_last) const {
  struct State {
    std::vector<ShardInfo> shards;
    uint32_t pending = 0;
    ShardsPredicate done;
    GatherHandler on_done;  // cleared once it has run
    GatherHandler on_last;
  };
  auto state = std::make_shared<State>();
  state->shards.resize(num_shards());
  state->pending = num_shards();
  state->done = std::move(done);
  state->on_done = std::move(on_done);
  state->on_last = std::move(on_last);
  for (uint32_t i = 0; i < num_shards(); ++i) {
    std::vector<osd::Op> ops(4);
    ops[0].type = osd::Op::Type::kRead;
    ops[1].type = osd::Op::Type::kXattrGet;
    ops[1].key = kShardSizeXattr;
    ops[2].type = osd::Op::Type::kXattrGet;
    ops[2].key = kShardCksumXattr;
    ops[3].type = osd::Op::Type::kXattrGet;
    ops[3].key = kShardStampXattr;
    rados_->Execute(ShardOid(object, i), std::move(ops),
                    [state, i](mal::Status status, const osd::OsdOpReply& reply) {
                      bool complete = status.ok() && reply.results.size() == 4;
                      for (size_t r = 0; complete && r < reply.results.size(); ++r) {
                        complete = reply.results[r].status.ok();
                      }
                      if (complete) {
                        ShardInfo& info = state->shards[i];
                        info.present = true;
                        info.data = reply.results[0].out;
                        info.size = ParseU64(reply.results[1].out.ToString());
                        uint64_t cksum = ParseU64(reply.results[2].out.ToString());
                        info.stamp = ParseU64(reply.results[3].out.ToString());
                        info.valid = Checksum(info.data.View()) == cksum;
                      }
                      bool last = --state->pending == 0;
                      if (last && state->on_last) {
                        state->on_last(state->shards);
                      }
                      bool decide = last || (state->done && state->done(state->shards));
                      if (decide && state->on_done) {
                        GatherHandler handler = std::move(state->on_done);
                        state->on_done = nullptr;
                        handler(state->shards);
                      }
                    });
  }
}

void Pool::GatherShards(const std::string& object, GatherHandler on_done) {
  Gather(object, nullptr, std::move(on_done), nullptr);
}

void Pool::Read(const std::string& object, DataHandler on_data) {
  auto settled = [k = k_](const std::vector<ShardInfo>& shards) {
    return Settled(shards, k);
  };
  auto decode = [on_data](const std::vector<ShardInfo>& shards) {
    uint64_t size = 0;
    uint32_t missing = 0;
    auto generation = SelectGeneration(shards, &size, &missing);
    if (missing == generation.size()) {
      on_data(mal::Status::NotFound("no readable shards"), mal::Buffer());
      return;
    }
    auto decoded = Decode(generation, size);
    if (!decoded.ok()) {
      on_data(decoded.status(), mal::Buffer());
      return;
    }
    on_data(mal::Status::Ok(), decoded.value());
  };
  // Judged on all k+1 replies, also when the read answered early.
  auto count_degraded = [rados = rados_](const std::vector<ShardInfo>& shards) {
    uint64_t size = 0;
    uint32_t missing = 0;
    SelectGeneration(shards, &size, &missing);
    if (missing > 0 && missing < shards.size() && rados->perf() != nullptr) {
      rados->perf()->Inc("rados.ec.degraded_reads");
    }
  };
  Gather(object, std::move(settled), std::move(decode), std::move(count_degraded));
}

void Pool::Seal(const std::string& object, uint64_t epoch, DoneHandler on_done) {
  auto pending = std::make_shared<uint32_t>(num_shards());
  auto first_error = std::make_shared<mal::Status>();
  for (uint32_t i = 0; i < num_shards(); ++i) {
    std::vector<osd::Op> ops;
    ops.push_back(rados::RadosClient::MakeExecOp("ec", "seal", U64Input(epoch)));
    rados_->Execute(ShardOid(object, i), std::move(ops),
                    [this, epoch, pending, first_error, on_done](
                        mal::Status status, const osd::OsdOpReply& reply) {
                      mal::Status op_status = status;
                      if (status.ok()) {
                        for (const osd::OpResult& result : reply.results) {
                          if (!result.status.ok()) {
                            op_status = result.status;
                          }
                        }
                      }
                      if (!op_status.ok() && first_error->ok()) {
                        *first_error = op_status;
                      }
                      if (--*pending == 0) {
                        if (first_error->ok()) {
                          epoch_ = epoch;
                        }
                        on_done(*first_error);
                      }
                    });
  }
}

size_t Pool::ListObjects(ListHandler on_list) {
  std::string prefix = name_ + "/";
  size_t asked = 0;
  for (const auto& [id, info] : rados_->osd_map().osds) {
    if (!info.up) {
      continue;
    }
    ++asked;
    rados_->ListObjects(
        id, prefix,
        [prefix, on_list](mal::Status status, std::vector<std::string> oids) {
          std::vector<std::string> objects;
          for (const std::string& oid : oids) {
            auto ref = osd::ParseEcShardOid(oid);
            if (ref.has_value() && ref->logical_oid.starts_with(prefix)) {
              objects.push_back(ref->logical_oid.substr(prefix.size()));
            }
          }
          // One OSD may hold two slots of an object after a membership change.
          std::sort(objects.begin(), objects.end());
          objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
          on_list(status, std::move(objects));
        });
  }
  return asked;
}

}  // namespace mal::ec
