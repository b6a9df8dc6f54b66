// A sample value of every wire type, each with its encoding pinned in hex.
//
// The hex strings were captured from the hand-written Encode methods and
// inline encoders that the field lists replaced, so a test that compares
// mal::Encode(sample) against them proves the field lists put the very same
// bytes. The codec table (common_test) and the decoder fuzz (model_test)
// both walk this list, so a new wire type needs one line here.
#ifndef MALACOLOGY_TESTS_WIRE_SAMPLES_H_
#define MALACOLOGY_TESTS_WIRE_SAMPLES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/cls/builtin.h"
#include "src/common/buffer.h"
#include "src/common/perf.h"
#include "src/consensus/paxos.h"
#include "src/mds/types.h"
#include "src/mon/maps.h"
#include "src/mon/messages.h"
#include "src/osd/messages.h"
#include "src/osd/object_store.h"
#include "src/sim/network.h"
#include "src/telemetry/series.h"

namespace mal::wire_samples {

// Lowercase hex, two digits a byte, except that a run of 16 or more equal
// bytes (a bulk field) prints as "[xx*n]".
inline std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < bytes.size();) {
    size_t run = 1;
    while (i + run < bytes.size() && bytes[i + run] == bytes[i]) {
      ++run;
    }
    auto b = static_cast<unsigned char>(bytes[i]);
    std::string pair{kDigits[b >> 4], kDigits[b & 15]};
    if (run >= 16) {
      out += "[" + pair + "*" + std::to_string(run) + "]";
      i += run;
    } else {
      out += pair;
      ++i;
    }
  }
  return out;
}

// Calls visit(name, value, hex) once per wire type, `hex` in ToHex's form.
template <typename Visit>
void ForEachWireSample(Visit&& visit) {
  osd::Op write;
  write.type = osd::Op::Type::kWriteFull;
  write.data = Buffer::FromString(std::string(4096, 'w'));
  osd::Op omap;
  omap.type = osd::Op::Type::kOmapSet;
  omap.key = "entry.00000000000000000007";
  omap.value = std::string(300, 'v');
  osd::Op exec;
  exec.type = osd::Op::Type::kExec;
  exec.cls_name = "zlog";
  exec.method = "write_batch";
  exec.offset = 1ULL << 40;
  exec.data = Buffer::FromString("input");
  osd::OsdOpRequest op_request;
  op_request.oid = "rbd_data.0000000000000042";
  op_request.ops = {write, omap, exec};

  osd::OsdOpReply op_reply;
  op_reply.map_epoch = 77;
  op_reply.results.push_back({Status::Ok(), Buffer::FromString(std::string(1400, 'r'))});
  op_reply.results.push_back({Status::StaleEpoch("sealed at 9"), Buffer()});

  osd::Object object;
  object.data = Buffer::FromString("stripe");
  object.omap.Set("e1", "one");
  object.omap.Set("e0", "zero");
  object.xattrs.Set("zlog.epoch", "3");
  object.snapshots["snap"] = Buffer::FromString("old");
  object.version = 9;

  mds::LeasePolicy policy;
  policy.mode = mds::LeaseMode::kQuota;
  policy.max_hold_ns = 1'000'000;
  policy.quota = 64;

  mds::Inode inode;
  inode.ino = 9;
  inode.type = mds::InodeType::kSequencer;
  inode.size = 4096;
  inode.seq_tail = 4242;
  inode.lease_policy = policy;
  inode.params = {{"epoch", "3"}, {"seq.owner", "mds.1"}, {"stripe_width", "8"}};

  mds::ClientRequest client_request;
  client_request.op = mds::MdsOp::kCreate;
  client_request.path = "/logs/a";
  client_request.inode_type = mds::InodeType::kSequencer;
  client_request.policy = policy;
  client_request.seq_value = 16;
  client_request.params = {{"stripe_width", "4"}};

  mds::MdsReply mds_reply;
  mds_reply.seq_value = 123456789;
  mds_reply.terms.mode = mds::LeaseMode::kQuota;
  mds_reply.terms.quota = 64;
  mds_reply.grant_time_ns = 5'000'000'000;
  mds_reply.inode.ino = 9;
  mds_reply.inode.type = mds::InodeType::kSequencer;
  mds_reply.inode.seq_tail = 4242;
  mds_reply.inode.params = {{"epoch", "3"}, {"seq.owner", "mds.1"}, {"stripe_width", "8"}};

  mds::LoadMetrics load;
  load.req_rate = 1250.5;
  load.cpu = 0.75;
  load.load = 2.5;
  load.subtree_rate = {{"/a", 10.0}, {"/logs/seq", 900.25}};
  load.seq_paths = {"/logs/seq"};

  mon::Transaction txn;
  txn.op = mon::Transaction::Op::kSetServiceMetadata;
  txn.map_kind = mon::MapKind::kMdsMap;
  txn.daemon_id = 3;
  txn.key = "seq.owner./logs/seq";
  txn.value = "1";
  mon::Transaction boot;
  boot.op = mon::Transaction::Op::kOsdBoot;
  boot.daemon_id = 5;

  sim::EntityName subscriber = sim::EntityName::Osd(4);
  mon::SubscribeRequest subscribe;
  subscribe.kind = mon::MapKind::kMdsMap;
  subscribe.have_epoch = 17;
  subscribe.subscriber = subscriber;

  mon::OsdMap osd_map;
  osd_map.epoch = 12;
  osd_map.pg_count = 64;
  osd_map.osds[0] = {true, 1.0};
  osd_map.osds[1] = {false, 0.5};
  osd_map.service_metadata = {{"pool.ec", "ec:3"}, {"cls.src.demo", std::string(200, 's')}};
  mon::MapUpdate map_update;
  map_update.kind = mon::MapKind::kOsdMap;
  map_update.map_payload = Encode(osd_map);

  mon::MdsMap mds_map;
  mds_map.epoch = 6;
  mds_map.mds[10] = {mon::MdsState::kActive, 0};
  mds_map.mds[11] = {mon::MdsState::kStandby, -1};
  mds_map.service_metadata = {{"seq.owner./logs/seq", "0"}};

  mon::QuerySeriesRequest query;
  query.entity = "osd.2";
  query.metric = "osd.op.write.latency_us.p99";
  query.resolution = 1;
  query.since_ns = 30'000'000'000;

  mon::ClusterLogEntry log_entry;
  log_entry.time_ns = 7'000'000'000;
  log_entry.seq = 4;
  log_entry.source = "mon.0";
  log_entry.severity = "WARN";
  log_entry.message = "osd.3 down";

  consensus::PaxosMessage promise;
  promise.type = consensus::PaxosMsgType::kPromise;
  promise.from = 2;
  promise.ballot = (5ULL << 16) | 2;
  promise.instance = 40;
  promise.committed_through = 38;
  promise.accepted_tail.push_back({38, (4ULL << 16) | 1, Buffer::FromString("txn-batch-a")});
  promise.accepted_tail.push_back({39, (4ULL << 16) | 1, Buffer::FromString("txn-batch-b")});

  telemetry::Window window{1'000'000'000, 12, 0.5, 910.25, 2048.0, 31.0};
  telemetry::Window later{2'000'000'000, 1, 7.0, 7.0, 7.0, 7.0};

  PerfSnapshot perf;
  perf.entity = "osd.1";
  perf.time_ns = 99;
  perf.counters = {{"osd.op.count", 12}};
  perf.gauges = {{"osd.queue", 1.5}};
  perf.histograms["osd.lat"] = {{1.0, 2.5}, 2, 1.0, 2.5};

  osd::WatchRequest watch{"obj.1", true};
  osd::NotifyEvent notify{"obj.1", 33};
  osd::ListObjectsRequest list{"rbd_data."};
  osd::ListObjectsReply listed{{"a", "bc"}};
  osd::PullObjectRequest pull{"obj.1"};
  mds::CapRevoke revoke{"/logs/seq"};
  mds::AuthorityUpdate authority{"/a/b", 2};
  mds::MigrateRequest migrate{"/logs/seq", true, inode};
  mds::LoadReport load_report{1, load};
  mon::ProposalValue proposal{8, 1, {txn, boot}};
  mon::GetMapRequest get_map{mon::MapKind::kMdsMap};
  mon::KeepaliveAck keepalive_ack{12, 7};
  mon::QuerySeriesReply series{{window, later}};
  std::vector<mon::ClusterLogEntry> cluster_log{log_entry, log_entry};
  cls::ZlogEntry zlog_entry{cls::ZlogEntryState::kWritten, Buffer::FromString("entry")};
  std::vector<Code> write_batch_codes{Code::kOk, Code::kReadOnly, Code::kOk};

  visit("osd::Op", exec,
        "0f000000000000010000000000000000000005696e7075740000047a6c6f670b77726974655f626174"
        "6368");
  visit("osd::OsdOpRequest", op_request,
        "197262645f646174612e303030303030303030303030303034320304[00*17]8020[77*4096]000000"
        "0009[00*18]1a656e7472792e[30*19]37ac02[76*300]00000f000000000000010000000000000000"
        "000005696e7075740000047a6c6f670b77726974655f6261746368");
  visit("osd::OsdOpReply", op_reply,
        "4d00000000000000020000000000f80a[72*1400]050000000b7365616c6564206174203900");
  visit("osd::WatchRequest", watch, "056f626a2e3101");
  visit("osd::NotifyEvent", notify, "056f626a2e312100000000000000");
  visit("osd::ListObjectsRequest", list, "097262645f646174612e");
  visit("osd::ListObjectsReply", listed, "020161026263");
  visit("osd::PullObjectRequest", pull, "056f626a2e31");
  visit("osd::Omap", object.omap, "02026530047a65726f026531036f6e65");
  visit("osd::Object", object,
        "0673747269706502026530047a65726f026531036f6e65010a7a6c6f672e65706f636801330104736e"
        "6170036f6c640900000000000000");
  visit("mds::LeasePolicy", policy, "0240420f00000000004000000000000000");
  visit("mds::Inode", inode,
        "090000000000000002001000000000000092100000000000000240420f000000000040000000000000"
        "00030565706f63680133097365712e6f776e6572056d64732e310c7374726970655f77696474680138");
  visit("mds::ClientRequest", client_request,
        "01072f6c6f67732f61020240420f000000000040000000000000001000000000000000010c73747269"
        "70655f77696474680134");
  visit("mds::MdsReply", mds_reply,
        "15cd5b07000000000280b2e60e00000000400000000000000000f2052a010000000900000000000000"
        "02000000000000000092100000000000000080b2e60e000000000000000000000000030565706f6368"
        "0133097365712e6f776e6572056d64732e310c7374726970655f77696474680138");
  visit("mds::LoadMetrics", load,
        "00000000008a9340000000000000e83f000000000000044002022f610000000000002440092f6c6f67"
        "732f7365710000000000228c4001092f6c6f67732f736571");
  visit("mds::CapRevoke", revoke, "092f6c6f67732f736571");
  visit("mds::AuthorityUpdate", authority, "042f612f6202000000");
  visit("mds::MigrateRequest", migrate,
        "092f6c6f67732f73657101090000000000000002001000000000000092100000000000000240420f00"
        "000000004000000000000000030565706f63680133097365712e6f776e6572056d64732e310c737472"
        "6970655f77696474680138");
  visit("mds::LoadReport", load_report,
        "0100000000000000008a9340000000000000e83f000000000000044002022f61000000000000244009"
        "2f6c6f67732f7365710000000000228c4001092f6c6f67732f736571");
  visit("mon::Transaction", txn, "000103000000137365712e6f776e65722e2f6c6f67732f7365710131");
  visit("mon::ProposalValue", proposal,
        "08000000000000000100000002000103000000137365712e6f776e65722e2f6c6f67732f7365710131"
        "0100050000000000");
  visit("mon::GetMapRequest", get_map, "01");
  visit("mon::SubscribeRequest", subscribe, "0111000000000000000104000000");
  visit("mon::KeepaliveAck", keepalive_ack, "0c000000000000000700000000000000");
  visit("mon::MapUpdate", map_update,
        "008c020c0000000000000040000000020000000001000000000000f03f0100000000000000000000e0"
        "3f020c636c732e7372632e64656d6fc801[73*200]07706f6f6c2e65630465633a33");
  visit("mon::QuerySeriesRequest", query,
        "056f73642e321b6f73642e6f702e77726974652e6c6174656e63795f75732e7039390100ac23fc0600"
        "0000");
  visit("mon::QuerySeriesReply", series,
        "0200ca9a3b000000000c00000000000000000000000000e03f0000000000728c40000000000000a040"
        "0000000000003f40009435770000000001000000000000000000000000001c400000000000001c4000"
        "00000000001c400000000000001c40");
  visit("mon::ClusterLogEntry", log_entry,
        "00863ba1010000000400000000000000056d6f6e2e30045741524e0a6f73642e3320646f776e");
  visit("cluster log", cluster_log,
        "0200863ba1010000000400000000000000056d6f6e2e30045741524e0a6f73642e3320646f776e0086"
        "3ba1010000000400000000000000056d6f6e2e30045741524e0a6f73642e3320646f776e");
  visit("mon::OsdMap", osd_map,
        "0c0000000000000040000000020000000001000000000000f03f0100000000000000000000e03f020c"
        "636c732e7372632e64656d6fc801[73*200]07706f6f6c2e65630465633a33");
  visit("mon::MdsMap", mds_map,
        "0600000000000000020a0000000100000000000000000b00000000ffffffffffffffff01137365712e"
        "6f776e65722e2f6c6f67732f7365710130");
  visit("consensus::PaxosMessage", promise,
        "0102000000020005000000000028000000000000000002260000000000000001000400000000000b74"
        "786e2d62617463682d61270000000000000001000400000000000b74786e2d62617463682d62260000"
        "0000000000");
  visit("telemetry::Window", window,
        "00ca9a3b000000000c00000000000000000000000000e03f0000000000728c40000000000000a04000"
        "00000000003f40");
  visit("PerfSnapshot", perf,
        "056f73642e316300000000000000010c6f73642e6f702e636f756e740c0000000000000001096f7364"
        "2e7175657565000000000000f83f01076f73642e6c61740200000000000000000000000000f03f0000"
        "00000000044002000000000000f03f0000000000000440");
  visit("sim::EntityName", subscriber, "0104000000");
  visit("cls::ZlogEntry", zlog_entry, "0105656e747279");
  visit("write_batch result", write_batch_codes, "03000000000600000000000000");
}

}  // namespace mal::wire_samples

#endif  // MALACOLOGY_TESTS_WIRE_SAMPLES_H_
