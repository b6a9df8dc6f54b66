// Substrate microbenchmarks (google-benchmark): the building blocks every
// experiment sits on — wire encoding, the script interpreter, the object
// store, placement, and in-memory Paxos commits.
#include <benchmark/benchmark.h>

#include "src/cls/builtin.h"
#include "src/common/buffer.h"
#include "src/consensus/paxos.h"
#include "src/osd/object_store.h"
#include "src/osd/placement.h"
#include "src/script/interpreter.h"

namespace {

void BM_EncodeDecodeRoundTrip(benchmark::State& state) {
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    mal::Buffer buffer;
    mal::Encoder enc(&buffer);
    enc.PutU64(42);
    enc.PutString(payload);
    mal::Decoder dec(buffer);
    benchmark::DoNotOptimize(dec.GetU64());
    benchmark::DoNotOptimize(dec.GetString());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EncodeDecodeRoundTrip)->Arg(64)->Arg(4096)->Arg(65536);

void BM_ScriptFibonacci(benchmark::State& state) {
  mal::script::Interpreter interp;
  auto status = interp.RunSource(
      "function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end");
  if (!status.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  for (auto _ : state) {
    auto result = interp.CallGlobal("fib", {mal::script::Value(15.0)});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ScriptFibonacci);

void BM_ScriptMantlePolicyTick(benchmark::State& state) {
  mal::script::Interpreter interp;
  auto table = mal::script::Table::Make();
  auto row = mal::script::Table::Make();
  row->Set(mal::script::TableKey("load"), mal::script::Value(123.0));
  table->Set(mal::script::TableKey(0.0), mal::script::Value(row));
  interp.SetGlobal("mds", mal::script::Value(table));
  interp.SetGlobal("whoami", mal::script::Value(0.0));
  interp.SetGlobal("targets", mal::script::Value(mal::script::Table::Make()));
  auto chunk = mal::script::Compile("targets[whoami+1] = mds[whoami]['load']/2");
  if (!chunk.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp.Run(chunk.value()));
  }
}
BENCHMARK(BM_ScriptMantlePolicyTick);

void BM_ObjectStoreWriteRead(benchmark::State& state) {
  mal::osd::ObjectStore store;
  std::vector<mal::osd::OpResult> results;
  mal::osd::Op write;
  write.type = mal::osd::Op::Type::kWriteFull;
  write.data = mal::Buffer::FromString(std::string(1024, 'd'));
  mal::osd::Op read;
  read.type = mal::osd::Op::Type::kRead;
  int i = 0;
  for (auto _ : state) {
    std::string oid = "obj" + std::to_string(i++ % 64);
    benchmark::DoNotOptimize(store.ApplyTransaction(oid, {write}, &results));
    benchmark::DoNotOptimize(store.ApplyTransaction(oid, {read}, &results));
  }
}
BENCHMARK(BM_ObjectStoreWriteRead);

void BM_ZlogClassWrite(benchmark::State& state) {
  mal::cls::ClassRegistry registry;
  mal::cls::RegisterBuiltinClasses(&registry);
  mal::osd::TxnObject staged(nullptr);
  uint64_t pos = 0;
  mal::Buffer entry = mal::Buffer::FromString(std::string(256, 'e'));
  for (auto _ : state) {
    std::vector<mal::osd::Op> effects;
    mal::cls::ClsContext ctx("log.0", &staged, &effects);
    benchmark::DoNotOptimize(registry.Execute(
        "zlog", "write", ctx, mal::cls::ZlogOps::MakeWrite(0, pos++, entry)));
  }
}
BENCHMARK(BM_ZlogClassWrite);

void BM_PlacementLookup(benchmark::State& state) {
  mal::mon::OsdMap map;
  map.pg_count = 1024;
  for (uint32_t i = 0; i < static_cast<uint32_t>(state.range(0)); ++i) {
    map.osds[i] = {true, 1.0};
  }
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mal::osd::OsdsForObject("object-" + std::to_string(i++ % 1000), map, 3));
  }
}
BENCHMARK(BM_PlacementLookup)->Arg(10)->Arg(120);

void BM_PaxosCommit(benchmark::State& state) {
  // Three in-memory nodes with immediate delivery: measures protocol CPU.
  std::vector<std::unique_ptr<mal::consensus::PaxosNode>> nodes;
  std::vector<std::pair<uint32_t, mal::consensus::PaxosMessage>> queue;
  uint64_t committed = 0;
  std::vector<uint32_t> members = {0, 1, 2};
  for (uint32_t i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<mal::consensus::PaxosNode>(
        i, members,
        [&queue](uint32_t peer, const mal::consensus::PaxosMessage& msg) {
          queue.emplace_back(peer, msg);
        },
        [&committed](uint64_t, const mal::Buffer&) { ++committed; }));
  }
  auto drain = [&] {
    while (!queue.empty()) {
      auto [to, msg] = std::move(queue.front());
      queue.erase(queue.begin());
      nodes[to]->HandleMessage(msg);
    }
  };
  nodes[0]->StartElection();
  drain();
  mal::Buffer value = mal::Buffer::FromString(std::string(128, 'v'));
  for (auto _ : state) {
    nodes[0]->Propose(value);
    drain();
  }
  benchmark::DoNotOptimize(committed);
}
BENCHMARK(BM_PaxosCommit);

}  // namespace

BENCHMARK_MAIN();
