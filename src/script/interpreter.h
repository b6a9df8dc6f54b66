// MalScript interpreter: globals, host functions and sandbox limits around
// the bytecode VM (src/script/vm.h).
//
// Usage:
//   Interpreter interp;
//   interp.RegisterHostFunction("now", ...);
//   auto chunk = Compile("function f(x) return x*2 end");
//   interp.Run(chunk.value());          // defines f in globals
//   auto r = interp.CallGlobal("f", {Value(21.0)});   // 42
//
// Sandboxing (paper §4: "the flexibility of the runtime allows execution
// sandboxing in order to address security and performance concerns"):
// every executed bytecode op consumes one unit of instruction budget;
// scripts exceeding the budget are aborted with kAborted. The host
// environment is only reachable through explicitly registered host
// functions.
#ifndef MALACOLOGY_SCRIPT_INTERPRETER_H_
#define MALACOLOGY_SCRIPT_INTERPRETER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/perf.h"
#include "src/common/status.h"
#include "src/script/value.h"

namespace mal::script {

class Vm;
struct CompiledChunk;

// Closure calls deeper than this abort with "call stack overflow". One
// counter per interpreter, so host-reentrant call chains are bounded too.
inline constexpr int kMaxScriptCallDepth = 200;

// The global variable table. Scripts have no scope chain at run time: locals
// live in VM registers and captured cells, so only globals need a map.
class Environment {
 public:
  // nil if absent.
  Value Get(const std::string& name) const;

  // Defines or overwrites a global.
  void Define(const std::string& name, Value value);

  // Names defined here. Used to discover the methods a script class chunk
  // defines.
  std::vector<std::string> LocalNames() const;
  const std::map<std::string, Value>& local_vars() const { return vars_; }

  // Slot pointers for the VM's global caches. Map nodes are stable, and
  // globals are never erased, so a returned pointer stays valid for the
  // environment's lifetime.
  Value* FindLocalSlot(const std::string& name);
  Value* DefineSlot(const std::string& name);

 private:
  std::map<std::string, Value> vars_;
};

// A script function: a proto index into a compiled chunk plus the captured
// cells it closes over.
class Closure {
 public:
  Closure(std::shared_ptr<const CompiledChunk> chunk, uint32_t proto_index,
          std::vector<std::shared_ptr<Value>> upvals)
      : chunk_(std::move(chunk)), proto_index_(proto_index), upvals_(std::move(upvals)) {}

  const std::shared_ptr<const CompiledChunk>& chunk() const { return chunk_; }
  uint32_t proto_index() const { return proto_index_; }
  const std::vector<std::shared_ptr<Value>>& upvals() const { return upvals_; }

 private:
  std::shared_ptr<const CompiledChunk> chunk_;
  uint32_t proto_index_ = 0;
  std::vector<std::shared_ptr<Value>> upvals_;
};

// Parses and compiles source to register bytecode. Parse errors and
// programs past the compiler's limits (e.g. more than 60,000 live locals in
// one function) come back as InvalidArgument. Results are cached
// process-wide by source text, so daemons installing the same interface
// version share one chunk.
Result<std::shared_ptr<const CompiledChunk>> Compile(const std::string& source);

// Process-wide Compile() cache statistics (exported as script.compile_cache.*).
struct CompileCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};
CompileCacheStats GetCompileCacheStats();

// Per-interpreter execution statistics, exported through
// mal::ExportScriptCounters by the daemons that run scripts.
using EngineStats = mal::ScriptCounters;

class Interpreter {
 public:
  Interpreter();
  ~Interpreter();

  // Hard cap on bytecode ops executed per top-level Run/Call. 0 = unlimited.
  void set_instruction_budget(uint64_t budget) { instruction_budget_ = budget; }
  uint64_t instructions_executed() const { return instructions_executed_; }

  // Cumulative counters across this interpreter's lifetime.
  const EngineStats& stats() const { return stats_; }

  std::shared_ptr<Environment> globals() { return globals_; }

  void SetGlobal(const std::string& name, Value v) { globals_->Define(name, v); }
  Value GetGlobal(const std::string& name) const { return globals_->Get(name); }
  void RegisterHostFunction(const std::string& name, HostFunction fn);

  // Lines emitted by the script's print(); the host decides where they go
  // (e.g. the monitor's centralized cluster log). Bounded: once the buffer
  // holds print_limit lines further prints are dropped and counted, so
  // persistent interpreters (Mantle, health rules) can't grow without bound
  // between host drains.
  std::vector<std::string>& print_output() { return print_output_; }
  void set_print_limit(size_t limit) { print_limit_ = limit; }
  size_t print_limit() const { return print_limit_; }
  void NotePrintDropped() { ++stats_.print_dropped; }

  // Executes a chunk in the global environment.
  Status Run(const std::shared_ptr<const CompiledChunk>& chunk);

  // Compiles and runs source.
  Status RunSource(const std::string& source);

  // Calls a global function by name.
  Result<Value> CallGlobal(const std::string& name, const std::vector<Value>& args);

  // Calls any callable value.
  Result<Value> Call(const Value& callee, const std::vector<Value>& args);

 private:
  friend class Vm;

  // Lazily constructs the VM (it holds the value stack and per-chunk caches).
  Vm& EnsureVm();

  std::shared_ptr<Environment> globals_;
  uint64_t instruction_budget_ = 10'000'000;
  uint64_t instructions_executed_ = 0;
  std::vector<std::string> print_output_;
  size_t print_limit_ = 10'000;
  int call_depth_ = 0;
  EngineStats stats_;
  std::shared_ptr<Vm> vm_;
};

}  // namespace mal::script

#endif  // MALACOLOGY_SCRIPT_INTERPRETER_H_
