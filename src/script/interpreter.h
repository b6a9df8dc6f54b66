// Tree-walking interpreter for MalScript with sandboxed execution.
//
// Usage:
//   Interpreter interp;
//   interp.RegisterHostFunction("now", ...);
//   auto chunk = Compile("function f(x) return x*2 end");
//   interp.Run(*chunk);                 // defines f in globals
//   auto r = interp.CallGlobal("f", {Value(21.0)});   // 42
//
// Sandboxing (paper §4: "the flexibility of the runtime allows execution
// sandboxing in order to address security and performance concerns"):
// every evaluated AST node consumes one unit of instruction budget; scripts
// exceeding the budget are aborted with kAborted. The host environment is
// only reachable through explicitly registered host functions.
#ifndef MALACOLOGY_SCRIPT_INTERPRETER_H_
#define MALACOLOGY_SCRIPT_INTERPRETER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/perf.h"
#include "src/common/status.h"
#include "src/script/ast.h"
#include "src/script/value.h"

namespace mal::script {

class Vm;
struct CompiledChunk;

// Closure calls deeper than this abort with "call stack overflow". Shared by
// the tree-walker and the bytecode VM (one counter, so mixed-engine and
// host-reentrant call chains are bounded together).
inline constexpr int kMaxScriptCallDepth = 200;

// Lexical environment: chain of scopes. Closures capture their defining
// environment by shared_ptr.
class Environment : public std::enable_shared_from_this<Environment> {
 public:
  explicit Environment(std::shared_ptr<Environment> parent = nullptr)
      : parent_(std::move(parent)) {}

  // Looks up through the chain; nil if absent anywhere.
  Value Get(const std::string& name) const;

  // Assigns to the nearest scope that defines `name`; if none, defines a
  // global (walks to the root), matching Lua semantics.
  void Set(const std::string& name, Value value);

  // Defines in this scope (local declaration / parameter binding).
  void Define(const std::string& name, Value value);

  bool Has(const std::string& name) const;

  // Names defined directly in this scope (not parents). Used to discover
  // the methods a script class chunk defines.
  std::vector<std::string> LocalNames() const;
  const std::map<std::string, Value>& local_vars() const { return vars_; }

  // Slot pointers for the VM's global caches. Map nodes are stable, and
  // globals are never erased, so a returned pointer stays valid for the
  // environment's lifetime.
  Value* FindLocalSlot(const std::string& name);
  Value* DefineSlot(const std::string& name);

 private:
  std::shared_ptr<Environment> parent_;
  std::map<std::string, Value> vars_;
};

// A script function. Two forms behind one type: the tree-walker's AST form
// (body + captured environment) and the VM's compiled form (proto index into
// a chunk + captured cells). Either engine can call either form.
class Closure {
 public:
  Closure(std::vector<std::string> params, bool is_vararg, std::shared_ptr<Block> body,
          std::shared_ptr<Environment> env)
      : params_(std::move(params)),
        is_vararg_(is_vararg),
        body_(std::move(body)),
        env_(std::move(env)) {}

  Closure(std::shared_ptr<const CompiledChunk> chunk, uint32_t proto_index,
          std::vector<std::shared_ptr<Value>> upvals)
      : is_vararg_(false),
        chunk_(std::move(chunk)),
        proto_index_(proto_index),
        upvals_(std::move(upvals)) {}

  bool is_compiled() const { return chunk_ != nullptr; }

  // AST form.
  const std::vector<std::string>& params() const { return params_; }
  bool is_vararg() const { return is_vararg_; }
  const std::shared_ptr<Block>& body() const { return body_; }
  const std::shared_ptr<Environment>& env() const { return env_; }

  // Compiled form.
  const std::shared_ptr<const CompiledChunk>& chunk() const { return chunk_; }
  uint32_t proto_index() const { return proto_index_; }
  const std::vector<std::shared_ptr<Value>>& upvals() const { return upvals_; }

 private:
  std::vector<std::string> params_;
  bool is_vararg_;
  std::shared_ptr<Block> body_;
  std::shared_ptr<Environment> env_;

  std::shared_ptr<const CompiledChunk> chunk_;
  uint32_t proto_index_ = 0;
  std::vector<std::shared_ptr<Value>> upvals_;
};

// Compiles source to an AST chunk with the register-bytecode translation
// attached (Block::compiled). Results are cached process-wide by source
// text, so daemons installing the same interface version share one chunk.
Result<std::shared_ptr<Block>> Compile(const std::string& source);

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
  // Which engine executes compiled chunks. kAuto prefers the bytecode VM
  // (unless MAL_SCRIPT_ORACLE=1 forces the tree-walker process-wide);
  // kOracle pins the tree-walker; kVm pins the VM (still falls back to the
  // walker for chunks with no attached bytecode).
  enum class Engine { kAuto, kVm, kOracle };

  Interpreter();
  ~Interpreter();

  // Hard cap on budget units consumed per top-level Run/Call (AST nodes on
  // the tree-walker, bytecode ops on the VM). 0 = unlimited.
  void set_instruction_budget(uint64_t budget) { instruction_budget_ = budget; }
  uint64_t instructions_executed() const { return instructions_executed_; }

  void set_engine(Engine e) { engine_ = e; }
  Engine engine() const { return engine_; }

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
  Status Run(const Block& chunk);

  // Compiles and runs source.
  Status RunSource(const std::string& source);

  // Calls a global function by name.
  Result<Value> CallGlobal(const std::string& name, const std::vector<Value>& args);

  // Calls any callable value.
  Result<Value> Call(const Value& callee, const std::vector<Value>& args);

 private:
  friend class Evaluator;
  friend class Vm;

  // True when compiled chunks should run on the VM.
  bool UseVm() const;

  // Lazily constructs the VM (it holds the value stack and per-chunk caches).
  Vm& EnsureVm();

  // Walker entry used by the VM when it calls an AST-form closure.
  Result<Value> CallAstClosureFromVm(const Value& callee, const std::vector<Value>& args,
                                     int line);

  std::shared_ptr<Environment> globals_;
  uint64_t instruction_budget_ = 10'000'000;
  uint64_t instructions_executed_ = 0;
  std::vector<std::string> print_output_;
  size_t print_limit_ = 10'000;
  int call_depth_ = 0;
  Engine engine_ = Engine::kAuto;
  EngineStats stats_;
  std::shared_ptr<Vm> vm_;
};

}  // namespace mal::script

#endif  // MALACOLOGY_SCRIPT_INTERPRETER_H_
