#include "src/script/interpreter.h"

#include "src/script/compiler.h"
#include "src/script/parser.h"
#include "src/script/stdlib.h"
#include "src/script/vm.h"

namespace mal::script {

Value Environment::Get(const std::string& name) const {
  auto it = vars_.find(name);
  return it == vars_.end() ? Value::Nil() : it->second;
}

void Environment::Define(const std::string& name, Value value) {
  vars_[name] = std::move(value);
}

std::vector<std::string> Environment::LocalNames() const {
  std::vector<std::string> names;
  names.reserve(vars_.size());
  for (const auto& [name, value] : vars_) {
    names.push_back(name);
  }
  return names;
}

Value* Environment::FindLocalSlot(const std::string& name) {
  auto it = vars_.find(name);
  return it == vars_.end() ? nullptr : &it->second;
}

Value* Environment::DefineSlot(const std::string& name) { return &vars_[name]; }

namespace {

// Process-wide Compile() cache. Daemons re-install the same interface source
// on every version bump and health rules recompile per tick; keying by source
// text means each distinct script pays for parsing + bytecode translation
// once. Bounded: on overflow the whole map is dropped (chunks stay alive via
// the shared_ptrs already handed out).
struct CompileCache {
  std::map<std::string, std::shared_ptr<const CompiledChunk>> chunks;
  CompileCacheStats stats;
};

CompileCache& TheCompileCache() {
  static CompileCache* cache = new CompileCache();
  return *cache;
}

constexpr size_t kCompileCacheCap = 512;

}  // namespace

Result<std::shared_ptr<const CompiledChunk>> Compile(const std::string& source) {
  CompileCache& cache = TheCompileCache();
  auto it = cache.chunks.find(source);
  if (it != cache.chunks.end()) {
    ++cache.stats.hits;
    return it->second;
  }
  ++cache.stats.misses;
  Result<std::shared_ptr<Block>> parsed = Parse(source);
  if (!parsed.ok()) {
    return parsed.status();  // errors are not cached
  }
  Result<std::shared_ptr<const CompiledChunk>> compiled = CompileToBytecode(*parsed.value());
  if (!compiled.ok()) {
    return compiled;
  }
  if (cache.chunks.size() >= kCompileCacheCap) {
    cache.chunks.clear();
  }
  cache.chunks.emplace(source, compiled.value());
  return compiled;
}

CompileCacheStats GetCompileCacheStats() { return TheCompileCache().stats; }

Interpreter::Interpreter() : globals_(std::make_shared<Environment>()) {
  InstallStdlib(this);
}

Interpreter::~Interpreter() = default;

void Interpreter::RegisterHostFunction(const std::string& name, HostFunction fn) {
  globals_->Define(name, Value::Host(name, std::move(fn)));
}

Vm& Interpreter::EnsureVm() {
  if (vm_ == nullptr) {
    vm_ = std::make_shared<Vm>(this);
  }
  return *vm_;
}

Status Interpreter::Run(const std::shared_ptr<const CompiledChunk>& chunk) {
  instructions_executed_ = 0;
  ++stats_.vm_runs;
  Status s = EnsureVm().RunChunk(chunk);
  stats_.instructions += instructions_executed_;
  return s;
}

Status Interpreter::RunSource(const std::string& source) {
  Result<std::shared_ptr<const CompiledChunk>> chunk = Compile(source);
  if (!chunk.ok()) {
    return chunk.status();
  }
  return Run(chunk.value());
}

Result<Value> Interpreter::CallGlobal(const std::string& name, const std::vector<Value>& args) {
  Value fn = globals_->Get(name);
  if (fn.is_nil()) {
    return Status::NotFound("no global function '" + name + "'");
  }
  return Call(fn, args);
}

Result<Value> Interpreter::Call(const Value& callee, const std::vector<Value>& args) {
  instructions_executed_ = 0;
  if (callee.is_host_function()) {
    return callee.as_host_function()->fn(*this, args);
  }
  if (!callee.is_closure()) {
    return Status::InvalidArgument(std::string("runtime error at line 0: attempt to call a ") +
                                   callee.TypeName() + " value");
  }
  ++stats_.vm_runs;
  Result<Value> r = EnsureVm().CallClosure(callee, args, 0);
  stats_.instructions += instructions_executed_;
  return r;
}

}  // namespace mal::script
