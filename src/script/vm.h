// Dispatch-loop register VM for MalScript bytecode (see bytecode.h for the
// instruction set and docs/malscript_vm.md for the design).
//
// One Vm per Interpreter: it owns the shared value stack (frames are base
// offsets into it) and the per-chunk inline-cache state. Budget and call-
// depth accounting use the interpreter's counters, so host-reentrant call
// chains keep the same sandbox limits.
#ifndef MALACOLOGY_SCRIPT_VM_H_
#define MALACOLOGY_SCRIPT_VM_H_

#include <map>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/script/bytecode.h"
#include "src/script/interpreter.h"
#include "src/script/value.h"

namespace mal::script {

class Vm {
 public:
  explicit Vm(Interpreter* interp) : interp_(interp) {}

  // Executes a chunk's top-level proto against the interpreter's globals.
  Status RunChunk(const std::shared_ptr<const CompiledChunk>& chunk);

  // Calls a closure with already-evaluated arguments (the host-side entry
  // into compiled code).
  Result<Value> CallClosure(const Value& callee, const std::vector<Value>& args,
                            int line);

 private:
  // Inline-cache entry for a `t.field` / constant-key site. `shape == 0`
  // never matches a live table; a hit with a null slot is a cached absence
  // (sound because inserting the key bumps the table's shape).
  struct FieldIc {
    uint64_t shape = 0;
    Value* slot = nullptr;
  };

  // Per-(interpreter × chunk) cache state. Chunks are shared across
  // interpreters via the compile cache, so IC state cannot live in the chunk
  // itself. `pin` keeps the chunk alive while cached slot pointers exist.
  struct ChunkState {
    std::shared_ptr<const CompiledChunk> pin;
    std::vector<Value*> global_slots;  // cached globals-map nodes, by name id
    std::vector<FieldIc> field_ics;
  };

  struct IterState {
    std::vector<std::pair<TableKey, Value>> entries;
    size_t pos = 0;
  };

  ChunkState& StateFor(const std::shared_ptr<const CompiledChunk>& chunk);

  // Invokes a compiled closure whose arguments are already on the stack at
  // [child_base, child_base + nargs). Takes a raw pointer so the hot
  // compiled-to-compiled call path never touches the shared_ptr refcount:
  // the caller's register (or the host bridge's Value) pins the closure for
  // the duration of the call, and a stack_ resize moves the register's Value
  // but never the heap Closure it points at.
  // The return value travels through *out rather than a Result<Value>: the
  // out-slot is a C++ stack local in the caller (stable across stack_
  // resizes), and skipping the variant wrap/unwrap is measurable on the
  // per-call fast path.
  Status CallCompiled(const Closure* closure, size_t child_base, size_t nargs,
                      int line, Value* out);

  // A kCall whose callee is not a closure: runs a host function outside the
  // dispatch loop, or reports a non-callable value.
  Result<Value> CallHost(const Value& callee, size_t argbase, size_t nargs, int line);

  Status Execute(const std::shared_ptr<const CompiledChunk>& chunk_sp,
                 ChunkState& cs, const Proto& proto, const Closure* closure,
                 size_t base, size_t nargs, Value* out);

  Interpreter* interp_;
  std::vector<Value> stack_;
  size_t top_ = 0;  // first free stack slot above the active frames
  std::map<const CompiledChunk*, std::unique_ptr<ChunkState>> states_;
  const CompiledChunk* last_chunk_ = nullptr;  // one-entry StateFor cache
  ChunkState* last_state_ = nullptr;
};

}  // namespace mal::script

#endif  // MALACOLOGY_SCRIPT_VM_H_
