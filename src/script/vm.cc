// MalScript VM: runs a CompiledChunk in one token-threaded dispatch loop
// (GCC/Clang labels-as-values). Compiled-to-compiled calls push inline
// frames inside that loop; field and global sites hit inline caches; the
// arithmetic, ordered-compare and concat bodies call the operator
// definitions in bytecode.h that the compiler's constant folder also uses.
#include "src/script/vm.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace mal::script {

namespace {

// "runtime error at line N: ..." — the one rendering every script error
// uses, so hosts and tests can match on it.
Status RuntimeError(int line, const std::string& msg) {
  return Status::InvalidArgument("runtime error at line " + std::to_string(line) + ": " + msg);
}

}  // namespace

Vm::ChunkState& Vm::StateFor(const std::shared_ptr<const CompiledChunk>& chunk) {
  const CompiledChunk* key = chunk.get();
  if (key == last_chunk_) {
    return *last_state_;
  }
  auto it = states_.find(key);
  if (it == states_.end()) {
    auto cs = std::make_unique<ChunkState>();
    cs->pin = chunk;
    cs->global_slots.assign(chunk->global_names.size(), nullptr);
    cs->field_ics.assign(chunk->num_field_ics, FieldIc{});
    it = states_.emplace(key, std::move(cs)).first;
  }
  last_chunk_ = key;
  last_state_ = it->second.get();
  return *last_state_;
}

Status Vm::RunChunk(const std::shared_ptr<const CompiledChunk>& chunk) {
  const Proto& proto = *chunk->protos[0];
  size_t base = top_;
  size_t need = base + proto.num_regs;
  if (stack_.size() < need) {
    stack_.resize(need + 64);
  }
  size_t saved_top = top_;
  top_ = base + proto.num_regs;
  Value ignored;
  Status s = Execute(chunk, StateFor(chunk), proto, nullptr, base, 0, &ignored);
  top_ = saved_top;
  if (top_ == 0) {
    stack_.clear();  // keep capacity, drop retained values between runs
  }
  return s;
}

Result<Value> Vm::CallClosure(const Value& callee, const std::vector<Value>& args,
                              int line) {
  size_t child_base = top_;
  size_t need = child_base + args.size();
  if (stack_.size() < need) {
    stack_.resize(need + 64);
  }
  for (size_t i = 0; i < args.size(); ++i) {
    stack_[child_base + i] = args[i];
  }
  Value ret;
  Status s = CallCompiled(callee.as_closure().get(), child_base, args.size(), line, &ret);
  if (top_ == 0) {
    stack_.clear();
  }
  if (!s.ok()) {
    return s;
  }
  return ret;
}

Status Vm::CallCompiled(const Closure* closure, size_t child_base, size_t nargs,
                        int line, Value* out) {
  if (++interp_->call_depth_ > kMaxScriptCallDepth) {
    --interp_->call_depth_;
    return RuntimeError(line, "call stack overflow");
  }
  const std::shared_ptr<const CompiledChunk>& chunk = closure->chunk();
  const Proto& proto = *chunk->protos[closure->proto_index()];
  size_t frame = std::max<size_t>(proto.num_regs, nargs);
  size_t need = child_base + frame;
  if (stack_.size() < need) {
    stack_.resize(need + 64);
  }
  for (size_t i = nargs; i < proto.num_params; ++i) {
    stack_[child_base + i] = Value::Nil();  // missing arguments arrive as nil
  }
  size_t saved_top = top_;
  top_ = child_base + frame;
  Status s = Execute(chunk, StateFor(chunk), proto, closure, child_base, nargs, out);
  top_ = saved_top;
  --interp_->call_depth_;
  return s;
}

// Calls a non-closure sitting in the caller's call window (arguments are at
// [argbase, argbase + nargs) on the stack): host functions get a copied
// argument vector, anything else is a runtime error.
Result<Value> Vm::CallHost(const Value& callee, size_t argbase, size_t nargs, int line) {
  if (!callee.is_host_function()) {
    return RuntimeError(line,
                        std::string("attempt to call a ") + callee.TypeName() + " value");
  }
  std::vector<Value> args(stack_.begin() + static_cast<long>(argbase),
                          stack_.begin() + static_cast<long>(argbase + nargs));
  return callee.as_host_function()->fn(*interp_, args);
}

// Token-threaded dispatch: every opcode body ends in its own indirect jump
// (labels-as-values), so the branch predictor learns the opcode-to-opcode
// transitions of the hot loop instead of funneling every instruction
// through one maximally-mispredicted switch. A computed goto leaves a body
// without running destructors, so a body keeps any object that has one in
// an inner block that closes before VM_NEXT().
#if !defined(__GNUC__) && !defined(__clang__)
#error "the MalScript VM dispatch needs labels-as-values (GCC or Clang)"
#endif

#define VM_NEXT()                                                              \
  do {                                                                         \
    in = code + pc;                                                            \
    ++pc;                                                                      \
    if (budget != 0 && ++interp_->instructions_executed_ > budget) {           \
      return Unwind(Status::Aborted(                                           \
          "script exceeded instruction budget at line " +                      \
          std::to_string(in->line)));                                          \
    }                                                                          \
    goto* kDispatch[static_cast<size_t>(in->op)];                              \
  } while (0)

// Executes `proto` and, via an inline frame stack, every compiled closure it
// (transitively) calls — compiled-to-compiled calls are a frame push/pop
// inside this one dispatch loop, never a C++ recursion. Only host functions
// leave the loop (CallHost), and those may recurse back in through
// CallClosure.
Status Vm::Execute(const std::shared_ptr<const CompiledChunk>& chunk_sp,
                   ChunkState& cs, const Proto& proto, const Closure* closure,
                   size_t base, size_t nargs, Value* out) {
  const uint64_t budget = interp_->instruction_budget_;
  EngineStats& stats = interp_->stats_;
  // IC hit/miss counts accumulate in locals (registers) and flush to the
  // interpreter's stats at every exit from the loop — a per-access RMW on
  // interp_ memory is measurable in field/global-heavy loops.
  uint64_t ic_hits = 0;
  uint64_t ic_misses = 0;
  auto FlushIc = [&] {
    stats.ic_hits += ic_hits;
    stats.ic_misses += ic_misses;
    ic_hits = 0;
    ic_misses = 0;
  };

  // Suspended caller frames for calls inlined into this loop. Everything a
  // frame needs to resume: where in which proto, the register window, and
  // the frame-local cell/iterator slots (moved, not copied).
  struct Frame {
    const CompiledChunk* chunk;
    ChunkState* cs;
    const Proto* proto;
    const Closure* closure;
    const Instr* code;
    size_t pc;
    size_t base;
    size_t nargs;
    uint16_t ret_reg;  // caller register receiving the call result
    bool has_cells;    // whether cells/iters were parked here (the vectors
    bool has_iters;    //  may hold stale capacity from an earlier call)
    std::vector<std::shared_ptr<Value>> cells;
    std::vector<IterState> iters;
  };
  // Frame slots are reused across calls (nframes is the live count), so the
  // hot push/pop path is plain field stores — no vector ctor/dtor per call.
  std::vector<Frame> frames;
  size_t nframes = 0;

  // High-water mark of register use across this activation's inline frames.
  // top_ itself is only synced before control can leave the loop (host
  // callees), so plain compiled-to-compiled calls never touch it.
  size_t water = top_;

  // Current-frame state, rebound on inline call/return.
  const CompiledChunk* chunkp = chunk_sp.get();
  ChunkState* csp = &cs;
  const Proto* protop = &proto;
  const Instr* code = protop->code.data();

  // Frame-local captured-cell and iterator slots. Empty vectors don't
  // allocate, so plain functions pay nothing here.
  std::vector<std::shared_ptr<Value>> cells(protop->num_cells);
  std::vector<IterState> iters(protop->num_iters);

  // Refreshed after anything that may resize the stack (host functions can
  // re-enter the VM through the interpreter).
  Value* regs = stack_.data() + base;

  size_t pc = 0;
  const Instr* in = nullptr;

  // Error exits drop all inlined frames at once: the C++ caller restores
  // top_ itself, but the per-frame call-depth increments must be repaid.
  auto Unwind = [&](Status s) {
    FlushIc();
    interp_->call_depth_ -= nframes;
    return s;
  };

  // Must mirror the declaration order of enum class Op exactly. Grouped
  // bodies (arith, ordered compares, eq/ne, the two returns) share a label.
  static const void* const kDispatch[] = {
      &&C_kLoadK, &&C_kLoadNil, &&C_kLoadBool, &&C_kMove,
      &&C_kGetGlobal, &&C_kSetGlobal, &&C_kGetUpval, &&C_kSetUpval,
      &&C_kNewCell, &&C_kGetCell, &&C_kSetCell,
      &&C_Arith, &&C_Arith, &&C_Arith, &&C_Arith, &&C_Arith, &&C_Arith,
      &&C_ArithK, &&C_ArithK, &&C_ArithK, &&C_ArithK, &&C_ArithK, &&C_ArithK,
      &&C_kConcat, &&C_EqNe, &&C_EqNe, &&C_Cmp, &&C_Cmp, &&C_Cmp, &&C_Cmp,
      &&C_kNot, &&C_kNeg, &&C_kLen,
      &&C_kJmp, &&C_kJmpIf, &&C_kJmpIfNot,
      &&C_kNewTable, &&C_kGetField, &&C_kSetField, &&C_kSetFieldRaw,
      &&C_kGetIndex, &&C_kSetIndex, &&C_kCheckTable,
      &&C_kCall, &&C_kClosure, &&C_kVarargTab,
      &&C_kForPrep, &&C_kForLoop, &&C_kIterPrep, &&C_kIterNext,
      &&C_kReturn, &&C_kReturn,
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                static_cast<size_t>(Op::kReturnNil) + 1);
  VM_NEXT();

  C_kLoadK:
    regs[in->a].CopyFrom(chunkp->consts[in->d]);
    VM_NEXT();
  C_kLoadNil:
    regs[in->a].SetNil();
    VM_NEXT();
  C_kLoadBool:
    regs[in->a].SetBool(in->b != 0);
    VM_NEXT();
  C_kMove:
    if (in->a != in->b) {
      regs[in->a].CopyFrom(regs[in->b]);
    }
    VM_NEXT();

  C_kGetGlobal: {
    Value*& slot = csp->global_slots[in->d];
    if (slot != nullptr) {
      ++ic_hits;
      regs[in->a].CopyFrom(*slot);
    } else {
      // Negative lookups are not cached: defining the global later
      // creates a new map node the stale cache couldn't see.
      ++ic_misses;
      Value* p = interp_->globals_->FindLocalSlot(chunkp->global_names[in->d]);
      if (p != nullptr) {
        slot = p;
        regs[in->a] = *p;
      } else {
        regs[in->a] = Value::Nil();
      }
    }
    VM_NEXT();
  }
  C_kSetGlobal: {
    Value*& slot = csp->global_slots[in->d];
    if (slot != nullptr) {
      ++ic_hits;
      slot->CopyFrom(regs[in->a]);
    } else {
      ++ic_misses;
      Value* p = interp_->globals_->DefineSlot(chunkp->global_names[in->d]);
      *p = regs[in->a];
      slot = p;
    }
    VM_NEXT();
  }

  C_kGetUpval:
    regs[in->a].CopyFrom(*closure->upvals()[in->b]);
    VM_NEXT();
  C_kSetUpval:
    closure->upvals()[in->b]->CopyFrom(regs[in->a]);
    VM_NEXT();
  C_kNewCell:
    cells[in->b] = std::make_shared<Value>();
    VM_NEXT();
  C_kGetCell:
    regs[in->a].CopyFrom(*cells[in->b]);
    VM_NEXT();
  C_kSetCell:
    cells[in->b]->CopyFrom(regs[in->a]);
    VM_NEXT();

  C_Arith: {
    const Value& x = regs[in->b];
    const Value& y = regs[in->c];
    if (!x.is_number() || !y.is_number()) {
      return Unwind(RuntimeError(
          in->line, std::string("attempt to perform arithmetic on a ") +
                        (x.is_number() ? y.TypeName() : x.TypeName()) + " value"));
    }
    regs[in->a].SetNumber(Arith(in->op, x.num_unchecked(), y.num_unchecked()));
    VM_NEXT();
  }
  C_ArithK: {
    const Value& x = regs[in->b];
    if (!x.is_number()) {
      return Unwind(RuntimeError(
          in->line, std::string("attempt to perform arithmetic on a ") +
                        x.TypeName() + " value"));
    }
    // K[d] is a number: the compiler only fuses number constants.
    regs[in->a].SetNumber(Arith(ArithOfK(in->op), x.num_unchecked(),
                                chunkp->consts[in->d].num_unchecked()));
    VM_NEXT();
  }
  C_kConcat: {
    const Value& x = regs[in->b];
    const Value& y = regs[in->c];
    if (!Concatenable(x) || !Concatenable(y)) {
      return Unwind(RuntimeError(
          in->line, std::string("attempt to concatenate a ") +
                        (Concatenable(x) ? y.TypeName() : x.TypeName()) + " value"));
    }
    regs[in->a] = Concat(x, y);
    VM_NEXT();
  }
  C_EqNe: {
    const Value& x = regs[in->b];
    const Value& y = regs[in->c];
    bool eq = x.is_number() && y.is_number()
                  ? x.num_unchecked() == y.num_unchecked()
                  : x.Equals(y);
    regs[in->a].SetBool(in->op == Op::kEq ? eq : !eq);
    VM_NEXT();
  }
  C_Cmp: {
    const Value& x = regs[in->b];
    const Value& y = regs[in->c];
    std::optional<bool> r = Compare(in->op, x, y);
    if (!r.has_value()) {
      return Unwind(RuntimeError(in->line, std::string("attempt to compare ") +
                                               x.TypeName() + " with " +
                                               y.TypeName()));
    }
    regs[in->a].SetBool(*r);
    VM_NEXT();
  }
  C_kNot:
    regs[in->a].SetBool(!regs[in->b].Truthy());
    VM_NEXT();
  C_kNeg: {
    const Value& v = regs[in->b];
    if (!v.is_number()) {
      return Unwind(RuntimeError(in->line, std::string("attempt to negate a ") +
                                               v.TypeName() + " value"));
    }
    regs[in->a].SetNumber(-v.num_unchecked());
    VM_NEXT();
  }
  C_kLen: {
    const Value& v = regs[in->b];
    if (v.is_string()) {
      regs[in->a].SetNumber(static_cast<double>(v.as_string().size()));
    } else if (v.is_table()) {
      size_t n = v.as_table()->ArrayLength();
      regs[in->a].SetNumber(static_cast<double>(n));
    } else {
      return Unwind(RuntimeError(in->line,
                                 std::string("attempt to get length of a ") +
                                     v.TypeName() + " value"));
    }
    VM_NEXT();
  }

  C_kJmp:
    pc = static_cast<size_t>(in->d);
    VM_NEXT();
  C_kJmpIf:
    if (regs[in->a].Truthy()) {
      pc = static_cast<size_t>(in->d);
    }
    VM_NEXT();
  C_kJmpIfNot:
    if (!regs[in->a].Truthy()) {
      pc = static_cast<size_t>(in->d);
    }
    VM_NEXT();

  C_kNewTable:
    regs[in->a] = Value(Table::Make());
    VM_NEXT();
  C_kGetField: {
    const Value& tv = regs[in->b];
    if (!tv.is_table()) {
      return Unwind(RuntimeError(in->line, std::string("attempt to index a ") +
                                               tv.TypeName() + " value"));
    }
    Table* t = tv.as_table().get();
    FieldIc& ic = csp->field_ics[in->d];
    if (ic.shape == t->shape_id()) {
      ++ic_hits;
      if (ic.slot != nullptr) {
        if (ic.slot->is_number()) {
          regs[in->a].SetNumber(ic.slot->num_unchecked());
        } else {
          Value tmp = *ic.slot;  // regs[a] may hold the last table ref
          regs[in->a] = std::move(tmp);
        }
      } else {
        regs[in->a].SetNil();  // cached absence
      }
    } else {
      ++ic_misses;
      Value* slot = t->FindSlot(chunkp->field_keys[in->c]);
      ic.shape = t->shape_id();
      ic.slot = slot;
      Value tmp = slot != nullptr ? *slot : Value::Nil();
      regs[in->a] = std::move(tmp);
    }
    VM_NEXT();
  }
  C_kSetField: {
    const Value& tv = regs[in->a];
    if (!tv.is_table()) {
      return Unwind(RuntimeError(in->line, std::string("attempt to index a ") +
                                               tv.TypeName() + " value"));
    }
    Table* t = tv.as_table().get();
    const Value& v = regs[in->b];
    FieldIc& ic = csp->field_ics[in->d];
    if (!v.is_nil() && ic.shape == t->shape_id() && ic.slot != nullptr) {
      // Overwriting an existing key keeps the shape: pure slot store.
      ++ic_hits;
      if (v.is_number()) {
        ic.slot->SetNumber(v.num_unchecked());
      } else {
        Value tmp = v;
        *ic.slot = std::move(tmp);
      }
    } else {
      ++ic_misses;
      t->Set(chunkp->field_keys[in->c], v);
      ic.shape = t->shape_id();
      ic.slot = t->FindSlot(chunkp->field_keys[in->c]);
    }
    VM_NEXT();
  }
  C_kSetFieldRaw: {
    const Value& tv = regs[in->a];
    if (!tv.is_table()) {
      return Unwind(RuntimeError(in->line, std::string("attempt to index a ") +
                                               tv.TypeName() + " value"));
    }
    tv.as_table()->Set(chunkp->field_keys[in->c], regs[in->b]);
    VM_NEXT();
  }
  C_kGetIndex: {
    const Value& tv = regs[in->b];
    if (!tv.is_table()) {
      return Unwind(RuntimeError(in->line, std::string("attempt to index a ") +
                                               tv.TypeName() + " value"));
    }
    {
      Result<TableKey> tk = TableKey::FromValue(regs[in->c]);
      if (!tk.ok()) {
        return Unwind(tk.status());
      }
      Value tmp = tv.as_table()->Get(tk.value());
      regs[in->a] = std::move(tmp);
    }
    VM_NEXT();
  }
  C_kSetIndex: {
    const Value& tv = regs[in->a];
    if (!tv.is_table()) {
      return Unwind(RuntimeError(in->line, std::string("attempt to index a ") +
                                               tv.TypeName() + " value"));
    }
    {
      Result<TableKey> tk = TableKey::FromValue(regs[in->b]);
      if (!tk.ok()) {
        return Unwind(tk.status());
      }
      tv.as_table()->Set(tk.value(), regs[in->c]);
    }
    VM_NEXT();
  }
  C_kCheckTable:
    if (!regs[in->a].is_table()) {
      return Unwind(RuntimeError(in->line, std::string("attempt to index a ") +
                                               regs[in->a].TypeName() + " value"));
    }
    VM_NEXT();

  C_kCall: {
    const Value& cv = regs[in->a];
    if (cv.is_closure()) {
      const Closure* ncl = cv.as_closure().get();
      // Inline frame push: the call never leaves this dispatch loop.
      // Taking the Closure raw is safe — the caller's register pins it
      // until the result overwrites that register after the return, and
      // a stack_ resize moves the register's Value, not the Closure.
      if (interp_->call_depth_ + 1 > kMaxScriptCallDepth) {
        return Unwind(RuntimeError(in->line, "call stack overflow"));
      }
      ++interp_->call_depth_;
      const CompiledChunk* nchunk = ncl->chunk().get();
      const Proto* nproto = nchunk->protos[ncl->proto_index()].get();
      size_t child_base = base + in->a + 1;
      size_t call_nargs = in->b;
      size_t frame_size = std::max<size_t>(nproto->num_regs, call_nargs);
      size_t need = child_base + frame_size;
      if (stack_.size() < need) {
        stack_.resize(need + 64);
      }
      for (size_t i = call_nargs; i < nproto->num_params; ++i) {
        stack_[child_base + i] = Value::Nil();  // missing args arrive as nil
      }
      if (nframes == frames.size()) {
        frames.emplace_back();
      }
      Frame& f = frames[nframes++];
      f.chunk = chunkp;
      f.cs = csp;
      f.proto = protop;
      f.closure = closure;
      f.code = code;
      f.pc = pc;
      f.base = base;
      f.nargs = nargs;
      f.ret_reg = in->c;
      // Leaf functions (no captured cells, no generic-for state) skip
      // the vector shuffles entirely — the common case.
      f.has_cells = !cells.empty() || nproto->num_cells != 0;
      if (f.has_cells) {
        f.cells = std::move(cells);
        cells = std::vector<std::shared_ptr<Value>>(nproto->num_cells);
      }
      f.has_iters = !iters.empty() || nproto->num_iters != 0;
      if (f.has_iters) {
        f.iters = std::move(iters);
        iters = std::vector<IterState>(nproto->num_iters);
      }
      if (nchunk != chunkp) {  // cross-chunk call: switch IC state
        csp = &StateFor(ncl->chunk());
        chunkp = nchunk;
      }
      protop = nproto;
      closure = ncl;
      code = nproto->code.data();
      pc = 0;
      base = child_base;
      nargs = call_nargs;
      if (need > water) {
        water = need;
      }
      regs = stack_.data() + base;
      VM_NEXT();
    }
    // Host functions leave the loop; pin the callee in a temporary
    // since that path can outlive a stack_ resize while still holding
    // references. Sync top_ so re-entrant CallClosure frames land above
    // every live register.
    top_ = water;
    FlushIc();  // host callees may observe engine stats
    {
      Result<Value> r = CallHost(Value(cv), base + in->a + 1, in->b, in->line);
      if (!r.ok()) {
        return Unwind(r.status());
      }
      regs = stack_.data() + base;  // the callee may have resized the stack
      regs[in->c] = std::move(r).value();
    }
    VM_NEXT();
  }
  C_kClosure: {
    {
      const Proto& p = *chunkp->protos[in->d];
      std::vector<std::shared_ptr<Value>> ups;
      ups.reserve(p.upvals.size());
      for (const UpvalDesc& ud : p.upvals) {
        ups.push_back(ud.src == UpvalDesc::Src::kParentCell ? cells[ud.index]
                                                            : closure->upvals()[ud.index]);
      }
      regs[in->a] = Value(std::make_shared<Closure>(
          csp->pin, static_cast<uint32_t>(in->d), std::move(ups)));
    }
    VM_NEXT();
  }
  C_kVarargTab: {
    {
      auto rest = Table::Make();
      for (size_t i = protop->num_params; i < nargs; ++i) {
        rest->Set(TableKey(static_cast<double>(i - protop->num_params + 1)), regs[i]);
      }
      regs[in->a] = Value(std::move(rest));
    }
    VM_NEXT();
  }

  C_kForPrep: {
    const Value& iv = regs[in->a];
    const Value& lim = regs[in->a + 1];
    const Value& st = regs[in->a + 2];
    // Error precedence: explicit-step type first,
    // then bounds, then zero step.
    if (in->c != 0 && !st.is_number()) {
      return Unwind(RuntimeError(in->line, "for step must be a number"));
    }
    if (!iv.is_number() || !lim.is_number()) {
      return Unwind(RuntimeError(in->line, "for bounds must be numbers"));
    }
    // Implicit step (c == 0) is a compiler-emitted 1.0 constant, so the
    // unchecked read is covered even without the type check above.
    double s = st.num_unchecked();
    if (s == 0.0) {
      return Unwind(RuntimeError(in->line, "for step must be nonzero"));
    }
    double i = iv.num_unchecked();
    double l = lim.num_unchecked();
    if (!(s > 0 ? i <= l : i >= l)) {
      pc = static_cast<size_t>(in->d);
    }
    VM_NEXT();
  }
  C_kForLoop: {
    double s = regs[in->a + 2].num_unchecked();
    double i = regs[in->a].num_unchecked() + s;  // same accumulation as `i += step`
    regs[in->a].SetNumber(i);
    double l = regs[in->a + 1].num_unchecked();
    if (s > 0 ? i <= l : i >= l) {
      pc = static_cast<size_t>(in->d);
    }
    VM_NEXT();
  }
  C_kIterPrep: {
    const Value& tv = regs[in->a];
    if (!tv.is_table()) {
      return Unwind(RuntimeError(in->line, "for-in expects a table (or pairs(table))"));
    }
    IterState& it = iters[in->b];
    it.entries.assign(tv.as_table()->entries().begin(),
                      tv.as_table()->entries().end());
    it.pos = 0;
    VM_NEXT();
  }
  C_kIterNext: {
    IterState& it = iters[in->b];
    if (it.pos >= it.entries.size()) {
      pc = static_cast<size_t>(in->d);
      VM_NEXT();
    }
    const auto& [key, value] = it.entries[it.pos++];
    regs[in->a] = std::holds_alternative<double>(key.k)
                      ? Value(std::get<double>(key.k))
                      : Value(std::get<std::string>(key.k));
    regs[in->a + 1] = value;
    VM_NEXT();
  }

  C_kReturn: {
    const bool nil = in->op == Op::kReturnNil;
    if (nframes == 0) {
      FlushIc();
      if (nil) {
        out->SetNil();
      } else {
        *out = std::move(regs[in->a]);  // frame is dead past this point
      }
      return Status::Ok();
    }
    Value* child_regs = regs;  // no resize between here and the move below
    Frame& f = frames[--nframes];
    --interp_->call_depth_;
    chunkp = f.chunk;
    csp = f.cs;
    protop = f.proto;
    closure = f.closure;
    code = f.code;
    pc = f.pc;
    base = f.base;
    nargs = f.nargs;
    if (f.has_cells) {
      cells = std::move(f.cells);
    }
    if (f.has_iters) {
      iters = std::move(f.iters);
    }
    regs = stack_.data() + base;
    if (nil) {
      regs[f.ret_reg].SetNil();
    } else {
      regs[f.ret_reg] = std::move(child_regs[in->a]);
    }
    VM_NEXT();
  }
}

#undef VM_NEXT

}  // namespace mal::script
