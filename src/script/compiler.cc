// MalScript compiler: AST -> CompiledChunk in two steps. Capture analysis
// walks each function once and marks which (block, name) locals a nested
// function captures; code generation then gives those locals heap cells and
// every other local a register, folds constant expressions through the
// operator definitions the VM runs (bytecode.h), and maps each binary
// operator to its opcode through one table (kBinOpcodes).
#include "src/script/compiler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mal::script {
namespace {

// Registers/cells/iterator/upvalue slots are uint16 operands; stay well clear
// of the ceiling so arithmetic on windows (call bases, control triples)
// cannot wrap. A program past these limits is a compile error.
constexpr int kMaxRegs = 60000;
constexpr int kMaxSlots = 60000;
constexpr size_t kMaxFieldKeys = 65000;

uint64_t DoubleBits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Names declared by `local` statements directly in a block's statement list
// (not nested blocks). This is the oracle's "whole scope" declaration set:
// a nested function referencing one of these resolves to this scope no
// matter where in the block the declaration sits.
std::set<std::string> TopLocals(const Block& b) {
  std::set<std::string> names;
  for (const StmtPtr& stmt : b.stmts) {
    if (stmt->kind == Stmt::Kind::kLocal) {
      for (const std::string& n : stmt->local_names) {
        names.insert(n);
      }
    }
  }
  return names;
}

// The names a generic for binds: its first two (key and value).
std::vector<std::string> ForInNames(const Stmt& s) {
  size_t n = std::min<size_t>(2, s.for_names.size());
  return std::vector<std::string>(s.for_names.begin(),
                                  s.for_names.begin() + static_cast<long>(n));
}

// The instruction of each binary operator, indexed by BinOp. kAnd and kOr
// compile to jumps and have none.
constexpr Op kBinOpcodes[] = {
    Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMod, Op::kPow, Op::kConcat,
    Op::kEq,  Op::kNe,  Op::kLt,  Op::kLe,  Op::kGt,  Op::kGe,
};
static_assert(sizeof(kBinOpcodes) / sizeof(kBinOpcodes[0]) ==
              static_cast<size_t>(BinOp::kAnd));

Op Opcode(BinOp op) { return kBinOpcodes[static_cast<size_t>(op)]; }

// ---------------------------------------------------------------------------
// Capture analysis.
//
// One walk over every function, keeping one scope stack from the chunk down
// to the current block. Each scope has whole-scope declarations (`decls`)
// and the names activated so far in source order (`active`). Walking a
// function yields its free names: references no active name of its own
// scopes binds. For each free name of a nested function, the innermost
// scope of the enclosing function that declares it (anywhere in the block)
// captures it: that (block, name) gets a heap cell instead of a register.
// A name no such scope declares is free in the enclosing function too. The
// chunk's own scope declares nothing, since top-level locals are globals.
// ---------------------------------------------------------------------------

class Analyzer {
 public:
  // Block* -> names that must live in cells because a nested function
  // captures them.
  std::map<const Block*, std::set<std::string>> captured;

  void AnalyzeChunk(const Block& chunk) {
    std::set<std::string> chunk_free;
    free_ = &chunk_free;
    scopes_.push_back(Scope{&chunk, {}, {}});
    WalkBlock(chunk);
    scopes_.pop_back();
    free_ = nullptr;
  }

 private:
  struct Scope {
    const Block* block;
    std::set<std::string> decls;   // whole-scope declarations
    std::set<std::string> active;  // positionally activated so far
  };
  std::vector<Scope> scopes_;
  // The function being walked owns scopes_[base_..]; free_ collects its
  // free names.
  size_t base_ = 0;
  std::set<std::string>* free_ = nullptr;

  // Walks a function expression once: marks the captures inside it and
  // returns the names it references but does not bind.
  std::set<std::string> WalkFunction(const Expr& fn) {
    std::vector<std::string> params = fn.params;
    if (fn.is_vararg) {
      params.push_back("arg");
    }
    std::set<std::string> free;
    size_t outer_base = std::exchange(base_, scopes_.size());
    std::set<std::string>* outer_free = std::exchange(free_, &free);
    PushScope(*fn.body, params);
    WalkBlock(*fn.body);
    scopes_.pop_back();
    base_ = outer_base;
    free_ = outer_free;
    return free;
  }

  void PushScope(const Block& b, const std::vector<std::string>& pre_active) {
    Scope s{&b, TopLocals(b), {}};
    for (const std::string& n : pre_active) {
      s.decls.insert(n);
      s.active.insert(n);
    }
    scopes_.push_back(std::move(s));
  }

  // Innermost scope of the current function whose `names` hold `name`, or
  // null.
  const Scope* Binder(const std::string& name, std::set<std::string> Scope::*names) const {
    for (size_t i = scopes_.size(); i-- > base_;) {
      if ((scopes_[i].*names).count(name) != 0) {
        return &scopes_[i];
      }
    }
    return nullptr;
  }

  void Ref(const std::string& name) {
    if (Binder(name, &Scope::active) == nullptr) {
      free_->insert(name);
    }
  }

  void NestedFunction(const Expr& fn) {
    for (const std::string& n : WalkFunction(fn)) {
      const Scope* owner = Binder(n, &Scope::decls);
      if (owner != nullptr) {
        captured[owner->block].insert(n);
      } else {
        free_->insert(n);
      }
    }
  }

  void WalkExpr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kNil:
      case Expr::Kind::kTrue:
      case Expr::Kind::kFalse:
      case Expr::Kind::kNumber:
      case Expr::Kind::kString:
        return;
      case Expr::Kind::kVararg:
        Ref("arg");
        return;
      case Expr::Kind::kName:
        Ref(e.name);
        return;
      case Expr::Kind::kIndex:
        WalkExpr(*e.object);
        WalkExpr(*e.key);
        return;
      case Expr::Kind::kBinary:
        WalkExpr(*e.lhs);
        WalkExpr(*e.rhs);
        return;
      case Expr::Kind::kUnary:
        WalkExpr(*e.lhs);
        return;
      case Expr::Kind::kCall:
        WalkExpr(*e.callee);
        for (const ExprPtr& a : e.args) {
          WalkExpr(*a);
        }
        return;
      case Expr::Kind::kFunction:
        NestedFunction(e);
        return;
      case Expr::Kind::kTableCtor:
        for (const ExprPtr& item : e.array_items) {
          WalkExpr(*item);
        }
        for (const auto& [k, v] : e.fields) {
          WalkExpr(*k);
          WalkExpr(*v);
        }
        return;
    }
  }

  void WalkScopedBlock(const Block& b, const std::vector<std::string>& pre_active) {
    PushScope(b, pre_active);
    WalkBlock(b);
    scopes_.pop_back();
  }

  void WalkBlock(const Block& b) {
    for (const StmtPtr& sp : b.stmts) {
      const Stmt& s = *sp;
      switch (s.kind) {
        case Stmt::Kind::kExpr:
        case Stmt::Kind::kReturn:
          if (s.expr != nullptr) {
            WalkExpr(*s.expr);
          }
          break;
        case Stmt::Kind::kAssign:
          for (const ExprPtr& v : s.values) {
            WalkExpr(*v);
          }
          for (const ExprPtr& t : s.targets) {
            WalkExpr(*t);
          }
          break;
        case Stmt::Kind::kLocal:
          for (const ExprPtr& v : s.local_values) {
            WalkExpr(*v);
          }
          for (const std::string& n : s.local_names) {
            scopes_.back().active.insert(n);
          }
          break;
        case Stmt::Kind::kIf:
          for (size_t i = 0; i < s.conditions.size(); ++i) {
            WalkExpr(*s.conditions[i]);
            WalkScopedBlock(s.blocks[i], {});
          }
          if (s.else_block != nullptr) {
            WalkScopedBlock(*s.else_block, {});
          }
          break;
        case Stmt::Kind::kWhile:
          WalkExpr(*s.expr);
          WalkScopedBlock(s.body, {});
          break;
        case Stmt::Kind::kRepeat:
          PushScope(s.body, {});
          WalkBlock(s.body);
          WalkExpr(*s.expr);  // until-cond sees body locals
          scopes_.pop_back();
          break;
        case Stmt::Kind::kNumericFor:
          WalkExpr(*s.for_start);
          WalkExpr(*s.for_stop);
          if (s.for_step != nullptr) {
            WalkExpr(*s.for_step);
          }
          WalkScopedBlock(s.body, {s.for_var});
          break;
        case Stmt::Kind::kGenericFor:
          WalkExpr(*s.for_iterable);
          WalkScopedBlock(s.body, ForInNames(s));
          break;
        case Stmt::Kind::kBreak:
          break;
        case Stmt::Kind::kDo:
          WalkScopedBlock(s.body, {});
          break;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Bytecode generation.
// ---------------------------------------------------------------------------

struct Binding {
  bool is_cell = false;
  uint16_t index = 0;  // register or cell slot
};

struct Scope {
  const Block* block = nullptr;
  bool is_globals = false;
  std::set<std::string> decls;  // whole-scope declarations (upvalue lookups)
  std::map<std::string, uint16_t> cell_slots;
  std::map<std::string, Binding> active;  // positionally activated bindings
  int reg_watermark = 0;
};

struct LoopCtx {
  std::vector<size_t> break_jumps;
};

struct FuncState {
  FuncState* parent = nullptr;
  Proto* proto = nullptr;
  std::vector<Scope> scopes;
  std::vector<LoopCtx> loops;
  std::map<std::string, uint16_t> upval_ids;
  int next_reg = 0;
  int max_reg = 0;
  int next_cell = 0;
  int next_iter = 0;
};

enum class NameKind { kReg, kCell, kUpval, kGlobal };

struct NameRef {
  NameKind kind;
  int32_t index;
};

class Compiler {
 public:
  Result<std::shared_ptr<const CompiledChunk>> Compile(const Block& chunk) {
    analyzer_.AnalyzeChunk(chunk);
    auto out = std::make_shared<CompiledChunk>();
    out_ = out.get();

    out_->protos.push_back(std::make_unique<Proto>());
    FuncState fs;
    fs.proto = out_->protos[0].get();
    Scope globals;
    globals.block = &chunk;
    globals.is_globals = true;
    fs.scopes.push_back(std::move(globals));
    CompileBlock(fs, chunk);
    Emit(fs, Op::kReturnNil);
    FinishProto(fs);

    if (failed_) {
      return error_;
    }
    return std::shared_ptr<const CompiledChunk>(std::move(out));
  }

 private:
  Analyzer analyzer_;
  CompiledChunk* out_ = nullptr;
  std::map<std::string, int32_t> global_ids_;
  std::map<std::string, int32_t> str_consts_;
  std::map<uint64_t, int32_t> num_consts_;  // keyed by bit pattern (-0, NaN)
  std::map<std::string, uint16_t> str_field_keys_;
  std::map<uint64_t, uint16_t> num_field_keys_;
  bool failed_ = false;
  Status error_ = Status::Ok();

  void Fail(const std::string& msg) {
    if (!failed_) {
      failed_ = true;
      error_ = Status::InvalidArgument("bytecode compile: " + msg);
    }
  }

  // --- emission helpers ----------------------------------------------------

  size_t Emit(FuncState& fs, Op op, uint16_t a = 0, uint16_t b = 0, uint16_t c = 0,
              int32_t d = 0, int32_t line = 0) {
    size_t at = fs.proto->code.size();
    fs.proto->code.push_back(Instr{op, a, b, c, d, line});
    return at;
  }

  void PatchJump(FuncState& fs, size_t at) {
    fs.proto->code[at].d = static_cast<int32_t>(fs.proto->code.size());
  }

  uint16_t AllocReg(FuncState& fs) {
    if (fs.next_reg >= kMaxRegs) {
      Fail("register overflow");
      return 0;
    }
    int r = fs.next_reg++;
    if (fs.next_reg > fs.max_reg) {
      fs.max_reg = fs.next_reg;
    }
    return static_cast<uint16_t>(r);
  }

  void FreeTo(FuncState& fs, int mark) { fs.next_reg = mark; }

  void FinishProto(FuncState& fs) {
    fs.proto->num_regs = static_cast<uint16_t>(fs.max_reg);
    fs.proto->num_cells = static_cast<uint16_t>(fs.next_cell);
    fs.proto->num_iters = static_cast<uint16_t>(fs.next_iter);
  }

  // --- pools ---------------------------------------------------------------

  int32_t NumConst(double d) {
    auto [it, inserted] = num_consts_.try_emplace(DoubleBits(d), 0);
    if (inserted) {
      it->second = static_cast<int32_t>(out_->consts.size());
      out_->consts.push_back(Value(d));
    }
    return it->second;
  }

  int32_t StrConst(const std::string& s) {
    auto [it, inserted] = str_consts_.try_emplace(s, 0);
    if (inserted) {
      it->second = static_cast<int32_t>(out_->consts.size());
      out_->consts.push_back(Value(s));
    }
    return it->second;
  }

  int32_t GlobalId(const std::string& name) {
    auto [it, inserted] = global_ids_.try_emplace(name, 0);
    if (inserted) {
      it->second = static_cast<int32_t>(out_->global_names.size());
      out_->global_names.push_back(name);
    }
    return it->second;
  }

  // Field-key pool id for a folded constant key, or nullopt when the key must
  // go through the dynamic path: NaN keys (they break TableKey ordering the
  // same way they do in the oracle, so we leave them to the shared Table
  // code) and new keys once the pool is full.
  std::optional<uint16_t> FieldKeyId(const Value& key) {
    if (key.is_string()) {
      return PoolFieldKey(str_field_keys_, key.as_string(), TableKey(key.as_string()));
    }
    if (key.is_number() && !std::isnan(key.as_number())) {
      return PoolFieldKey(num_field_keys_, DoubleBits(key.as_number()),
                          TableKey(key.as_number()));
    }
    return std::nullopt;
  }

  // The size check comes before the insert: a full pool must not remember
  // the key, or a later use of it would resolve to a bogus id.
  template <typename K>
  std::optional<uint16_t> PoolFieldKey(std::map<K, uint16_t>& ids, const K& k, TableKey key) {
    auto it = ids.find(k);
    if (it != ids.end()) {
      return it->second;
    }
    if (out_->field_keys.size() >= kMaxFieldKeys) {
      return std::nullopt;
    }
    uint16_t id = static_cast<uint16_t>(out_->field_keys.size());
    out_->field_keys.push_back(std::move(key));
    ids.emplace(k, id);
    return id;
  }

  int32_t AllocIc() { return static_cast<int32_t>(out_->num_field_ics++); }

  // --- constant folding ----------------------------------------------------

  // Returns the value `e` evaluates to when that is knowable at compile time
  // without side effects or errors. Binary operators use the VM's own
  // definitions (bytecode.h), so a folded result is bit-for-bit what the
  // instruction would compute.
  std::optional<Value> Fold(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kNil:
        return Value::Nil();
      case Expr::Kind::kTrue:
        return Value(true);
      case Expr::Kind::kFalse:
        return Value(false);
      case Expr::Kind::kNumber:
        return Value(e.number);
      case Expr::Kind::kString:
        return Value(e.string_value);
      case Expr::Kind::kUnary: {
        std::optional<Value> v = Fold(*e.lhs);
        if (!v.has_value()) {
          return std::nullopt;
        }
        switch (e.un_op) {
          case UnOp::kNeg:
            if (v->is_number()) {
              return Value(-v->as_number());
            }
            return std::nullopt;  // runtime error; keep the oracle's message
          case UnOp::kNot:
            return Value(!v->Truthy());
          case UnOp::kLen:
            if (v->is_string()) {
              return Value(static_cast<double>(v->as_string().size()));
            }
            return std::nullopt;
        }
        return std::nullopt;
      }
      case Expr::Kind::kBinary: {
        if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
          std::optional<Value> a = Fold(*e.lhs);
          if (!a.has_value()) {
            return std::nullopt;
          }
          bool t = a->Truthy();
          if (e.bin_op == BinOp::kAnd) {
            return t ? Fold(*e.rhs) : a;
          }
          return t ? a : Fold(*e.rhs);
        }
        std::optional<Value> a = Fold(*e.lhs);
        if (!a.has_value()) {
          return std::nullopt;
        }
        std::optional<Value> b = Fold(*e.rhs);
        if (!b.has_value()) {
          return std::nullopt;
        }
        Op op = Opcode(e.bin_op);
        switch (op) {
          case Op::kEq:
            return Value(a->Equals(*b));
          case Op::kNe:
            return Value(!a->Equals(*b));
          case Op::kConcat:
            if (!Concatenable(*a) || !Concatenable(*b)) {
              return std::nullopt;
            }
            return Concat(*a, *b);
          case Op::kLt:
          case Op::kLe:
          case Op::kGt:
          case Op::kGe: {
            std::optional<bool> r = Compare(op, *a, *b);
            if (!r.has_value()) {
              return std::nullopt;
            }
            return Value(*r);
          }
          default:  // arithmetic
            if (!a->is_number() || !b->is_number()) {
              return std::nullopt;
            }
            return Value(Arith(op, a->as_number(), b->as_number()));
        }
      }
      default:
        return std::nullopt;
    }
  }

  void LoadConstVal(FuncState& fs, uint16_t dst, const Value& v, int line) {
    if (v.is_nil()) {
      Emit(fs, Op::kLoadNil, dst, 0, 0, 0, line);
    } else if (v.is_bool()) {
      Emit(fs, Op::kLoadBool, dst, v.as_bool() ? 1 : 0, 0, 0, line);
    } else if (v.is_number()) {
      Emit(fs, Op::kLoadK, dst, 0, 0, NumConst(v.as_number()), line);
    } else {
      Emit(fs, Op::kLoadK, dst, 0, 0, StrConst(v.as_string()), line);
    }
  }

  // Effect-free, error-free expressions: evaluating them cannot change
  // observable behavior, so instruction order around them is flexible
  // (used to skip kCheckTable before simple dynamic keys).
  static bool IsSimple(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kNil:
      case Expr::Kind::kTrue:
      case Expr::Kind::kFalse:
      case Expr::Kind::kNumber:
      case Expr::Kind::kString:
      case Expr::Kind::kName:
      case Expr::Kind::kVararg:
        return true;
      default:
        return false;
    }
  }

  // --- scopes and name resolution ------------------------------------------

  void OpenScope(FuncState& fs, const Block& block,
                 const std::vector<std::string>& extra_decls) {
    Scope s;
    s.block = &block;
    s.decls = TopLocals(block);
    for (const std::string& n : extra_decls) {
      s.decls.insert(n);
    }
    s.reg_watermark = fs.next_reg;
    auto cap = analyzer_.captured.find(&block);
    if (cap != analyzer_.captured.end()) {
      for (const std::string& n : cap->second) {
        if (fs.next_cell >= kMaxSlots) {
          Fail("cell overflow");
          break;  // still push the scope: callers pair it with CloseScope
        }
        uint16_t slot = static_cast<uint16_t>(fs.next_cell++);
        s.cell_slots[n] = slot;
        Emit(fs, Op::kNewCell, 0, slot);
      }
    }
    fs.scopes.push_back(std::move(s));
  }

  void CloseScope(FuncState& fs) {
    FreeTo(fs, fs.scopes.back().reg_watermark);
    fs.scopes.pop_back();
  }

  NameRef Resolve(FuncState& fs, const std::string& name) {
    for (auto it = fs.scopes.rbegin(); it != fs.scopes.rend(); ++it) {
      if (it->is_globals) {
        break;  // top-level chunk locals are globals
      }
      auto b = it->active.find(name);
      if (b != it->active.end()) {
        return NameRef{b->second.is_cell ? NameKind::kCell : NameKind::kReg,
                       b->second.index};
      }
    }
    if (fs.parent != nullptr) {
      int32_t uv = ResolveUpval(fs, name);
      if (uv >= 0) {
        return NameRef{NameKind::kUpval, uv};
      }
    }
    return NameRef{NameKind::kGlobal, GlobalId(name)};
  }

  // Returns this function's upvalue index for `name`, or -1 when no enclosing
  // function declares it (global). The analyzer guarantees any name found
  // here has a cell in its declaring scope.
  int32_t ResolveUpval(FuncState& fs, const std::string& name) {
    auto cached = fs.upval_ids.find(name);
    if (cached != fs.upval_ids.end()) {
      return cached->second;
    }
    FuncState* p = fs.parent;
    if (p == nullptr) {
      return -1;
    }
    for (auto it = p->scopes.rbegin(); it != p->scopes.rend(); ++it) {
      if (it->is_globals) {
        break;
      }
      if (it->decls.count(name) != 0) {
        auto slot = it->cell_slots.find(name);
        if (slot == it->cell_slots.end()) {
          Fail("capture analysis missed '" + name + "'");
          return -1;
        }
        if (fs.proto->upvals.size() >= static_cast<size_t>(kMaxSlots)) {
          Fail("upvalue overflow");
          return -1;
        }
        uint16_t idx = static_cast<uint16_t>(fs.proto->upvals.size());
        fs.proto->upvals.push_back(
            UpvalDesc{UpvalDesc::Src::kParentCell, slot->second});
        fs.upval_ids[name] = idx;
        return idx;
      }
    }
    int32_t up = ResolveUpval(*p, name);
    if (up < 0) {
      return -1;
    }
    if (fs.proto->upvals.size() >= static_cast<size_t>(kMaxSlots)) {
      Fail("upvalue overflow");
      return -1;
    }
    uint16_t idx = static_cast<uint16_t>(fs.proto->upvals.size());
    fs.proto->upvals.push_back(
        UpvalDesc{UpvalDesc::Src::kParentUpval, static_cast<uint16_t>(up)});
    fs.upval_ids[name] = idx;
    return idx;
  }

  void LoadName(FuncState& fs, uint16_t dst, const std::string& name, int line) {
    NameRef r = Resolve(fs, name);
    switch (r.kind) {
      case NameKind::kReg:
        if (r.index != dst) {
          Emit(fs, Op::kMove, dst, static_cast<uint16_t>(r.index), 0, 0, line);
        }
        return;
      case NameKind::kCell:
        Emit(fs, Op::kGetCell, dst, static_cast<uint16_t>(r.index), 0, 0, line);
        return;
      case NameKind::kUpval:
        Emit(fs, Op::kGetUpval, dst, static_cast<uint16_t>(r.index), 0, 0, line);
        return;
      case NameKind::kGlobal:
        Emit(fs, Op::kGetGlobal, dst, 0, 0, r.index, line);
        return;
    }
  }

  void StoreName(FuncState& fs, uint16_t src, const std::string& name, int line) {
    NameRef r = Resolve(fs, name);
    switch (r.kind) {
      case NameKind::kReg:
        if (r.index != src) {
          Emit(fs, Op::kMove, static_cast<uint16_t>(r.index), src, 0, 0, line);
        }
        return;
      case NameKind::kCell:
        Emit(fs, Op::kSetCell, src, static_cast<uint16_t>(r.index), 0, 0, line);
        return;
      case NameKind::kUpval:
        Emit(fs, Op::kSetUpval, src, static_cast<uint16_t>(r.index), 0, 0, line);
        return;
      case NameKind::kGlobal:
        Emit(fs, Op::kSetGlobal, src, 0, 0, r.index, line);
        return;
    }
  }

  // Binds a loop variable freshly each iteration from a source register.
  // alias_ok lets generic-for bind its transfer registers directly (nothing
  // else writes them within an iteration); numeric-for must copy because the
  // control register keeps advancing independently of body assignments.
  void BindLoopVar(FuncState& fs, const std::string& name, uint16_t src, bool alias_ok,
                   int line) {
    Scope& sc = fs.scopes.back();
    auto cell = sc.cell_slots.find(name);
    if (cell != sc.cell_slots.end()) {
      Emit(fs, Op::kSetCell, src, cell->second, 0, 0, line);
      sc.active[name] = Binding{true, cell->second};
      return;
    }
    if (alias_ok) {
      sc.active[name] = Binding{false, src};
      return;
    }
    uint16_t home = AllocReg(fs);
    Emit(fs, Op::kMove, home, src, 0, 0, line);
    sc.active[name] = Binding{false, home};
  }

  // --- expressions ---------------------------------------------------------

  // Compiles `e` into some register: an existing local register when the
  // expression is just a register-resident name (no code emitted), otherwise
  // a fresh temp. Callers bracket with a next_reg mark and FreeTo.
  uint16_t ExprAny(FuncState& fs, const Expr& e) {
    const std::string* nm = nullptr;
    static const std::string kArg = "arg";
    if (e.kind == Expr::Kind::kName) {
      nm = &e.name;
    } else if (e.kind == Expr::Kind::kVararg) {
      nm = &kArg;
    }
    if (nm != nullptr) {
      NameRef r = Resolve(fs, *nm);
      if (r.kind == NameKind::kReg) {
        return static_cast<uint16_t>(r.index);
      }
    }
    uint16_t t = AllocReg(fs);
    ExprToReg(fs, e, t);
    return t;
  }

  void ExprToReg(FuncState& fs, const Expr& e, uint16_t dst) {
    if (failed_) {
      return;
    }
    std::optional<Value> folded = Fold(e);
    if (folded.has_value()) {
      LoadConstVal(fs, dst, *folded, e.line);
      return;
    }
    switch (e.kind) {
      case Expr::Kind::kNil:
      case Expr::Kind::kTrue:
      case Expr::Kind::kFalse:
      case Expr::Kind::kNumber:
      case Expr::Kind::kString:
        return;  // unreachable: always folded
      case Expr::Kind::kVararg:
        LoadName(fs, dst, "arg", e.line);
        return;
      case Expr::Kind::kName:
        LoadName(fs, dst, e.name, e.line);
        return;
      case Expr::Kind::kIndex:
        CompileIndexRead(fs, e, dst);
        return;
      case Expr::Kind::kBinary:
        CompileBinary(fs, e, dst);
        return;
      case Expr::Kind::kUnary: {
        int mark = fs.next_reg;
        uint16_t b = ExprAny(fs, *e.lhs);
        Op op = e.un_op == UnOp::kNeg   ? Op::kNeg
                : e.un_op == UnOp::kNot ? Op::kNot
                                        : Op::kLen;
        Emit(fs, op, dst, b, 0, 0, e.line);
        FreeTo(fs, mark);
        return;
      }
      case Expr::Kind::kCall:
        CompileCall(fs, e, dst, /*want_result=*/true);
        return;
      case Expr::Kind::kFunction: {
        int32_t pidx = CompileProto(fs, e);
        Emit(fs, Op::kClosure, dst, 0, 0, pidx, e.line);
        return;
      }
      case Expr::Kind::kTableCtor:
        CompileTableCtor(fs, e, dst);
        return;
    }
  }

  void CompileIndexRead(FuncState& fs, const Expr& e, uint16_t dst) {
    int mark = fs.next_reg;
    uint16_t obj = ExprAny(fs, *e.object);
    std::optional<Value> key = Fold(*e.key);
    std::optional<uint16_t> fk;
    if (key.has_value()) {
      fk = FieldKeyId(*key);
    }
    if (fk.has_value()) {
      Emit(fs, Op::kGetField, dst, obj, *fk, AllocIc(), e.line);
    } else {
      // The walker reports "attempt to index" before evaluating the key, so
      // keys that might themselves error need the table check hoisted.
      if (!IsSimple(*e.key)) {
        Emit(fs, Op::kCheckTable, obj, 0, 0, 0, e.line);
      }
      uint16_t kr = ExprAny(fs, *e.key);
      Emit(fs, Op::kGetIndex, dst, obj, kr, 0, e.line);
    }
    FreeTo(fs, mark);
  }

  void CompileBinary(FuncState& fs, const Expr& e, uint16_t dst) {
    if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
      std::optional<Value> lk = Fold(*e.lhs);
      if (lk.has_value()) {
        bool t = lk->Truthy();
        bool short_circuits = (e.bin_op == BinOp::kAnd) ? !t : t;
        if (short_circuits) {
          LoadConstVal(fs, dst, *lk, e.line);
        } else {
          ExprToReg(fs, *e.rhs, dst);
        }
        return;
      }
      ExprToReg(fs, *e.lhs, dst);
      size_t skip = Emit(fs, e.bin_op == BinOp::kAnd ? Op::kJmpIfNot : Op::kJmpIf, dst,
                         0, 0, 0, e.line);
      ExprToReg(fs, *e.rhs, dst);
      PatchJump(fs, skip);
      return;
    }
    int mark = fs.next_reg;
    Op op = Opcode(e.bin_op);
    // Arithmetic with a constant-number RHS fuses the constant into the
    // instruction (K-variant): one dispatch instead of LoadK + arith, and
    // the VM can skip the RHS type check. Error parity with the oracle
    // holds because both report the LHS type when the LHS is not a number,
    // and a number constant can never be the offending operand.
    if (IsArith(op)) {
      std::optional<Value> rk = Fold(*e.rhs);
      if (rk.has_value() && rk->is_number()) {
        uint16_t b = ExprAny(fs, *e.lhs);
        Emit(fs, ArithK(op), dst, b, 0, NumConst(rk->as_number()), e.line);
        FreeTo(fs, mark);
        return;
      }
    }
    uint16_t b = ExprAny(fs, *e.lhs);
    uint16_t c = ExprAny(fs, *e.rhs);
    Emit(fs, op, dst, b, c, 0, e.line);
    FreeTo(fs, mark);
  }

  void CompileCall(FuncState& fs, const Expr& e, uint16_t dst, bool want_result) {
    int mark = fs.next_reg;
    uint16_t f = AllocReg(fs);
    ExprToReg(fs, *e.callee, f);
    for (const ExprPtr& a : e.args) {
      uint16_t r = AllocReg(fs);
      ExprToReg(fs, *a, r);
    }
    // The result lands directly in dst (c operand), so statement-position
    // calls and `x = f(...)` both avoid a separate kMove dispatch.
    Emit(fs, Op::kCall, f, static_cast<uint16_t>(e.args.size()),
         want_result ? dst : f, 0, e.line);
    FreeTo(fs, mark);
  }

  void CompileTableCtor(FuncState& fs, const Expr& e, uint16_t dst) {
    Emit(fs, Op::kNewTable, dst, 0, 0, 0, e.line);
    for (size_t i = 0; i < e.array_items.size(); ++i) {
      int mark = fs.next_reg;
      uint16_t v = ExprAny(fs, *e.array_items[i]);
      Value key(static_cast<double>(i + 1));
      std::optional<uint16_t> fk = FieldKeyId(key);
      if (fk.has_value()) {
        Emit(fs, Op::kSetFieldRaw, dst, v, *fk, 0, e.array_items[i]->line);
      } else {
        uint16_t kr = AllocReg(fs);
        LoadConstVal(fs, kr, key, e.array_items[i]->line);
        Emit(fs, Op::kSetIndex, dst, kr, v, 0, e.array_items[i]->line);
      }
      FreeTo(fs, mark);
    }
    for (const auto& [key_expr, value_expr] : e.fields) {
      int mark = fs.next_reg;
      std::optional<Value> key = Fold(*key_expr);
      std::optional<uint16_t> fk;
      if (key.has_value()) {
        fk = FieldKeyId(*key);
      }
      if (fk.has_value()) {
        uint16_t v = ExprAny(fs, *value_expr);
        Emit(fs, Op::kSetFieldRaw, dst, v, *fk, 0, value_expr->line);
      } else {
        // Dynamic (or non-number/string) key: the oracle evaluates key then
        // value, and only then rejects bad key types — kSetIndex preserves
        // that by validating after both operands exist.
        uint16_t kr = ExprAny(fs, *key_expr);
        uint16_t vr = ExprAny(fs, *value_expr);
        Emit(fs, Op::kSetIndex, dst, kr, vr, 0, key_expr->line);
      }
      FreeTo(fs, mark);
    }
  }

  int32_t CompileProto(FuncState& parent, const Expr& e) {
    out_->protos.push_back(std::make_unique<Proto>());
    int32_t pidx = static_cast<int32_t>(out_->protos.size() - 1);
    Proto* proto = out_->protos[pidx].get();
    proto->num_params = static_cast<uint16_t>(e.params.size());
    proto->is_vararg = e.is_vararg;

    FuncState fs;
    fs.parent = &parent;
    fs.proto = proto;

    std::vector<std::string> pre;
    pre.reserve(e.params.size() + 1);
    for (const std::string& p : e.params) {
      pre.push_back(p);
    }
    if (e.is_vararg) {
      pre.push_back("arg");
    }
    OpenScope(fs, *e.body, pre);
    Scope& top = fs.scopes.back();

    // Parameters occupy registers 0..n-1 (the calling convention). Later
    // duplicates win, like repeated Define in the oracle's frame.
    for (size_t i = 0; i < e.params.size(); ++i) {
      uint16_t r = AllocReg(fs);
      auto cell = top.cell_slots.find(e.params[i]);
      if (cell != top.cell_slots.end()) {
        Emit(fs, Op::kSetCell, r, cell->second);
        top.active[e.params[i]] = Binding{true, cell->second};
      } else {
        top.active[e.params[i]] = Binding{false, r};
      }
    }
    if (e.is_vararg) {
      uint16_t v = AllocReg(fs);
      Emit(fs, Op::kVarargTab, v);
      auto cell = top.cell_slots.find("arg");
      if (cell != top.cell_slots.end()) {
        Emit(fs, Op::kSetCell, v, cell->second);
        top.active["arg"] = Binding{true, cell->second};
      } else {
        top.active["arg"] = Binding{false, v};
      }
    }

    CompileBlock(fs, *e.body);
    Emit(fs, Op::kReturnNil);
    CloseScope(fs);
    FinishProto(fs);
    return pidx;
  }

  // --- statements ----------------------------------------------------------

  void CompileScopedBlock(FuncState& fs, const Block& b) {
    OpenScope(fs, b, {});
    CompileBlock(fs, b);
    CloseScope(fs);
  }

  void CompileBlock(FuncState& fs, const Block& b) {
    for (const StmtPtr& s : b.stmts) {
      if (failed_) {
        return;
      }
      CompileStmt(fs, *s);
    }
  }

  void CompileStmt(FuncState& fs, const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::kExpr: {
        int mark = fs.next_reg;
        if (s.expr->kind == Expr::Kind::kCall) {
          CompileCall(fs, *s.expr, 0, /*want_result=*/false);
        } else {
          (void)ExprAny(fs, *s.expr);
        }
        FreeTo(fs, mark);
        return;
      }
      case Stmt::Kind::kAssign:
        CompileAssign(fs, s);
        return;
      case Stmt::Kind::kLocal:
        CompileLocal(fs, s);
        return;
      case Stmt::Kind::kIf:
        CompileIf(fs, s);
        return;
      case Stmt::Kind::kWhile:
        CompileWhile(fs, s);
        return;
      case Stmt::Kind::kRepeat:
        CompileRepeat(fs, s);
        return;
      case Stmt::Kind::kNumericFor:
        CompileNumericFor(fs, s);
        return;
      case Stmt::Kind::kGenericFor:
        CompileGenericFor(fs, s);
        return;
      case Stmt::Kind::kReturn: {
        if (s.expr != nullptr) {
          int mark = fs.next_reg;
          uint16_t r = ExprAny(fs, *s.expr);
          Emit(fs, Op::kReturn, r, 0, 0, 0, s.line);
          FreeTo(fs, mark);
        } else {
          Emit(fs, Op::kReturnNil, 0, 0, 0, 0, s.line);
        }
        return;
      }
      case Stmt::Kind::kBreak:
        // `break` outside any loop unwinds the whole call in the oracle
        // (Flow::kBreak propagates to the frame boundary); return nil does
        // exactly that.
        if (fs.loops.empty()) {
          Emit(fs, Op::kReturnNil, 0, 0, 0, 0, s.line);
        } else {
          fs.loops.back().break_jumps.push_back(Emit(fs, Op::kJmp, 0, 0, 0, 0, s.line));
        }
        return;
      case Stmt::Kind::kDo:
        CompileScopedBlock(fs, s.body);
        return;
    }
  }

  void CompileAssign(FuncState& fs, const Stmt& s) {
    int mark = fs.next_reg;
    // All values first (oracle semantics: `a, b = b, a` swaps).
    std::vector<uint16_t> vals;
    vals.reserve(s.values.size());
    for (const ExprPtr& v : s.values) {
      uint16_t t = AllocReg(fs);
      ExprToReg(fs, *v, t);
      vals.push_back(t);
    }
    int32_t nil_tmp = -1;
    for (size_t i = 0; i < s.targets.size(); ++i) {
      uint16_t src;
      if (i < vals.size()) {
        src = vals[i];
      } else {
        if (nil_tmp < 0) {
          nil_tmp = AllocReg(fs);
          Emit(fs, Op::kLoadNil, static_cast<uint16_t>(nil_tmp), 0, 0, 0, s.line);
        }
        src = static_cast<uint16_t>(nil_tmp);
      }
      const Expr& target = *s.targets[i];
      if (target.kind == Expr::Kind::kName) {
        StoreName(fs, src, target.name, target.line);
      } else if (target.kind == Expr::Kind::kIndex) {
        int m2 = fs.next_reg;
        uint16_t obj = ExprAny(fs, *target.object);
        std::optional<Value> key = Fold(*target.key);
        std::optional<uint16_t> fk;
        if (key.has_value()) {
          fk = FieldKeyId(*key);
        }
        if (fk.has_value()) {
          Emit(fs, Op::kSetField, obj, src, *fk, AllocIc(), target.line);
        } else {
          if (!IsSimple(*target.key)) {
            Emit(fs, Op::kCheckTable, obj, 0, 0, 0, target.line);
          }
          uint16_t kr = ExprAny(fs, *target.key);
          Emit(fs, Op::kSetIndex, obj, kr, src, 0, target.line);
        }
        FreeTo(fs, m2);
      } else {
        Fail("unexpected assignment target");
        return;
      }
    }
    FreeTo(fs, mark);
  }

  void CompileLocal(FuncState& fs, const Stmt& s) {
    Scope& sc = fs.scopes.back();
    int mark = fs.next_reg;
    std::vector<uint16_t> vals;
    vals.reserve(s.local_values.size());
    for (const ExprPtr& v : s.local_values) {
      uint16_t t = AllocReg(fs);
      ExprToReg(fs, *v, t);
      vals.push_back(t);
    }
    if (sc.is_globals) {
      // Top-level chunk: `local` defines a global (the oracle runs the chunk
      // directly in the globals environment; class-method discovery relies
      // on this).
      int32_t nil_tmp = -1;
      for (size_t i = 0; i < s.local_names.size(); ++i) {
        uint16_t src;
        if (i < vals.size()) {
          src = vals[i];
        } else {
          if (nil_tmp < 0) {
            nil_tmp = AllocReg(fs);
            Emit(fs, Op::kLoadNil, static_cast<uint16_t>(nil_tmp), 0, 0, 0, s.line);
          }
          src = static_cast<uint16_t>(nil_tmp);
        }
        Emit(fs, Op::kSetGlobal, src, 0, 0, GlobalId(s.local_names[i]), s.line);
      }
      FreeTo(fs, mark);
      return;
    }
    // Real locals. Value temps sit at mark..mark+n-1; a name with no prior
    // binding in this scope claims its value temp as its home register, so
    // the claimed registers must survive until scope close — next_reg is
    // deliberately not restored here.
    for (size_t i = 0; i < s.local_names.size(); ++i) {
      const std::string& name = s.local_names[i];
      bool have_val = i < vals.size();
      auto cell = sc.cell_slots.find(name);
      if (cell != sc.cell_slots.end()) {
        uint16_t src;
        if (have_val) {
          src = vals[i];
        } else {
          src = AllocReg(fs);
          Emit(fs, Op::kLoadNil, src, 0, 0, 0, s.line);
        }
        Emit(fs, Op::kSetCell, src, cell->second, 0, 0, s.line);
        sc.active[name] = Binding{true, cell->second};
        continue;
      }
      auto existing = sc.active.find(name);
      if (existing != sc.active.end() && !existing->second.is_cell) {
        // Redeclaration in the same scope overwrites the same slot, exactly
        // like repeated Define into one Environment.
        uint16_t src;
        if (have_val) {
          src = vals[i];
        } else {
          src = AllocReg(fs);
          Emit(fs, Op::kLoadNil, src, 0, 0, 0, s.line);
        }
        if (existing->second.index != src) {
          Emit(fs, Op::kMove, existing->second.index, src, 0, 0, s.line);
        }
        continue;
      }
      uint16_t home;
      if (have_val) {
        home = vals[i];  // claim the value temp in place
      } else {
        home = AllocReg(fs);
        Emit(fs, Op::kLoadNil, home, 0, 0, 0, s.line);
      }
      sc.active[name] = Binding{false, home};
    }
  }

  void CompileIf(FuncState& fs, const Stmt& s) {
    std::vector<size_t> end_jumps;
    bool done = false;
    for (size_t i = 0; i < s.conditions.size() && !done; ++i) {
      std::optional<Value> k = Fold(*s.conditions[i]);
      if (k.has_value()) {
        if (k->Truthy()) {
          CompileScopedBlock(fs, s.blocks[i]);
          done = true;  // later branches and else are unreachable
        }
        continue;  // folded-false branch: skip entirely
      }
      int mark = fs.next_reg;
      uint16_t c = ExprAny(fs, *s.conditions[i]);
      size_t jf = Emit(fs, Op::kJmpIfNot, c, 0, 0, 0, s.conditions[i]->line);
      FreeTo(fs, mark);
      CompileScopedBlock(fs, s.blocks[i]);
      end_jumps.push_back(Emit(fs, Op::kJmp));
      PatchJump(fs, jf);
    }
    if (!done && s.else_block != nullptr) {
      CompileScopedBlock(fs, *s.else_block);
    }
    for (size_t j : end_jumps) {
      PatchJump(fs, j);
    }
  }

  void FinishLoop(FuncState& fs) {
    for (size_t j : fs.loops.back().break_jumps) {
      PatchJump(fs, j);
    }
    fs.loops.pop_back();
  }

  void CompileWhile(FuncState& fs, const Stmt& s) {
    std::optional<Value> k = Fold(*s.expr);
    if (k.has_value() && !k->Truthy()) {
      return;  // never entered; condition is effect-free
    }
    fs.loops.push_back(LoopCtx{});
    size_t top = fs.proto->code.size();
    size_t jf = SIZE_MAX;
    if (!k.has_value()) {
      int mark = fs.next_reg;
      uint16_t c = ExprAny(fs, *s.expr);
      jf = Emit(fs, Op::kJmpIfNot, c, 0, 0, 0, s.line);
      FreeTo(fs, mark);
    }
    CompileScopedBlock(fs, s.body);
    Emit(fs, Op::kJmp, 0, 0, 0, static_cast<int32_t>(top), s.line);
    if (jf != SIZE_MAX) {
      PatchJump(fs, jf);
    }
    FinishLoop(fs);
  }

  void CompileRepeat(FuncState& fs, const Stmt& s) {
    fs.loops.push_back(LoopCtx{});
    size_t top = fs.proto->code.size();
    OpenScope(fs, s.body, {});  // cells refresh every iteration
    CompileBlock(fs, s.body);
    // until-condition runs inside the body scope.
    std::optional<Value> k = Fold(*s.expr);
    if (k.has_value()) {
      if (!k->Truthy()) {
        Emit(fs, Op::kJmp, 0, 0, 0, static_cast<int32_t>(top), s.line);
      }
      // truthy: fall through out of the loop
    } else {
      int mark = fs.next_reg;
      uint16_t c = ExprAny(fs, *s.expr);
      Emit(fs, Op::kJmpIfNot, c, 0, 0, static_cast<int32_t>(top), s.line);
      FreeTo(fs, mark);
    }
    CloseScope(fs);
    FinishLoop(fs);
  }

  void CompileNumericFor(FuncState& fs, const Stmt& s) {
    fs.loops.push_back(LoopCtx{});
    int mark = fs.next_reg;
    uint16_t ctrl = AllocReg(fs);  // i
    AllocReg(fs);                  // limit
    AllocReg(fs);                  // step
    ExprToReg(fs, *s.for_start, ctrl);
    ExprToReg(fs, *s.for_stop, static_cast<uint16_t>(ctrl + 1));
    bool has_step = s.for_step != nullptr;
    if (has_step) {
      ExprToReg(fs, *s.for_step, static_cast<uint16_t>(ctrl + 2));
    } else {
      Emit(fs, Op::kLoadK, static_cast<uint16_t>(ctrl + 2), 0, 0, NumConst(1.0), s.line);
    }
    size_t prep = Emit(fs, Op::kForPrep, ctrl, 0, has_step ? 1 : 0, 0, s.line);
    size_t body_top = fs.proto->code.size();
    OpenScope(fs, s.body, {s.for_var});
    BindLoopVar(fs, s.for_var, ctrl, /*alias_ok=*/false, s.line);
    CompileBlock(fs, s.body);
    CloseScope(fs);
    Emit(fs, Op::kForLoop, ctrl, 0, 0, static_cast<int32_t>(body_top), s.line);
    PatchJump(fs, prep);
    FinishLoop(fs);
    FreeTo(fs, mark);
  }

  void CompileGenericFor(FuncState& fs, const Stmt& s) {
    fs.loops.push_back(LoopCtx{});
    int mark = fs.next_reg;
    uint16_t t = ExprAny(fs, *s.for_iterable);
    if (fs.next_iter >= kMaxSlots) {
      Fail("iterator overflow");
      return;
    }
    uint16_t islot = static_cast<uint16_t>(fs.next_iter++);
    Emit(fs, Op::kIterPrep, t, islot, 0, 0, s.line);
    FreeTo(fs, mark);
    uint16_t kreg = AllocReg(fs);
    uint16_t vreg = AllocReg(fs);
    (void)vreg;  // kIterNext writes kreg and kreg+1
    size_t top = fs.proto->code.size();
    size_t next = Emit(fs, Op::kIterNext, kreg, islot, 0, 0, s.line);
    OpenScope(fs, s.body, ForInNames(s));
    BindLoopVar(fs, s.for_names[0], kreg, /*alias_ok=*/true, s.line);
    if (s.for_names.size() > 1) {
      BindLoopVar(fs, s.for_names[1], static_cast<uint16_t>(kreg + 1),
                  /*alias_ok=*/true, s.line);
    }
    CompileBlock(fs, s.body);
    CloseScope(fs);
    Emit(fs, Op::kJmp, 0, 0, 0, static_cast<int32_t>(top), s.line);
    PatchJump(fs, next);
    FinishLoop(fs);
    FreeTo(fs, mark);
  }
};

}  // namespace

Result<std::shared_ptr<const CompiledChunk>> CompileToBytecode(const Block& chunk) {
  Compiler compiler;
  return compiler.Compile(chunk);
}

}  // namespace mal::script
