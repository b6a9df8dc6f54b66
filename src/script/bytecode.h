// Register bytecode for MalScript (the paper embeds LuaJIT precisely so that
// programmability does not cost performance; this is our analogue).
//
// A CompiledChunk is produced once per source by the compiler
// (src/script/compiler.cc) and executed by the dispatch-loop VM
// (src/script/vm.cc), the only engine. A tree-walking reference interpreter
// lives in tests/script_oracle.{h,cc} for differential testing.
//
// Design notes:
//  - Register machine: every function body (Proto) declares how many value
//    registers its frame needs; locals and temporaries live in registers, so
//    variable access never touches an Environment map.
//  - Captured locals live in heap cells (shared_ptr<Value>) so closures see
//    mutations; a fresh cell is created each time the declaring scope is
//    entered, which gives each loop iteration its own captured variables.
//  - Globals are resolved to interned per-chunk name slots; the VM caches a
//    pointer to the Environment's map node after first lookup (map nodes are
//    stable and globals are never erased), making monomorphic global reads a
//    single pointer dereference.
//  - `t.field` and constant-key `t[k]` sites carry an inline-cache index.
//    Each Table has a monotonically bumped shape id (structural changes
//    only); an IC entry caches {shape id, slot pointer} and hits while the
//    table's shape is unchanged.
//  - Every instruction carries its source line so runtime errors and budget
//    aborts name the line they come from.
#ifndef MALACOLOGY_SCRIPT_BYTECODE_H_
#define MALACOLOGY_SCRIPT_BYTECODE_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/script/value.h"

namespace mal::script {

enum class Op : uint8_t {
  kLoadK,     // R[a] = K[d]
  kLoadNil,   // R[a] = nil
  kLoadBool,  // R[a] = (b != 0)
  kMove,      // R[a] = R[b]

  kGetGlobal,  // R[a] = globals[global_names[d]]   (slot-cached)
  kSetGlobal,  // globals[global_names[d]] = R[a]   (defines if absent)
  kGetUpval,   // R[a] = *upvals[b]
  kSetUpval,   // *upvals[b] = R[a]
  kNewCell,    // cells[b] = fresh nil cell (scope entry)
  kGetCell,    // R[a] = *cells[b]
  kSetCell,    // *cells[b] = R[a]

  kAdd,     // R[a] = R[b] + R[c]   (numbers only)
  kSub,     // R[a] = R[b] - R[c]
  kMul,     // R[a] = R[b] * R[c]
  kDiv,     // R[a] = R[b] / R[c]
  kMod,     // R[a] = R[b] mod R[c] (Lua modulo)
  kPow,     // R[a] = R[b] ^ R[c]
  kAddK,    // R[a] = R[b] + K[d]   (K[d] is always a number constant,
  kSubK,    // R[a] = R[b] - K[d]    so only the register operand needs a
  kMulK,    // R[a] = R[b] * K[d]    type check; hot-loop strength-reduction
  kDivK,    // R[a] = R[b] / K[d]    that fuses LoadK + arith into one
  kModK,    // R[a] = R[b] mod K[d]  dispatch)
  kPowK,    // R[a] = R[b] ^ K[d]
  kConcat,  // R[a] = R[b] .. R[c]
  kEq,      // R[a] = R[b] == R[c]
  kNe,      // R[a] = R[b] ~= R[c]
  kLt,      // number/string compare; mixed types error
  kLe,
  kGt,
  kGe,
  kNot,  // R[a] = not R[b]
  kNeg,  // R[a] = -R[b]
  kLen,  // R[a] = #R[b]

  kJmp,       // pc = d
  kJmpIf,     // if truthy(R[a]) pc = d
  kJmpIfNot,  // if !truthy(R[a]) pc = d

  kNewTable,    // R[a] = {}
  kGetField,    // R[a] = R[b][field_keys[c]]      (IC index d)
  kSetField,    // R[a][field_keys[c]] = R[b]      (IC index d)
  kSetFieldRaw, // R[a][field_keys[c]] = R[b]      (no IC: table-ctor fills)
  kGetIndex,    // R[a] = R[b][R[c]]               (dynamic key)
  kSetIndex,    // R[a][R[b]] = R[c]
  kCheckTable,  // error "attempt to index a T value" unless R[a] is a table

  kCall,       // R[c] = R[a](R[a+1] .. R[a+b])
  kClosure,    // R[a] = closure(protos[d]) capturing per UpvalDesc list
  kVarargTab,  // R[a] = table of args beyond num_params (vararg prologue)

  kForPrep,  // control triple at R[a..a+2]; c=has_step; validate, skip to d
  kForLoop,  // R[a] += R[a+2]; loop to d while in range
  kIterPrep, // iters[b] = snapshot of R[a] (must be a table)
  kIterNext, // exhausted ? pc = d : (R[a], R[a+1]) = next entry of iters[b]

  kReturn,     // return R[a]
  kReturnNil,  // return nil
};

// Each K-variant sits a fixed distance past its plain arith op.
constexpr int kArithKOffset = static_cast<int>(Op::kAddK) - static_cast<int>(Op::kAdd);
static_assert(static_cast<int>(Op::kPowK) - static_cast<int>(Op::kPow) == kArithKOffset,
              "kAddK .. kPowK must parallel kAdd .. kPow");

constexpr bool IsArith(Op op) { return op >= Op::kAdd && op <= Op::kPow; }
constexpr Op ArithK(Op op) { return static_cast<Op>(static_cast<int>(op) + kArithKOffset); }
constexpr Op ArithOfK(Op kop) {
  return static_cast<Op>(static_cast<int>(kop) - kArithKOffset);
}

// Operator semantics. The compiler's constant folder and the VM both call
// these, so a folded expression is bit-for-bit what its instruction computes.

// Plain arith op `op` (kAdd .. kPow) on two numbers.
inline double Arith(Op op, double a, double b) {
  switch (op) {
    case Op::kAdd:
      return a + b;
    case Op::kSub:
      return a - b;
    case Op::kMul:
      return a * b;
    case Op::kDiv:
      return a / b;  // IEEE semantics, inf on /0 like Lua
    case Op::kMod:
      return a - std::floor(a / b) * b;  // Lua modulo
    default:
      return std::pow(a, b);
  }
}

template <typename T>
bool Ordered(Op op, const T& a, const T& b) {
  return op == Op::kLt ? a < b : op == Op::kLe ? a <= b : op == Op::kGt ? a > b : a >= b;
}

// Ordered compare (kLt .. kGe): numbers by value, strings bytewise; nullopt
// for any other pair of operands.
inline std::optional<bool> Compare(Op op, const Value& x, const Value& y) {
  if (x.is_number() && y.is_number()) {
    return Ordered(op, x.num_unchecked(), y.num_unchecked());
  }
  if (x.is_string() && y.is_string()) {
    return Ordered(op, x.as_string().compare(y.as_string()), 0);
  }
  return std::nullopt;
}

// `..` takes strings and numbers; Concat requires two Concatenable values.
inline bool Concatenable(const Value& v) { return v.is_string() || v.is_number(); }
inline Value Concat(const Value& x, const Value& y) {
  return Value(x.ToString() + y.ToString());
}

struct Instr {
  Op op;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
  int32_t d = 0;     // jump target (absolute pc) or pool index
  int32_t line = 0;  // source line for errors / budget aborts
};

// Where a closure's upvalue comes from at kClosure time.
struct UpvalDesc {
  enum class Src : uint8_t {
    kParentCell,   // creating frame's cells[index]
    kParentUpval,  // creating closure's upvals[index]
  };
  Src src = Src::kParentCell;
  uint16_t index = 0;
};

struct Proto {
  uint16_t num_params = 0;
  bool is_vararg = false;
  uint16_t num_regs = 0;   // frame size in registers
  uint16_t num_cells = 0;  // captured-local cell slots
  uint16_t num_iters = 0;  // generic-for iterator slots
  std::vector<Instr> code;
  std::vector<UpvalDesc> upvals;
};

struct CompiledChunk {
  std::vector<std::unique_ptr<Proto>> protos;  // protos[0] = top level
  std::vector<Value> consts;
  std::vector<TableKey> field_keys;       // constant keys for (Get|Set)Field*
  std::vector<std::string> global_names;  // interned global slots
  uint32_t num_field_ics = 0;             // inline-cache entries to allocate
};

}  // namespace mal::script

#endif  // MALACOLOGY_SCRIPT_BYTECODE_H_
