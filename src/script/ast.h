// Abstract syntax tree for MalScript. Plain structs with owning unique_ptrs;
// the compiler (src/script/compiler.cc) translates it to register bytecode.
#ifndef MALACOLOGY_SCRIPT_AST_H_
#define MALACOLOGY_SCRIPT_AST_H_

#include <memory>
#include <string>
#include <vector>

namespace mal::script {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kMod, kPow, kConcat,
  kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr,
};

enum class UnOp { kNeg, kNot, kLen };

struct Block {
  std::vector<StmtPtr> stmts;
};

struct Expr {
  enum class Kind {
    kNil, kTrue, kFalse, kNumber, kString, kVararg,
    kName, kIndex, kBinary, kUnary, kCall, kFunction, kTableCtor,
  };

  Kind kind;
  int line = 0;

  // kNumber / kString
  double number = 0;
  std::string string_value;

  // kName
  std::string name;

  // kIndex: object[key]  (a.b parses to a["b"])
  ExprPtr object;
  ExprPtr key;

  // kBinary / kUnary
  BinOp bin_op = BinOp::kAdd;
  UnOp un_op = UnOp::kNeg;
  ExprPtr lhs;
  ExprPtr rhs;

  // kCall
  ExprPtr callee;
  std::vector<ExprPtr> args;

  // kFunction
  std::vector<std::string> params;
  bool is_vararg = false;
  std::shared_ptr<Block> body;

  // kTableCtor: array_items become [1..n]; fields are explicit keys
  std::vector<ExprPtr> array_items;
  std::vector<std::pair<ExprPtr, ExprPtr>> fields;
};

struct Stmt {
  enum class Kind {
    kExpr,        // expression statement (function call)
    kAssign,      // lhs_targets = rhs_values
    kLocal,       // local names = values
    kIf,
    kWhile,
    kRepeat,
    kNumericFor,  // for name = start, stop [, step] do ... end
    kGenericFor,  // for k, v in pairs(t) do ... end
    kReturn,
    kBreak,
    kDo,          // do ... end scope block
  };

  Kind kind;
  int line = 0;

  ExprPtr expr;  // kExpr / kWhile cond / kRepeat cond / kReturn value

  // kAssign
  std::vector<ExprPtr> targets;  // each kName or kIndex
  std::vector<ExprPtr> values;

  // kLocal
  std::vector<std::string> local_names;
  std::vector<ExprPtr> local_values;

  // kIf: parallel arrays of conditions/blocks; else_block optional
  std::vector<ExprPtr> conditions;
  std::vector<Block> blocks;
  std::unique_ptr<Block> else_block;

  // loops / do
  Block body;

  // kNumericFor
  std::string for_var;
  ExprPtr for_start;
  ExprPtr for_stop;
  ExprPtr for_step;

  // kGenericFor
  std::vector<std::string> for_names;
  ExprPtr for_iterable;
};

}  // namespace mal::script

#endif  // MALACOLOGY_SCRIPT_AST_H_
