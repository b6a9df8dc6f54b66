#include "tests/script_oracle.h"

#include <cmath>
#include <map>
#include <utility>
#include <variant>

#include "src/script/parser.h"

// Returns early with the status of a failed step.
#define ORACLE_TRY(expr)            \
  do {                              \
    Status oracle_status_ = (expr); \
    if (!oracle_status_.ok()) {     \
      return oracle_status_;        \
    }                               \
  } while (0)

// Declares `Value& name` bound to the value of a Result<Value> expression,
// returning early with its status on error.
#define ORACLE_EVAL(name, expr)         \
  Result<Value> name##_result = (expr); \
  if (!name##_result.ok()) {            \
    return name##_result.status();      \
  }                                     \
  Value& name = name##_result.value()

namespace mal::script {

namespace {

// Control-flow signal threaded through statement execution.
enum class Flow { kNormal, kBreak, kReturn };

Status RuntimeError(int line, const std::string& msg) {
  return Status::InvalidArgument("runtime error at line " + std::to_string(line) + ": " + msg);
}

// Name of the host-function box behind every oracle script function.
// `function` is a keyword, so no registered builtin can carry it.
constexpr const char* kFunctionName = "function";

bool IsScriptFunction(const Value& v) {
  return v.is_host_function() && v.as_host_function()->name == kFunctionName;
}

template <typename T>
bool Ordered(BinOp op, const T& x, const T& y) {
  switch (op) {
    case BinOp::kLt:
      return x < y;
    case BinOp::kLe:
      return x <= y;
    case BinOp::kGt:
      return x > y;
    default:
      return x >= y;
  }
}

Value KeyValue(const TableKey& key) {
  return std::holds_alternative<double>(key.k) ? Value(std::get<double>(key.k))
                                               : Value(std::get<std::string>(key.k));
}

}  // namespace

// One lexical scope. Functions hold their defining scope, which keeps the
// whole chain alive; the chain ends at the globals table.
struct ScriptOracle::Scope {
  explicit Scope(ScopePtr p) : parent(std::move(p)) {}
  ScopePtr parent;  // null: the next scope out is the globals table
  std::map<std::string, Value> vars;
};

// Walks the AST. One Walker per top-level entry or function call; all of
// them share the oracle's budget and depth counters.
class ScriptOracle::Walker {
 public:
  explicit Walker(ScriptOracle* oracle) : oracle_(oracle) {}

  Status ExecBlock(const Block& block, const ScopePtr& env, Flow* flow, Value* ret) {
    for (const StmtPtr& stmt : block.stmts) {
      ORACLE_TRY(ExecStmt(*stmt, env, flow, ret));
      if (*flow != Flow::kNormal) {
        break;
      }
    }
    return Status::Ok();
  }

  Result<Value> CallValue(const Value& callee, const std::vector<Value>& args, int line) {
    if (!callee.is_host_function()) {
      return RuntimeError(line, std::string("attempt to call a ") + callee.TypeName() +
                                    " value");
    }
    oracle_->call_line_ = line;  // read by a script function's prologue
    return callee.as_host_function()->fn(oracle_->interp_, args);
  }

  // Body of a script function value: binds the arguments in a fresh scope
  // under the defining one and runs the body.
  Result<Value> CallFunction(const std::vector<std::string>& params, bool is_vararg,
                             const Block& body, const ScopePtr& env,
                             const std::vector<Value>& args) {
    if (++oracle_->depth_ > kMaxScriptCallDepth) {
      --oracle_->depth_;
      return RuntimeError(oracle_->call_line_, "call stack overflow");
    }
    auto frame = std::make_shared<Scope>(env);
    for (size_t i = 0; i < params.size(); ++i) {
      frame->vars[params[i]] = i < args.size() ? args[i] : Value::Nil();
    }
    if (is_vararg) {
      auto rest = Table::Make();
      for (size_t i = params.size(); i < args.size(); ++i) {
        rest->Set(TableKey(static_cast<double>(i - params.size() + 1)), args[i]);
      }
      frame->vars["arg"] = Value(rest);
    }
    Flow flow = Flow::kNormal;
    Value ret;
    Status s = ExecBlock(body, frame, &flow, &ret);
    --oracle_->depth_;
    if (!s.ok()) {
      return s;
    }
    return flow == Flow::kReturn ? ret : Value::Nil();
  }

 private:
  // One budget unit per statement, expression and loop iteration.
  Status Tick(int line) {
    if (oracle_->budget_ != 0 && ++oracle_->executed_ > oracle_->budget_) {
      return Status::Aborted("script exceeded instruction budget at line " +
                             std::to_string(line));
    }
    return Status::Ok();
  }

  // Runs one loop iteration's body in its own scope. Sets *done when the
  // loop must stop: `break` (consumed here) or `return` (left in *flow).
  Status Iterate(const Block& body, const ScopePtr& scope, Flow* flow, Value* ret,
                 bool* done) {
    ORACLE_TRY(ExecBlock(body, scope, flow, ret));
    *done = *flow != Flow::kNormal;
    if (*flow == Flow::kBreak) {
      *flow = Flow::kNormal;
    }
    return Status::Ok();
  }

  Status ExecStmt(const Stmt& stmt, const ScopePtr& env, Flow* flow, Value* ret) {
    ORACLE_TRY(Tick(stmt.line));
    switch (stmt.kind) {
      case Stmt::Kind::kExpr:
        return Eval(*stmt.expr, env).status();
      case Stmt::Kind::kAssign:
        return ExecAssign(stmt, env);
      case Stmt::Kind::kLocal: {
        std::vector<Value> values;
        ORACLE_TRY(EvalList(stmt.local_values, env, &values));
        for (size_t i = 0; i < stmt.local_names.size(); ++i) {
          oracle_->Define(env, stmt.local_names[i],
                          i < values.size() ? values[i] : Value::Nil());
        }
        return Status::Ok();
      }
      case Stmt::Kind::kIf:
        for (size_t i = 0; i < stmt.conditions.size(); ++i) {
          ORACLE_EVAL(cond, Eval(*stmt.conditions[i], env));
          if (cond.Truthy()) {
            return ExecBlock(stmt.blocks[i], std::make_shared<Scope>(env), flow, ret);
          }
        }
        if (stmt.else_block != nullptr) {
          return ExecBlock(*stmt.else_block, std::make_shared<Scope>(env), flow, ret);
        }
        return Status::Ok();
      case Stmt::Kind::kWhile:
        for (bool done = false; !done;) {
          ORACLE_TRY(Tick(stmt.line));
          ORACLE_EVAL(cond, Eval(*stmt.expr, env));
          if (!cond.Truthy()) {
            break;
          }
          ORACLE_TRY(Iterate(stmt.body, std::make_shared<Scope>(env), flow, ret, &done));
        }
        return Status::Ok();
      case Stmt::Kind::kRepeat:
        for (bool done = false; !done;) {
          ORACLE_TRY(Tick(stmt.line));
          auto scope = std::make_shared<Scope>(env);
          ORACLE_TRY(Iterate(stmt.body, scope, flow, ret, &done));
          if (!done) {
            // The condition sees the body's locals, like Lua.
            ORACLE_EVAL(cond, Eval(*stmt.expr, scope));
            done = cond.Truthy();
          }
        }
        return Status::Ok();
      case Stmt::Kind::kNumericFor:
        return ExecNumericFor(stmt, env, flow, ret);
      case Stmt::Kind::kGenericFor:
        return ExecGenericFor(stmt, env, flow, ret);
      case Stmt::Kind::kReturn: {
        *ret = Value::Nil();
        if (stmt.expr != nullptr) {
          ORACLE_EVAL(v, Eval(*stmt.expr, env));
          *ret = std::move(v);
        }
        *flow = Flow::kReturn;
        return Status::Ok();
      }
      case Stmt::Kind::kBreak:
        *flow = Flow::kBreak;
        return Status::Ok();
      case Stmt::Kind::kDo:
        return ExecBlock(stmt.body, std::make_shared<Scope>(env), flow, ret);
    }
    return Status::Internal("unknown statement kind");
  }

  Status ExecAssign(const Stmt& stmt, const ScopePtr& env) {
    // Evaluate all values first (supports `a, b = b, a`).
    std::vector<Value> values;
    ORACLE_TRY(EvalList(stmt.values, env, &values));
    for (size_t i = 0; i < stmt.targets.size(); ++i) {
      Value v = i < values.size() ? values[i] : Value::Nil();
      const Expr& target = *stmt.targets[i];
      if (target.kind == Expr::Kind::kName) {
        oracle_->Set(env, target.name, std::move(v));
        continue;
      }
      ORACLE_EVAL(obj, Eval(*target.object, env));
      if (!obj.is_table()) {
        return RuntimeError(target.line,
                            std::string("attempt to index a ") + obj.TypeName() + " value");
      }
      ORACLE_EVAL(key, Eval(*target.key, env));
      Result<TableKey> tk = TableKey::FromValue(key);
      ORACLE_TRY(tk.status());
      obj.as_table()->Set(tk.value(), std::move(v));
    }
    return Status::Ok();
  }

  Status ExecNumericFor(const Stmt& stmt, const ScopePtr& env, Flow* flow, Value* ret) {
    ORACLE_EVAL(start, Eval(*stmt.for_start, env));
    ORACLE_EVAL(stop, Eval(*stmt.for_stop, env));
    double step = 1.0;
    if (stmt.for_step != nullptr) {
      ORACLE_EVAL(sv, Eval(*stmt.for_step, env));
      if (!sv.is_number()) {
        return RuntimeError(stmt.line, "for step must be a number");
      }
      step = sv.as_number();
    }
    if (!start.is_number() || !stop.is_number()) {
      return RuntimeError(stmt.line, "for bounds must be numbers");
    }
    if (step == 0.0) {
      return RuntimeError(stmt.line, "for step must be nonzero");
    }
    const double limit = stop.as_number();
    bool done = false;
    for (double i = start.as_number(); !done && (step > 0 ? i <= limit : i >= limit);
         i += step) {
      ORACLE_TRY(Tick(stmt.line));
      auto scope = std::make_shared<Scope>(env);
      scope->vars[stmt.for_var] = Value(i);
      ORACLE_TRY(Iterate(stmt.body, scope, flow, ret, &done));
    }
    return Status::Ok();
  }

  // `for k, v in t do` iterates table entries in key order. We accept a table
  // directly or the result of pairs(t) (which returns the table itself).
  Status ExecGenericFor(const Stmt& stmt, const ScopePtr& env, Flow* flow, Value* ret) {
    ORACLE_EVAL(iterable, Eval(*stmt.for_iterable, env));
    if (!iterable.is_table()) {
      return RuntimeError(stmt.line, "for-in expects a table (or pairs(table))");
    }
    // Snapshot keys so body mutations don't invalidate iteration.
    std::vector<std::pair<TableKey, Value>> entries(iterable.as_table()->entries().begin(),
                                                    iterable.as_table()->entries().end());
    bool done = false;
    for (size_t i = 0; i < entries.size() && !done; ++i) {
      ORACLE_TRY(Tick(stmt.line));
      auto scope = std::make_shared<Scope>(env);
      scope->vars[stmt.for_names[0]] = KeyValue(entries[i].first);
      if (stmt.for_names.size() > 1) {
        scope->vars[stmt.for_names[1]] = entries[i].second;
      }
      ORACLE_TRY(Iterate(stmt.body, scope, flow, ret, &done));
    }
    return Status::Ok();
  }

  Status EvalList(const std::vector<ExprPtr>& exprs, const ScopePtr& env,
                  std::vector<Value>* out) {
    out->reserve(exprs.size());
    for (const ExprPtr& e : exprs) {
      ORACLE_EVAL(v, Eval(*e, env));
      out->push_back(std::move(v));
    }
    return Status::Ok();
  }

  Result<Value> Eval(const Expr& expr, const ScopePtr& env) {
    ORACLE_TRY(Tick(expr.line));
    switch (expr.kind) {
      case Expr::Kind::kNil:
        return Value::Nil();
      case Expr::Kind::kTrue:
      case Expr::Kind::kFalse:
        return Value(expr.kind == Expr::Kind::kTrue);
      case Expr::Kind::kNumber:
        return Value(expr.number);
      case Expr::Kind::kString:
        return Value(expr.string_value);
      case Expr::Kind::kVararg:
        return oracle_->Get(env, "arg");
      case Expr::Kind::kName:
        return oracle_->Get(env, expr.name);
      case Expr::Kind::kIndex: {
        ORACLE_EVAL(obj, Eval(*expr.object, env));
        if (!obj.is_table()) {
          return RuntimeError(expr.line,
                              std::string("attempt to index a ") + obj.TypeName() + " value");
        }
        ORACLE_EVAL(key, Eval(*expr.key, env));
        Result<TableKey> tk = TableKey::FromValue(key);
        ORACLE_TRY(tk.status());
        return obj.as_table()->Get(tk.value());
      }
      case Expr::Kind::kBinary:
        return EvalBinary(expr, env);
      case Expr::Kind::kUnary:
        return EvalUnary(expr, env);
      case Expr::Kind::kCall: {
        ORACLE_EVAL(callee, Eval(*expr.callee, env));
        std::vector<Value> args;
        ORACLE_TRY(EvalList(expr.args, env, &args));
        return CallValue(callee, args, expr.line);
      }
      case Expr::Kind::kFunction:
        return oracle_->MakeFunction(expr, env);
      case Expr::Kind::kTableCtor: {
        auto table = Table::Make();
        for (size_t i = 0; i < expr.array_items.size(); ++i) {
          ORACLE_EVAL(v, Eval(*expr.array_items[i], env));
          table->Set(TableKey(static_cast<double>(i + 1)), std::move(v));
        }
        for (const auto& [key_expr, value_expr] : expr.fields) {
          ORACLE_EVAL(key, Eval(*key_expr, env));
          ORACLE_EVAL(value, Eval(*value_expr, env));
          Result<TableKey> tk = TableKey::FromValue(key);
          ORACLE_TRY(tk.status());
          table->Set(tk.value(), std::move(value));
        }
        return Value(std::move(table));
      }
    }
    return Status::Internal("unknown expression kind");
  }

  Result<Value> EvalBinary(const Expr& expr, const ScopePtr& env) {
    ORACLE_EVAL(a, Eval(*expr.lhs, env));
    // Short-circuit logic first.
    if (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr) {
      if (a.Truthy() == (expr.bin_op == BinOp::kAnd)) {
        return Eval(*expr.rhs, env);
      }
      return a_result;
    }
    ORACLE_EVAL(b, Eval(*expr.rhs, env));
    switch (expr.bin_op) {
      case BinOp::kEq:
      case BinOp::kNe:
        return Value(a.Equals(b) == (expr.bin_op == BinOp::kEq));
      case BinOp::kConcat:
        if ((a.is_string() || a.is_number()) && (b.is_string() || b.is_number())) {
          return Value(a.ToString() + b.ToString());
        }
        return RuntimeError(expr.line, std::string("attempt to concatenate a ") +
                                           (a.is_string() || a.is_number() ? b.TypeName()
                                                                           : a.TypeName()) +
                                           " value");
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe:
        if (a.is_number() && b.is_number()) {
          return Value(Ordered(expr.bin_op, a.as_number(), b.as_number()));
        }
        if (a.is_string() && b.is_string()) {
          return Value(Ordered(expr.bin_op, a.as_string(), b.as_string()));
        }
        return RuntimeError(expr.line, std::string("attempt to compare ") + a.TypeName() +
                                           " with " + b.TypeName());
      default:
        break;
    }
    // Arithmetic.
    if (!a.is_number() || !b.is_number()) {
      return RuntimeError(expr.line, std::string("attempt to perform arithmetic on a ") +
                                         (a.is_number() ? b.TypeName() : a.TypeName()) +
                                         " value");
    }
    double x = a.as_number();
    double y = b.as_number();
    switch (expr.bin_op) {
      case BinOp::kAdd:
        return Value(x + y);
      case BinOp::kSub:
        return Value(x - y);
      case BinOp::kMul:
        return Value(x * y);
      case BinOp::kDiv:
        return Value(x / y);  // IEEE semantics, inf on /0 like Lua
      case BinOp::kMod:
        return Value(x - std::floor(x / y) * y);  // Lua modulo
      case BinOp::kPow:
        return Value(std::pow(x, y));
      default:
        return Status::Internal("unhandled binary op");
    }
  }

  Result<Value> EvalUnary(const Expr& expr, const ScopePtr& env) {
    ORACLE_EVAL(v, Eval(*expr.lhs, env));
    switch (expr.un_op) {
      case UnOp::kNeg:
        if (!v.is_number()) {
          return RuntimeError(expr.line,
                              std::string("attempt to negate a ") + v.TypeName() + " value");
        }
        return Value(-v.as_number());
      case UnOp::kNot:
        return Value(!v.Truthy());
      case UnOp::kLen:
        if (v.is_string()) {
          return Value(static_cast<double>(v.as_string().size()));
        }
        if (v.is_table()) {
          return Value(static_cast<double>(v.as_table()->ArrayLength()));
        }
        return RuntimeError(expr.line, std::string("attempt to get length of a ") +
                                           v.TypeName() + " value");
    }
    return Status::Internal("unhandled unary op");
  }

  ScriptOracle* oracle_;
};

ScriptOracle::ScriptOracle() {
  // The VM renders a closure as "function"; the stdlib would render an
  // oracle function (a host box) as "builtin:function". Wrap the builtins
  // that stringify their arguments so both engines print the same text.
  auto render_from = [this](const char* name, size_t first) {
    Value builtin = interp_.GetGlobal(name);
    interp_.RegisterHostFunction(
        name, [builtin, first](Interpreter& interp, const std::vector<Value>& args) {
          std::vector<Value> shown = args;
          for (size_t i = first; i < shown.size(); ++i) {
            if (IsScriptFunction(shown[i])) {
              shown[i] = Value(kFunctionName);
            }
          }
          return builtin.as_host_function()->fn(interp, shown);
        });
  };
  render_from("print", 0);
  render_from("tostring", 0);
  render_from("error", 0);
  render_from("assert", 1);  // assert returns its first argument unchanged
}

ScriptOracle::~ScriptOracle() {
  // A function stored in a scope it closes over (directly or through an
  // enclosing scope) forms a shared_ptr cycle. Emptying every scope on each
  // captured chain breaks them all.
  for (const ScopePtr& scope : captured_) {
    for (Scope* s = scope.get(); s != nullptr; s = s->parent.get()) {
      s->vars.clear();
    }
  }
  captured_.clear();
}

Value ScriptOracle::Get(const ScopePtr& env, const std::string& name) {
  for (const Scope* s = env.get(); s != nullptr; s = s->parent.get()) {
    auto it = s->vars.find(name);
    if (it != s->vars.end()) {
      return it->second;
    }
  }
  return interp_.GetGlobal(name);
}

void ScriptOracle::Set(const ScopePtr& env, const std::string& name, Value value) {
  for (Scope* s = env.get(); s != nullptr; s = s->parent.get()) {
    auto it = s->vars.find(name);
    if (it != s->vars.end()) {
      it->second = std::move(value);
      return;
    }
  }
  interp_.SetGlobal(name, std::move(value));  // implicit global
}

void ScriptOracle::Define(const ScopePtr& env, const std::string& name, Value value) {
  if (env == nullptr) {
    interp_.SetGlobal(name, std::move(value));
  } else {
    env->vars[name] = std::move(value);
  }
}

Value ScriptOracle::MakeFunction(const Expr& fn, const ScopePtr& env) {
  if (env != nullptr) {
    captured_.insert(env);
  }
  auto call = [this, params = fn.params, is_vararg = fn.is_vararg, body = fn.body,
               env](Interpreter&, const std::vector<Value>& args) {
    return Walker(this).CallFunction(params, is_vararg, *body, env, args);
  };
  return Value::Host(kFunctionName, std::move(call));
}

Status ScriptOracle::Run(const Block& chunk) {
  executed_ = 0;
  Flow flow = Flow::kNormal;
  Value ret;
  return Walker(this).ExecBlock(chunk, nullptr, &flow, &ret);
}

Status ScriptOracle::RunSource(const std::string& source) {
  Result<std::shared_ptr<Block>> chunk = Parse(source);
  if (!chunk.ok()) {
    return chunk.status();
  }
  return Run(*chunk.value());
}

Result<Value> ScriptOracle::Call(const Value& callee, const std::vector<Value>& args) {
  executed_ = 0;
  return Walker(this).CallValue(callee, args, 0);
}

}  // namespace mal::script
