// Tree-walking reference interpreter for MalScript: the differential oracle
// for the bytecode VM in src/script/. It runs the parser's AST directly, an
// independent second implementation of every semantic corner the compiler
// reproduces (scoping, evaluation order, error text, iteration order).
//
// Globals, host functions and print output live in an ordinary Interpreter,
// so both engines share the stdlib; the oracle keeps its own scope chain,
// budget (one unit per statement, expression and loop iteration) and call
// depth. Script functions are host functions named "function", rendered as
// "function" by the oracle's print/tostring/error/assert, as VM closures are.
#ifndef MALACOLOGY_TESTS_SCRIPT_ORACLE_H_
#define MALACOLOGY_TESTS_SCRIPT_ORACLE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/script/ast.h"
#include "src/script/interpreter.h"
#include "src/script/value.h"

namespace mal::script {

class ScriptOracle {
 public:
  ScriptOracle();
  // Breaks the closure <-> scope reference cycles, so LeakSanitizer sees
  // every scope freed.
  ~ScriptOracle();
  ScriptOracle(const ScriptOracle&) = delete;
  ScriptOracle& operator=(const ScriptOracle&) = delete;

  // Cap on budget units per top-level Run/Call. 0 = unlimited.
  void set_instruction_budget(uint64_t budget) { budget_ = budget; }
  uint64_t instructions_executed() const { return executed_; }

  Interpreter& interp() { return interp_; }

  // Executes a parsed chunk with the globals as its outermost scope.
  Status Run(const Block& chunk);

  // Parses and runs source.
  Status RunSource(const std::string& source);

  // Calls any callable value.
  Result<Value> Call(const Value& callee, const std::vector<Value>& args);

 private:
  struct Scope;
  using ScopePtr = std::shared_ptr<Scope>;
  class Walker;

  // Scope-chain access. A null scope is the globals table.
  Value Get(const ScopePtr& env, const std::string& name);
  void Set(const ScopePtr& env, const std::string& name, Value value);
  void Define(const ScopePtr& env, const std::string& name, Value value);

  // A script function value closing over `env`.
  Value MakeFunction(const Expr& fn, const ScopePtr& env);

  Interpreter interp_;
  uint64_t budget_ = 10'000'000;
  uint64_t executed_ = 0;
  int depth_ = 0;
  int call_line_ = 0;  // line of the call being entered, for depth errors
  std::set<ScopePtr> captured_;  // scopes a function closes over
};

}  // namespace mal::script

#endif  // MALACOLOGY_TESTS_SCRIPT_ORACLE_H_
