// Unit tests for the MalScript engine: lexer, parser, interpreter semantics,
// stdlib, sandboxing, the host-function bridge, compiler limits, and the
// differential tests of the bytecode VM against the tree-walking oracle
// (tests/script_oracle.h).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "src/script/bytecode.h"
#include "src/script/interpreter.h"
#include "src/script/lexer.h"
#include "src/script/parser.h"
#include "tests/script_oracle.h"

namespace mal::script {
namespace {

// Runs source then evaluates the global `result`.
Value RunAndGet(const std::string& source, const std::string& global = "result") {
  Interpreter interp;
  Status s = interp.RunSource(source);
  EXPECT_TRUE(s.ok()) << s.ToString() << " for source:\n" << source;
  return interp.GetGlobal(global);
}

double EvalNumber(const std::string& expr) {
  Value v = RunAndGet("result = " + expr);
  EXPECT_TRUE(v.is_number()) << expr << " -> " << v.ToString();
  return v.is_number() ? v.as_number() : 0;
}

TEST(LexerTest, TokenizesOperatorsAndKeywords) {
  auto tokens = Lex("if x ~= 10 then y = x .. 'z' end");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens.value().size(), 12u);  // includes EOF
  EXPECT_EQ(tokens.value()[0].type, TokenType::kIf);
  EXPECT_EQ(tokens.value()[2].type, TokenType::kNe);
  EXPECT_EQ(tokens.value()[3].type, TokenType::kNumber);
  EXPECT_EQ(tokens.value()[8].type, TokenType::kConcat);
}

TEST(LexerTest, NumbersIncludingHexAndExponent) {
  auto tokens = Lex("1 2.5 0x10 1e3 .5");
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ(tokens.value()[0].number, 1);
  EXPECT_DOUBLE_EQ(tokens.value()[1].number, 2.5);
  EXPECT_DOUBLE_EQ(tokens.value()[2].number, 16);
  EXPECT_DOUBLE_EQ(tokens.value()[3].number, 1000);
  EXPECT_DOUBLE_EQ(tokens.value()[4].number, 0.5);
}

TEST(LexerTest, StringEscapes) {
  auto tokens = Lex(R"(x = "a\n\t\"b")");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[2].text, "a\n\t\"b");
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Lex("a = 1 -- comment to end of line\nb = 2");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value().size(), 7u);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Lex("x = 'oops").ok());
}

TEST(ParserTest, RejectsBadSyntax) {
  EXPECT_FALSE(Parse("if then end").ok());
  EXPECT_FALSE(Parse("x = ").ok());
  EXPECT_FALSE(Parse("function f( end").ok());
  EXPECT_FALSE(Parse("1 + 2").ok());  // expression is not a statement
  EXPECT_FALSE(Parse("while true do").ok());
}

TEST(ParserTest, AcceptsRepresentativePrograms) {
  EXPECT_TRUE(Parse("local x = {a=1, [2]=3, 'arr'}").ok());
  EXPECT_TRUE(Parse("for i = 1, 10, 2 do print(i) end").ok());
  EXPECT_TRUE(Parse("for k, v in pairs(t) do print(k, v) end").ok());
  EXPECT_TRUE(Parse("function a.b.c(x, ...) return x end").ok());
  EXPECT_TRUE(Parse("repeat x = x - 1 until x == 0").ok());
  EXPECT_TRUE(Parse("a, b = b, a").ok());
}

TEST(InterpreterTest, Arithmetic) {
  EXPECT_DOUBLE_EQ(EvalNumber("1 + 2 * 3"), 7);
  EXPECT_DOUBLE_EQ(EvalNumber("(1 + 2) * 3"), 9);
  EXPECT_DOUBLE_EQ(EvalNumber("10 / 4"), 2.5);
  EXPECT_DOUBLE_EQ(EvalNumber("7 % 3"), 1);
  EXPECT_DOUBLE_EQ(EvalNumber("-7 % 3"), 2);  // Lua modulo semantics
  EXPECT_DOUBLE_EQ(EvalNumber("2 ^ 10"), 1024);
  EXPECT_DOUBLE_EQ(EvalNumber("2 ^ 3 ^ 2"), 512);  // right associative
  EXPECT_DOUBLE_EQ(EvalNumber("-2 ^ 2"), -4);      // pow binds tighter than unary minus
  EXPECT_DOUBLE_EQ(EvalNumber("10 - 2 - 3"), 5);   // left associative
}

TEST(InterpreterTest, ComparisonAndLogic) {
  EXPECT_TRUE(RunAndGet("result = 1 < 2 and 'a' < 'b'").as_bool());
  EXPECT_TRUE(RunAndGet("result = not nil").as_bool());
  EXPECT_TRUE(RunAndGet("result = nil == nil").as_bool());
  EXPECT_FALSE(RunAndGet("result = 1 == '1'").as_bool());
  // and/or return operands, not booleans.
  EXPECT_EQ(RunAndGet("result = false or 'fallback'").as_string(), "fallback");
  EXPECT_DOUBLE_EQ(RunAndGet("result = 1 and 2").as_number(), 2);
}

TEST(InterpreterTest, ShortCircuitDoesNotEvaluateRhs) {
  Interpreter interp;
  int calls = 0;
  interp.RegisterHostFunction("boom",
                              [&calls](Interpreter&, const std::vector<Value>&) -> Result<Value> {
                                ++calls;
                                return Value::Nil();
                              });
  ASSERT_TRUE(interp.RunSource("x = false and boom(); y = true or boom()").ok());
  EXPECT_EQ(calls, 0);
}

TEST(InterpreterTest, StringConcat) {
  EXPECT_EQ(RunAndGet("result = 'a' .. 'b' .. 1").as_string(), "ab1");
  EXPECT_EQ(RunAndGet("result = 1 .. 2").as_string(), "12");
}

TEST(InterpreterTest, Tables) {
  Value v = RunAndGet(R"(
    t = {x = 10, [20] = 'twenty', 'first', 'second'}
    result = t.x + #t
  )");
  EXPECT_DOUBLE_EQ(v.as_number(), 12);
  EXPECT_EQ(RunAndGet("t = {}; t[1] = 'a'; result = t[1]").as_string(), "a");
  // Assigning nil removes the key.
  EXPECT_DOUBLE_EQ(RunAndGet("t = {1, 2, 3}; t[3] = nil; result = #t").as_number(), 2);
}

TEST(InterpreterTest, NestedTables) {
  Value v = RunAndGet(R"(
    mds = {}
    mds[0] = {load = 100, cpu = 0.5}
    mds[1] = {load = 20, cpu = 0.1}
    whoami = 0
    result = mds[whoami]["load"] / 2
  )");
  EXPECT_DOUBLE_EQ(v.as_number(), 50);
}

TEST(InterpreterTest, ControlFlow) {
  EXPECT_EQ(RunAndGet(R"(
    x = 7
    if x > 10 then result = 'big'
    elseif x > 5 then result = 'mid'
    else result = 'small' end
  )").as_string(), "mid");

  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    result = 0
    for i = 1, 10 do result = result + i end
  )").as_number(), 55);

  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    result = 0
    for i = 10, 1, -2 do result = result + 1 end
  )").as_number(), 5);

  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    result = 0
    i = 0
    while true do
      i = i + 1
      if i > 4 then break end
      result = result + i
    end
  )").as_number(), 10);

  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    x = 5
    result = 0
    repeat
      result = result + x
      x = x - 1
    until x == 0
  )").as_number(), 15);
}

TEST(InterpreterTest, GenericForIteratesEntries) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    t = {a = 1, b = 2, c = 3}
    result = 0
    for k, v in pairs(t) do result = result + v end
  )").as_number(), 6);
}

TEST(InterpreterTest, FunctionsAndRecursion) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    function fib(n)
      if n < 2 then return n end
      return fib(n-1) + fib(n-2)
    end
    result = fib(15)
  )").as_number(), 610);
}

TEST(InterpreterTest, ClosuresCaptureEnvironment) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    function counter()
      local n = 0
      return function()
        n = n + 1
        return n
      end
    end
    c = counter()
    c()
    c()
    result = c()
  )").as_number(), 3);
}

TEST(InterpreterTest, LocalsShadowGlobals) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    x = 1
    do
      local x = 2
    end
    result = x
  )").as_number(), 1);
}

TEST(InterpreterTest, MultipleAssignmentSwaps) {
  EXPECT_EQ(RunAndGet("a, b = 'x', 'y'; a, b = b, a; result = a .. b").as_string(), "yx");
}

TEST(InterpreterTest, VarargCollectsExtras) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    function sum(...)
      local total = 0
      for i, v in pairs(arg) do total = total + v end
      return total
    end
    result = sum(1, 2, 3, 4)
  )").as_number(), 10);
}

TEST(InterpreterTest, RuntimeErrorsSurface) {
  Interpreter interp;
  EXPECT_EQ(interp.RunSource("x = nil + 1").code(), Code::kInvalidArgument);
  EXPECT_EQ(interp.RunSource("x = {}; y = x.a.b").code(), Code::kInvalidArgument);
  EXPECT_EQ(interp.RunSource("f = 5; f()").code(), Code::kInvalidArgument);
  EXPECT_EQ(interp.RunSource("error('custom')").code(), Code::kAborted);
}

TEST(InterpreterTest, InstructionBudgetAbortsRunawayScript) {
  Interpreter interp;
  interp.set_instruction_budget(10'000);
  Status s = interp.RunSource("while true do end");
  EXPECT_EQ(s.code(), Code::kAborted);
}

TEST(InterpreterTest, BudgetAllowsNormalPolicies) {
  Interpreter interp;
  interp.set_instruction_budget(1'000'000);
  EXPECT_TRUE(interp.RunSource("t = 0; for i = 1, 1000 do t = t + i end").ok());
}

TEST(InterpreterTest, StackOverflowIsCaught) {
  Interpreter interp;
  Status s = interp.RunSource("function f() return f() end f()");
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
}

TEST(InterpreterTest, HostFunctionBridge) {
  Interpreter interp;
  interp.RegisterHostFunction(
      "add", [](Interpreter&, const std::vector<Value>& args) -> Result<Value> {
        return Value(args.at(0).as_number() + args.at(1).as_number());
      });
  ASSERT_TRUE(interp.RunSource("result = add(20, 22)").ok());
  EXPECT_DOUBLE_EQ(interp.GetGlobal("result").as_number(), 42);
}

TEST(InterpreterTest, HostErrorPropagates) {
  Interpreter interp;
  interp.RegisterHostFunction(
      "fail", [](Interpreter&, const std::vector<Value>&) -> Result<Value> {
        return Status::PermissionDenied("nope");
      });
  EXPECT_EQ(interp.RunSource("fail()").code(), Code::kPermissionDenied);
}

TEST(InterpreterTest, CallGlobalFromHost) {
  Interpreter interp;
  ASSERT_TRUE(interp.RunSource("function when(load) return load > 50 end").ok());
  Result<Value> hot = interp.CallGlobal("when", {Value(80.0)});
  ASSERT_TRUE(hot.ok());
  EXPECT_TRUE(hot.value().as_bool());
  Result<Value> cold = interp.CallGlobal("when", {Value(10.0)});
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.value().as_bool());
}

TEST(InterpreterTest, CallGlobalMissingIsNotFound) {
  Interpreter interp;
  EXPECT_EQ(interp.CallGlobal("nope", {}).status().code(), Code::kNotFound);
}

TEST(StdlibTest, PrintCapturesOutput) {
  Interpreter interp;
  ASSERT_TRUE(interp.RunSource("print('hello', 42, true)").ok());
  ASSERT_EQ(interp.print_output().size(), 1u);
  EXPECT_EQ(interp.print_output()[0], "hello\t42\ttrue");
}

TEST(StdlibTest, TypeAndConversion) {
  EXPECT_EQ(RunAndGet("result = type({})").as_string(), "table");
  EXPECT_EQ(RunAndGet("result = type(print)").as_string(), "function");
  EXPECT_DOUBLE_EQ(RunAndGet("result = tonumber('42')").as_number(), 42);
  EXPECT_TRUE(RunAndGet("result = tonumber('4x2')").is_nil());
  EXPECT_EQ(RunAndGet("result = tostring(nil)").as_string(), "nil");
}

TEST(StdlibTest, MathFunctions) {
  EXPECT_DOUBLE_EQ(EvalNumber("math.floor(2.7)"), 2);
  EXPECT_DOUBLE_EQ(EvalNumber("math.ceil(2.1)"), 3);
  EXPECT_DOUBLE_EQ(EvalNumber("math.abs(-5)"), 5);
  EXPECT_DOUBLE_EQ(EvalNumber("math.max(1, 9, 4)"), 9);
  EXPECT_DOUBLE_EQ(EvalNumber("math.min(3, -2, 8)"), -2);
  EXPECT_DOUBLE_EQ(EvalNumber("math.sqrt(16)"), 4);
}

TEST(StdlibTest, StringFunctions) {
  EXPECT_DOUBLE_EQ(EvalNumber("string.len('hello')"), 5);
  EXPECT_EQ(RunAndGet("result = string.sub('hello', 2, 4)").as_string(), "ell");
  EXPECT_EQ(RunAndGet("result = string.sub('hello', -3)").as_string(), "llo");
  EXPECT_DOUBLE_EQ(EvalNumber("string.find('hello', 'll')"), 3);
  EXPECT_TRUE(RunAndGet("result = string.find('hello', 'xyz')").is_nil());
  EXPECT_EQ(RunAndGet("result = string.rep('ab', 3)").as_string(), "ababab");
  EXPECT_EQ(RunAndGet("result = string.upper('aBc')").as_string(), "ABC");
}

TEST(StdlibTest, TableInsertRemove) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    t = {}
    table.insert(t, 'a')
    table.insert(t, 'b')
    table.insert(t, 'c')
    table.remove(t, 1)
    result = #t
  )").as_number(), 2);
  EXPECT_EQ(RunAndGet(R"(
    t = {'a', 'b'}
    result = table.remove(t)
  )").as_string(), "b");
}

TEST(StdlibTest, AssertRaises) {
  Interpreter interp;
  EXPECT_EQ(interp.RunSource("assert(false, 'broken')").code(), Code::kAborted);
  EXPECT_TRUE(interp.RunSource("assert(1 == 1)").ok());
}

// The exact balancer snippet from the paper (Section 6.2.2):
//   targets[whoami+1] = mds[whoami]["load"]/2
TEST(InterpreterTest, PaperMantleSnippetWorks) {
  Interpreter interp;
  auto mds = Table::Make();
  auto server0 = Table::Make();
  server0->Set(TableKey("load"), Value(200.0));
  mds->Set(TableKey(0.0), Value(server0));
  interp.SetGlobal("mds", Value(mds));
  interp.SetGlobal("whoami", Value(0.0));
  auto targets = Table::Make();
  interp.SetGlobal("targets", Value(targets));

  ASSERT_TRUE(interp.RunSource("targets[whoami+1] = mds[whoami][\"load\"]/2").ok());
  EXPECT_DOUBLE_EQ(targets->Get(TableKey(1.0)).as_number(), 100.0);
}

TEST(InterpreterTest, DivisionByZeroFollowsIeee) {
  // Like Lua: x/0 is inf (or nan for 0/0), not an error.
  Value v = RunAndGet("result = 1 / 0");
  ASSERT_TRUE(v.is_number());
  EXPECT_TRUE(std::isinf(v.as_number()));
  Value nan = RunAndGet("result = 0 / 0");
  ASSERT_TRUE(nan.is_number());
  EXPECT_TRUE(std::isnan(nan.as_number()));
}

TEST(InterpreterTest, DeepNestingWithinBudget) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    result = 0
    for i = 1, 10 do
      for j = 1, 10 do
        for k = 1, 10 do
          result = result + 1
        end
      end
    end
  )").as_number(), 1000);
}

TEST(InterpreterTest, TableLengthStopsAtFirstHole) {
  EXPECT_DOUBLE_EQ(RunAndGet("t = {1, 2, 3}; t[5] = 9; result = #t").as_number(), 3);
}

TEST(InterpreterTest, FunctionsAreFirstClassValues) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    ops = {}
    ops.double = function(x) return x * 2 end
    ops.square = function(x) return x * x end
    result = ops.double(3) + ops.square(4)
  )").as_number(), 22);
}

TEST(InterpreterTest, HigherOrderFunctions) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    function apply_twice(f, x) return f(f(x)) end
    result = apply_twice(function(n) return n + 5 end, 1)
  )").as_number(), 11);
}

TEST(InterpreterTest, BreakOnlyExitsInnermostLoop) {
  EXPECT_DOUBLE_EQ(RunAndGet(R"(
    result = 0
    for i = 1, 3 do
      for j = 1, 10 do
        if j == 2 then break end
        result = result + 1
      end
      result = result + 10
    end
  )").as_number(), 33);
}

TEST(InterpreterTest, StringComparisonIsLexicographic) {
  EXPECT_TRUE(RunAndGet("result = 'apple' < 'banana'").as_bool());
  EXPECT_FALSE(RunAndGet("result = 'b' < 'antelope'").as_bool());
  // Comparing across types is an error (not silently false).
  Interpreter interp;
  EXPECT_FALSE(interp.RunSource("x = 1 < 'two'").ok());
}

// Property-style sweep: interpreter arithmetic agrees with C++ for many
// randomized expressions of the form (a op b) op c.
class ArithmeticPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ArithmeticPropertyTest, MatchesNativeEvaluation) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  // Simple deterministic PRN without pulling in Rng (keeps this test
  // independent of src/common).
  auto next = [&seed]() {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>((seed >> 33) % 1000) - 500.0;
  };
  double a = next();
  double b = next();
  double c = next() + 1;  // avoid /0 in the division case
  const char* ops[] = {"+", "-", "*"};
  const char* op1 = ops[static_cast<size_t>(GetParam()) % 3];
  const char* op2 = ops[static_cast<size_t>(GetParam() / 3) % 3];
  std::string expr = "result = (" + std::to_string(a) + " " + op1 + " " + std::to_string(b) +
                     ") " + op2 + " " + std::to_string(c);
  auto apply = [](double x, const char* op, double y) {
    if (op[0] == '+') {
      return x + y;
    }
    if (op[0] == '-') {
      return x - y;
    }
    return x * y;
  };
  double expected = apply(apply(a, op1, b), op2, c);
  EXPECT_NEAR(RunAndGet(expr).as_number(), expected, std::abs(expected) * 1e-9 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomizedExpressions, ArithmeticPropertyTest,
                         ::testing::Range(0, 40));

// ===========================================================================
// Bytecode VM: inline caches, compile cache, print cap, compiler limits, and
// the differential fuzz harness (VM vs the tree-walking oracle).
// ===========================================================================

// Everything externally observable about one engine's execution of a chunk.
struct EngineOutcome {
  Status status = Status::Ok();
  std::vector<std::string> prints;
  std::map<std::string, std::string> scalars;  // scalar globals, rendered
  uint64_t instructions = 0;
};

enum class Engine { kVm, kOracle };

// Budget units differ by engine (one per bytecode op vs one per AST node and
// loop iteration); everything else in EngineOutcome must agree.
EngineOutcome RunOnEngine(const std::string& source, Engine engine, uint64_t budget = 0) {
  Interpreter vm;
  ScriptOracle oracle;
  Interpreter& interp = engine == Engine::kVm ? vm : oracle.interp();
  EngineOutcome out;
  auto run = [&](auto& runner) {
    if (budget != 0) {
      runner.set_instruction_budget(budget);
    }
    out.status = runner.RunSource(source);
    out.instructions = runner.instructions_executed();
  };
  engine == Engine::kVm ? run(vm) : run(oracle);
  out.prints = interp.print_output();
  for (const auto& [name, v] : interp.globals()->local_vars()) {
    // Tables render with their heap address and closures carry no printable
    // identity, so the differential comparison sticks to scalars.
    if (v.is_nil() || v.is_bool() || v.is_number() || v.is_string()) {
      out.scalars[name] = v.ToString();
    }
  }
  return out;
}

void ExpectEnginesAgree(const std::string& source) {
  EngineOutcome vm = RunOnEngine(source, Engine::kVm);
  EngineOutcome oracle = RunOnEngine(source, Engine::kOracle);
  EXPECT_EQ(vm.status.ToString(), oracle.status.ToString()) << source;
  EXPECT_EQ(vm.prints, oracle.prints) << source;
  EXPECT_EQ(vm.scalars, oracle.scalars) << source;
}

TEST(VmTest, DefaultEngineRunsBytecode) {
  Interpreter interp;
  ASSERT_TRUE(interp.RunSource("result = 2 + 3").ok());
  EXPECT_EQ(interp.GetGlobal("result").as_number(), 5);
  EXPECT_EQ(interp.stats().vm_runs, 1u);
}

TEST(VmTest, InstructionBudgetAbortsHotLoop) {
  Interpreter interp;
  interp.set_instruction_budget(1000);
  Status s = interp.RunSource("x = 0 while true do x = x + 1 end");
  EXPECT_EQ(s.code(), Code::kAborted);
  EXPECT_NE(s.ToString().find("instruction budget"), std::string::npos);
  EXPECT_EQ(interp.stats().vm_runs, 1u);
}

TEST(VmTest, FieldInlineCacheHitsOnHotLoop) {
  Interpreter interp;
  ASSERT_TRUE(interp
                  .RunSource("t = {x = 1}\n"
                             "sum = 0\n"
                             "for i = 1, 100 do sum = sum + t.x end\n"
                             "result = sum")
                  .ok());
  EXPECT_EQ(interp.GetGlobal("result").as_number(), 100);
  // The t.x site misses once and hits on every later iteration.
  EXPECT_GT(interp.stats().ic_hits, 90u);
  EXPECT_LT(interp.stats().ic_misses, 10u);
}

TEST(VmTest, InlineCacheInvalidatedByShapeChange) {
  Interpreter interp;
  ASSERT_TRUE(interp
                  .RunSource("t = {x = 1}\n"
                             "a = t.x\n"
                             "t.y = 2\n"       // insert: shape changes
                             "b = t.x\n"       // stale cache must re-resolve
                             "t.x = nil\n"     // erase: shape changes
                             "c = t.x\n"
                             "result = tostring(a) .. ',' .. tostring(b) .. ',' .. tostring(c)")
                  .ok());
  EXPECT_EQ(interp.GetGlobal("result").as_string(), "1,1,nil");
}

TEST(VmTest, CachedFieldAbsenceSeesLaterInsert) {
  Interpreter interp;
  ASSERT_TRUE(interp
                  .RunSource("t = {}\n"
                             "miss = t.v\n"    // caches the absence
                             "t.v = 9\n"
                             "result = t.v")
                  .ok());
  EXPECT_TRUE(interp.GetGlobal("miss").is_nil());
  EXPECT_EQ(interp.GetGlobal("result").as_number(), 9);
}

TEST(VmTest, ValueUpdateKeepsShapeAndCache) {
  // Overwriting an existing key must NOT bump the shape: the whole point of
  // the IC is that hot read-modify-write loops stay cached.
  Interpreter interp;
  ASSERT_TRUE(interp
                  .RunSource("t = {n = 0}\n"
                             "for i = 1, 50 do t.n = t.n + 1 end\n"
                             "result = t.n")
                  .ok());
  EXPECT_EQ(interp.GetGlobal("result").as_number(), 50);
  EXPECT_GT(interp.stats().ic_hits, 80u);  // read site + write site both hot
}

TEST(VmTest, PrintOutputCapDropsAndCounts) {
  Interpreter interp;
  interp.set_print_limit(10);
  ASSERT_TRUE(interp.RunSource("for i = 1, 25 do print(i) end").ok());
  EXPECT_EQ(interp.print_output().size(), 10u);
  EXPECT_EQ(interp.print_output()[0], "1");
  EXPECT_EQ(interp.stats().print_dropped, 15u);
  // Draining the buffer makes room again.
  interp.print_output().clear();
  ASSERT_TRUE(interp.RunSource("print('more')").ok());
  EXPECT_EQ(interp.print_output().size(), 1u);
}

TEST(VmTest, CompileCacheSharesChunksBySource) {
  CompileCacheStats before = GetCompileCacheStats();
  const std::string source = "compile_cache_probe = 11119999";
  auto first = Compile(source);
  ASSERT_TRUE(first.ok());
  auto second = Compile(source);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  CompileCacheStats after = GetCompileCacheStats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_GE(after.hits, before.hits + 1);
  EXPECT_FALSE(first.value()->protos.empty());
}

// A program with more distinct constant field keys than the compiler's key
// pool holds (65,000). Keys past the limit take the dynamic-key path; a key
// first seen after the pool filled must still resolve to itself when reused.
TEST(VmTest, FieldKeyPoolOverflowTakesDynamicKeyPath) {
  std::string source = "t = {}\n";
  for (int i = 0; i < 65000; ++i) {
    source += "t.k" + std::to_string(i) + " = " + std::to_string(i) + "\n";
  }
  source += "t.last = 'last'\nresult = t.last .. ':' .. t.k0 .. ':' .. t.k64999";
  Interpreter interp;
  Status s = interp.RunSource(source);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(interp.stats().vm_runs, 1u);
  EXPECT_EQ(interp.GetGlobal("result").as_string(), "last:0:64999");
}

TEST(VmTest, TableConstructorPastFieldKeyPool) {
  std::string source = "t = {";
  for (int i = 0; i < 65000; ++i) {
    source += "0, ";
  }
  source += "'end'}\nresult = #t .. ':' .. t[65001]";
  Interpreter interp;
  Status s = interp.RunSource(source);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(interp.stats().vm_runs, 1u);
  EXPECT_EQ(interp.GetGlobal("result").as_string(), "65001:end");
}

// `function f() local v0 = 0 ... end` with n locals, all live at the end of
// the body. With `captured`, a nested function reads every one of them, so
// they need heap cells instead of registers.
std::string FunctionWithLocals(int n, bool captured) {
  std::string source = "function f()\n";
  for (int i = 0; i < n; ++i) {
    source += "local v" + std::to_string(i) + " = " + std::to_string(i) + "\n";
  }
  if (captured) {
    source += "return function()\nlocal s = 0\n";
    for (int i = 0; i < n; ++i) {
      source += "s = v" + std::to_string(i) + "\n";
    }
    source += "return s\nend\n";
  }
  return source + "end\nresult = 1";
}

// Script sources come from clients: a program past the compiler's limits is
// rejected with a compile error, like a parse error, and never runs.
TEST(VmTest, OverLargeFunctionIsACompileError) {
  for (bool captured : {false, true}) {
    std::string source = FunctionWithLocals(60001, captured);
    Result<std::shared_ptr<const CompiledChunk>> chunk = Compile(source);
    ASSERT_FALSE(chunk.ok()) << "captured=" << captured;
    EXPECT_EQ(chunk.status().code(), Code::kInvalidArgument);
    const char* want =
        captured ? "bytecode compile: cell overflow" : "bytecode compile: register overflow";
    EXPECT_EQ(chunk.status().message(), want);
    Interpreter interp;
    EXPECT_EQ(interp.RunSource(source).code(), Code::kInvalidArgument);
    EXPECT_EQ(interp.stats().vm_runs, 0u);
    EXPECT_TRUE(interp.GetGlobal("result").is_nil());
  }
  // Just under the limit compiles and runs.
  Interpreter interp;
  ASSERT_TRUE(interp.RunSource(FunctionWithLocals(59000, false)).ok());
  EXPECT_EQ(interp.GetGlobal("result").as_number(), 1);
}

// The VM dispatches with computed gotos, which leave an opcode body without
// running destructors; a body must not hold an object with one at the
// jump. This drives every body that builds strings or table keys over
// registers that already hold heap strings, so LeakSanitizer (the sanitize
// build) catches a body that keeps one.
TEST(VmTest, OpcodeBodiesReleaseStringsBeforeDispatch) {
  const std::string source =
      "function f()\n"
      "  local k = 'a table key longer than fifteen bytes'\n"
      "  local t = {}\n"
      "  local s = string.rep('x', 40)\n"
      "  for i = 1, 4 do\n"
      "    t[k .. i] = k .. k\n"
      "    s = t[k .. i]\n"
      "    s = string.rep('y', 40 + i)\n"
      "    s = s .. k\n"
      "  end\n"
      "  return #s\n"
      "end\n"
      "result = f()";
  Interpreter interp;
  ASSERT_TRUE(interp.RunSource(source).ok());
  EXPECT_EQ(interp.GetGlobal("result").as_number(), 44 + 37);
}

// Everything the compiler decides about a chunk, one item per line: each
// Proto's frame shape, upvalue descriptors and instructions, then the
// shared pools. Numbers print as their bit patterns, so two listings are
// equal exactly when the chunks are.
std::string ChunkListing(const CompiledChunk& chunk) {
  auto bits = [](double d) {
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    char buf[24];
    std::snprintf(buf, sizeof(buf), "#%016llx", static_cast<unsigned long long>(u));
    return std::string(buf);
  };
  auto key = [&](const TableKey& k) {
    return std::holds_alternative<double>(k.k) ? bits(std::get<double>(k.k))
                                               : "'" + std::get<std::string>(k.k) + "'";
  };
  std::string out;
  for (size_t i = 0; i < chunk.protos.size(); ++i) {
    const Proto& p = *chunk.protos[i];
    out += "proto " + std::to_string(i) + " params=" + std::to_string(p.num_params) +
           " vararg=" + std::to_string(p.is_vararg) + " regs=" + std::to_string(p.num_regs) +
           " cells=" + std::to_string(p.num_cells) + " iters=" + std::to_string(p.num_iters) +
           "\n";
    for (const UpvalDesc& u : p.upvals) {
      out += (u.src == UpvalDesc::Src::kParentCell ? " upval cell " : " upval upval ") +
             std::to_string(u.index) + "\n";
    }
    for (const Instr& in : p.code) {
      out += " " + std::to_string(static_cast<int>(in.op)) + " " + std::to_string(in.a) +
             " " + std::to_string(in.b) + " " + std::to_string(in.c) + " " +
             std::to_string(in.d) + " @" + std::to_string(in.line) + "\n";
    }
  }
  for (const Value& v : chunk.consts) {
    out += "const " + (v.is_number() ? bits(v.as_number()) : "'" + v.as_string() + "'") + "\n";
  }
  for (const TableKey& k : chunk.field_keys) {
    out += "field_key " + key(k) + "\n";
  }
  for (const std::string& g : chunk.global_names) {
    out += "global " + g + "\n";
  }
  return out + "field_ics " + std::to_string(chunk.num_field_ics) + "\n";
}

std::shared_ptr<const CompiledChunk> MustCompile(const std::string& source) {
  Result<std::shared_ptr<const CompiledChunk>> chunk = Compile(source);
  EXPECT_TRUE(chunk.ok()) << chunk.status() << "\n" << source;
  return chunk.ok() ? chunk.value() : std::make_shared<CompiledChunk>();
}

// pcs of `op` in a proto's code.
std::vector<size_t> PcsOf(const Proto& p, Op op) {
  std::vector<size_t> pcs;
  for (size_t pc = 0; pc < p.code.size(); ++pc) {
    if (p.code[pc].op == op) {
      pcs.push_back(pc);
    }
  }
  return pcs;
}

// Capture analysis, pinned through the compiled chunk. Protos are numbered
// in source order of their function expressions (0 is the chunk).
TEST(VmTest, UncapturedLocalsStayInRegisters) {
  // `x` is read only by f itself; g binds its own `y`, so the `y` of f is
  // not free in g either.
  const std::string source =
      "function f(a)\n"
      "  local x = a + 1\n"
      "  local y = 2\n"
      "  local g = function(b) local y = b return y * 2 end\n"
      "  return g(x) + y\n"
      "end\n"
      "result = f(3)";
  std::shared_ptr<const CompiledChunk> chunk = MustCompile(source);
  ASSERT_EQ(chunk->protos.size(), 3u) << ChunkListing(*chunk);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(chunk->protos[i]->num_cells, 0u) << "proto " << i;
    EXPECT_TRUE(PcsOf(*chunk->protos[i], Op::kNewCell).empty()) << "proto " << i;
    EXPECT_TRUE(chunk->protos[i]->upvals.empty()) << "proto " << i;
  }
  ExpectEnginesAgree(source);
}

TEST(VmTest, CaptureTwoFunctionsUpGetsCellInDeclaringBlock) {
  // `x` lives in f's do-block and `a` in f's body block; both are read two
  // function levels down, and the middle function only relays them.
  const std::string source =
      "function f()\n"
      "  local a = 1\n"
      "  do\n"
      "    local x = 10\n"
      "    g = function() return function() return x + a end end\n"
      "    x = x + 5\n"
      "  end\n"
      "  return a\n"
      "end\n"
      "f() result = g()()";
  std::shared_ptr<const CompiledChunk> chunk = MustCompile(source);
  ASSERT_EQ(chunk->protos.size(), 4u) << ChunkListing(*chunk);
  const Proto& f = *chunk->protos[1];
  const Proto& middle = *chunk->protos[2];
  const Proto& inner = *chunk->protos[3];
  // `a` is captured too, in f's body block: its cell opens at pc 0. `x`'s
  // cell opens when the do-block is entered, after `local a = 1`.
  EXPECT_EQ(f.num_cells, 2u);
  EXPECT_EQ(PcsOf(f, Op::kNewCell), (std::vector<size_t>{0, 3})) << ChunkListing(*chunk);
  EXPECT_TRUE(f.upvals.empty());
  EXPECT_EQ(middle.num_cells, 0u);
  ASSERT_EQ(middle.upvals.size(), 2u);
  ASSERT_EQ(inner.upvals.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(middle.upvals[i].src, UpvalDesc::Src::kParentCell);
    EXPECT_EQ(inner.upvals[i].src, UpvalDesc::Src::kParentUpval);
    EXPECT_EQ(inner.upvals[i].index, i);
  }
  // x (cell 1 of f, the do-block's) is resolved first, then a (cell 0).
  EXPECT_EQ(middle.upvals[0].index, 1u);
  EXPECT_EQ(middle.upvals[1].index, 0u);
  ExpectEnginesAgree(source);
}

TEST(VmTest, LoopBodyCaptureGetsFreshCellPerIteration) {
  // Both the body local `x` and the loop variable `i` are captured; their
  // cells open inside the body, which the loop's back edge re-enters.
  const std::string source =
      "function f()\n"
      "  local fns = {}\n"
      "  for i = 1, 3 do\n"
      "    local x = i * 10\n"
      "    fns[i] = function() return x + i end\n"
      "  end\n"
      "  local n = 0\n"
      "  while n < 2 do\n"
      "    n = n + 1\n"
      "    local y = n\n"
      "    fns[3 + n] = function() return y end\n"
      "  end\n"
      "  return fns\n"
      "end\n"
      "local fns = f()\n"
      "result = fns[1]() + fns[2]() + fns[3]() + fns[4]() + fns[5]()";
  std::shared_ptr<const CompiledChunk> chunk = MustCompile(source);
  ASSERT_EQ(chunk->protos.size(), 4u) << ChunkListing(*chunk);
  const Proto& f = *chunk->protos[1];
  EXPECT_EQ(f.num_cells, 3u);
  std::vector<size_t> cells = PcsOf(f, Op::kNewCell);
  std::vector<size_t> for_loop = PcsOf(f, Op::kForLoop);
  std::vector<size_t> back_jumps;
  for (size_t pc : PcsOf(f, Op::kJmp)) {
    if (static_cast<size_t>(f.code[pc].d) < pc) {
      back_jumps.push_back(pc);
    }
  }
  ASSERT_EQ(cells.size(), 3u) << ChunkListing(*chunk);
  ASSERT_EQ(for_loop.size(), 1u);
  ASSERT_EQ(back_jumps.size(), 1u);
  // i and x: inside the numeric-for body, after the back edge's target.
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_LE(static_cast<size_t>(f.code[for_loop[0]].d), cells[k]);
    EXPECT_LT(cells[k], for_loop[0]);
  }
  // y: inside the while body.
  EXPECT_LE(static_cast<size_t>(f.code[back_jumps[0]].d), cells[2]);
  EXPECT_LT(cells[2], back_jumps[0]);
  Interpreter interp;
  ASSERT_TRUE(interp.RunSource(source).ok());
  EXPECT_EQ(interp.GetGlobal("result").as_number(), 10 + 1 + 20 + 2 + 30 + 3 + 1 + 2);
  ExpectEnginesAgree(source);
}

TEST(VmTest, ClosureCapturesFreshCellPerIteration) {
  Interpreter interp;
  ASSERT_TRUE(interp
                  .RunSource("fns = {}\n"
                             "for i = 1, 3 do\n"
                             "  local x = i * 10\n"
                             "  fns[i] = function() return x end\n"
                             "end\n"
                             "result = fns[1]() + fns[2]() + fns[3]()")
                  .ok());
  EXPECT_EQ(interp.GetGlobal("result").as_number(), 60);
}

TEST(VmTest, LocalFunctionRecursionViaCell) {
  Interpreter interp;
  ASSERT_TRUE(interp
                  .RunSource("local function fact(n)\n"
                             "  if n < 2 then return 1 end\n"
                             "  return n * fact(n - 1)\n"
                             "end\n"
                             "result = fact(6)")
                  .ok());
  EXPECT_EQ(interp.GetGlobal("result").as_number(), 720);
  EXPECT_EQ(interp.stats().vm_runs, 1u);
}

TEST(VmTest, UpvalueWritesSharedBetweenClosures) {
  ExpectEnginesAgree(
      "local function make()\n"
      "  local n = 0\n"
      "  local inc = function() n = n + 1 end\n"
      "  local get = function() return n end\n"
      "  return {inc = inc, get = get}\n"
      "end\n"
      "c = make()\n"
      "c.inc() c.inc() c.inc()\n"
      "result = c.get()\n"
      "print(result)");
}

// -- Handwritten differential corpus: the semantic corners the compiler had
// -- to reproduce exactly (scoping, evaluation order, error text, iteration
// -- order). Every program must behave identically on both engines.
const char* const kHandwrittenCorpus[] = {
    // Scoping and shadowing.
    "x = 1 do local x = 2 print(x) end print(x)",
    "local a = 1 local a = a + 1 result = a",
    "for i = 1, 3 do local v = i end result = v",
    "i = 99 for i = 1, 2 do end result = i",
    // Repeat: condition sees body locals; body re-runs until true.
    "n = 0 repeat local done = n > 2 n = n + 1 until done result = n",
    // Numeric for: fractional and negative steps, error precedence.
    "s = 0 for i = 1, 2, 0.5 do s = s + i end result = s",
    "s = 0 for i = 5, 1, -2 do s = s + i end result = s",
    "for i = 1, 10, 0 do end",
    "for i = 'a', 2 do end",
    "for i = 1, {} do end",
    // Generic for: snapshot order with mixed keys; only two names bind.
    "t = {10, 20, x = 's', [2.5] = 'h'} o = '' for k, v in pairs(t) do o = o "
    ".. tostring(k) .. '=' .. tostring(v) .. ';' end result = o",
    "t = {3, 1} c = 0 for k in pairs(t) do c = c + k end result = c",
    "for k, v in pairs(42) do end",
    // Mutation during generic-for (snapshot semantics).
    "t = {1, 2} o = 0 for k, v in pairs(t) do t[k + 10] = v o = o + v end "
    "result = o",
    // break / while.
    "x = 0 while x < 100 do x = x + 1 if x > 4 then break end end result = x",
    "result = 0 break result = 1",  // break outside a loop unwinds the call
    // Multiple assignment: values before targets, left-to-right stores.
    "a = 1 b = 2 a, b = b, a result = a * 10 + b",
    "t = {} i = 1 t[i], i = 99, 2 result = t[1] + i",
    "a, b, c = 1, 2 result = tostring(c)",
    // Table constructor evaluation order and dynamic keys.
    "n = 0 local function bump() n = n + 1 return n end "
    "t = {bump(), bump(), [bump()] = bump()} result = n .. ':' .. t[1]",
    "t = {[1 + 1] = 'two'} result = t[2]",
    "k = nil t = {} t[k] = 1",  // nil key error
    // Arithmetic / comparison / concat error text parity.
    "result = 1 + nil",
    "result = nil + 1",
    "result = 'a' < 1",
    "result = {} .. 'x'",
    "result = -{}",
    "result = #true",
    "result = not nil",
    "local f f()",
    // Short-circuit evaluation skips side effects.
    "n = 0 local function side() n = n + 1 return true end "
    "x = false and side() y = true or side() result = n",
    "result = (nil and 1) or 'fallback'",
    // String/number coercion in concat; tostring/tonumber round trips.
    "result = 1 .. 2.5 .. 'x'",
    "result = tonumber('0x10') + tonumber('1e2')",
    "result = tostring(1/0) .. tostring(0/0)",
    // Lua modulo and IEEE corners (must fold identically too).
    "result = -7 % 3",
    "result = 7 % -3",
    "result = 2^10 + 10 % 3",
    "result = (0/0) == (0/0)",
    "result = -0.0 .. ''",
    // Varargs.
    "function f(a, ...) return a + arg[1] + #arg end result = f(1, 2, 3)",
    "function f(...) return #arg end result = f()",
    // Deep call chains and recursion depth error.
    "local function rec(n) return rec(n + 1) end rec(0)",
    "local function fib(n) if n < 2 then return n end return fib(n-1) + "
    "fib(n-2) end result = fib(12)",
    // Host function errors propagate unchanged.
    "error('boom')",
    "assert(false, 'custom msg')",
    // Globals defined inside functions; implicit global writes.
    "function set() g_from_fn = 123 end set() result = g_from_fn",
    // Stdlib over both engines (library calls are t.field reads, so they
    // also exercise the field ICs).
    "result = string.sub('hello', 2, 4) .. string.upper('x') .. "
    "string.rep('ab', 2)",
    "t = {5, 3} table.insert(t, 8) result = table.remove(t) + #t",
    "result = math.floor(2.7) + math.max(1, 9, 4) + math.abs(-2)",
    "result = string.len('abc') + string.find('hello', 'll')",
    "result = math.sqrt(-1) == math.sqrt(-1)",
    // Function values: type, rendering and identity.
    "local f = function() end local g = f print(f, type(f), tostring(f)) "
    "result = tostring(f == g) .. tostring(f == function() end) .. type(assert(f))",
    "error(function() end)",
};

TEST(VmDifferentialTest, HandwrittenCorpusAgrees) {
  for (const char* source : kHandwrittenCorpus) {
    ExpectEnginesAgree(source);
  }
}

// -- Seeded random program generator for the differential fuzz. Constraints:
// --  * every loop is iteration-bounded (no budget-dependent outcomes);
// --  * locals get globally unique names (avoids the one documented
// --    divergence: closures over a later same-name local);
// --  * tables hold only scalars and only scalar expressions are printed
// --    (table rendering includes heap addresses).
// -- Closure shapes (cases 8, 10-13): a capture near the top level, a
// -- function in a function, a local declared after the function that
// -- names it, closures made in loop bodies, and a captured block local.
class ProgramGen {
 public:
  explicit ProgramGen(uint32_t seed) : rng_(seed) {}

  std::string Generate() {
    out_.clear();
    locals_.clear();
    next_local_ = 0;
    fn_count_ = 2;  // gf1, gf2 defined in the prologue
    out_ +=
        "ga = 1 gb = 2 gc = 3 gs = ''\n"
        "t1 = {7, 2, x = 3, y = 4, count = 0} t2 = {x = 1, y = 2, count = 5}\n"
        "function gf1(p) return p + 1 end\n"
        "function gf2(p, q) if p then return q end return 0 end\n";
    int stmts = 3 + R(6);
    for (int i = 0; i < stmts; ++i) {
      Stmt(0);
    }
    out_ += "result = " + NumExpr(0) + "\n";
    return out_;
  }

 private:
  int R(int n) { return static_cast<int>(rng_() % static_cast<uint32_t>(n)); }

  std::string Num() {
    switch (R(6)) {
      case 0:
        return std::to_string(R(10));
      case 1:
        return std::to_string(R(40) - 20);
      case 2:
        return std::to_string(R(8)) + ".5";
      case 3:
        return "0";
      default:
        return std::to_string(1 + R(5));
    }
  }

  std::string Str() {
    static const char* kStrs[] = {"'a'", "'bc'", "''", "'key'", "'0'"};
    return kStrs[R(5)];
  }

  std::string Var() {
    static const char* kGlobals[] = {"ga", "gb", "gc"};
    if (!locals_.empty() && R(2) == 0) {
      return locals_[R(static_cast<int>(locals_.size()))];
    }
    return kGlobals[R(3)];
  }

  std::string Field() {
    static const char* kFields[] = {"x", "y", "count"};
    std::string t = R(2) == 0 ? "t1" : "t2";
    if (R(4) == 0) {
      return "t1[" + std::to_string(1 + R(2)) + "]";  // initialized slots
    }
    return t + "." + kFields[R(3)];
  }

  // Mostly numeric-valued. Variables and fields occasionally hold strings or
  // booleans (see Stmt), so type-error paths still get differential
  // coverage — just not on most programs.
  std::string NumExpr(int depth) {
    if (depth > 3) {
      return R(2) == 0 ? Num() : Var();
    }
    switch (R(12)) {
      case 0:
      case 1:
        return Num();
      case 2:
      case 3:
        return Var();
      case 4:
        return Field();
      case 5:
      case 6: {
        static const char* kOps[] = {" + ", " - ", " * ", " % ", " / "};
        return "(" + NumExpr(depth + 1) + kOps[R(5)] + NumExpr(depth + 1) + ")";
      }
      case 7:
        // Always-scalar select: (cmp and X or Y).
        return "((" + NumExpr(depth + 1) + Cmp() + NumExpr(depth + 1) + ") and " +
               NumExpr(depth + 1) + " or " + NumExpr(depth + 1) + ")";
      case 8:
        return "(- " + NumExpr(depth + 1) + ")";  // "--" would open a comment
      case 9:
        return "gf1(" + NumExpr(depth + 1) + ")";
      case 10:
        return "gf2(" + NumExpr(depth + 1) + ", " + NumExpr(depth + 1) + ")";
      default:
        return "(" + NumExpr(depth + 1) + " % 7)";
    }
  }

  std::string Cmp() {
    // Biased toward ==/~= (valid for any operand types); ordered compares
    // error on mixed types, which is wanted coverage but not on most runs.
    static const char* kCmp[] = {" == ", " ~= ", " < ", " <= ", " > "};
    return kCmp[R(10) < 6 ? R(2) : 2 + R(3)];
  }

  std::string StrExpr(int depth) {
    if (depth > 2) {
      return Str();
    }
    switch (R(4)) {
      case 0:
        return Str();
      case 1:
        return "tostring(" + NumExpr(depth + 1) + ")";
      case 2:
        return "(" + StrExpr(depth + 1) + " .. " + StrExpr(depth + 1) + ")";
      default:
        return "string.sub(" + StrExpr(depth + 1) + ", 1, 2)";
    }
  }

  // Right-hand side for assignments: mostly numeric, sometimes a string or
  // boolean so later numeric uses of the target exercise error parity.
  std::string AnyExpr() {
    int roll = R(20);
    if (roll < 17) {
      return NumExpr(0);
    }
    if (roll < 19) {
      return StrExpr(0);
    }
    return "(" + NumExpr(1) + Cmp() + NumExpr(1) + ")";
  }

  // A unique name NOT registered as a reference target. Loop counters use
  // this: if nested random statements could assign to a while/repeat
  // counter, the loop could become unbounded and hit the instruction budget
  // (where the two engines legitimately abort at different points).
  std::string FreshName() { return "l" + std::to_string(next_local_++); }

  std::string FreshLocal() {
    std::string name = FreshName();
    locals_.push_back(name);
    return name;
  }

  std::string FreshFunction() { return "uf" + std::to_string(fn_count_++); }

  void Stmt(int depth) {
    switch (R(depth > 1 ? 6 : 14)) {
      case 0:
        out_ += Var() + " = " + AnyExpr() + "\n";
        break;
      case 1:
        out_ += "local " + FreshLocal() + " = " + AnyExpr() + "\n";
        break;
      case 2:
        out_ += Field() + " = " + NumExpr(0) + "\n";
        break;
      case 3:
        out_ += "print(" + (R(3) == 0 ? StrExpr(0) : NumExpr(0)) + ")\n";
        break;
      case 4: {
        out_ += "if " + NumExpr(0) + Cmp() + NumExpr(0) + " then\n";
        Stmt(depth + 1);
        if (R(2) == 0) {
          out_ += "else\n";
          Stmt(depth + 1);
        }
        out_ += "end\n";
        break;
      }
      case 5: {
        std::string i = FreshName();
        out_ += "for " + i + " = 1, " + std::to_string(1 + R(5)) +
                (R(3) == 0 ? ", 0.5" : "") + " do\n";
        Stmt(depth + 1);
        if (R(4) == 0) {
          out_ += "if " + i + " > 2 then break end\n";
        }
        out_ += "end\n";
        break;
      }
      case 6: {
        std::string c = FreshName();
        out_ += "local " + c + " = 0\n";
        out_ += "while " + c + " < " + std::to_string(2 + R(4)) + " do\n";
        out_ += c + " = " + c + " + 1\n";
        Stmt(depth + 1);
        out_ += "end\n";
        break;
      }
      case 7: {
        out_ += "for k_it, v_it in pairs(t1) do\n";
        out_ += "gs = gs .. tostring(k_it) .. tostring(v_it)\n";
        out_ += "end\n";
        break;
      }
      case 8: {
        // Function definition capturing an earlier local through a cell.
        std::string cap = FreshLocal();
        std::string fn = FreshFunction();
        out_ += "local " + cap + " = " + Num() + "\n";
        out_ += "function " + fn + "(p)\n  " + cap + " = " + cap +
                " + 1\n  return p + " + cap + "\nend\n";
        out_ += Var() + " = " + fn + "(" + Num() + ")\n";
        break;
      }
      case 9: {
        std::string c = FreshName();
        out_ += "local " + c + " = 0\n";
        out_ += "repeat " + c + " = " + c + " + 1\n";
        Stmt(depth + 1);
        out_ += "until " + c + " >= " + std::to_string(1 + R(3)) + "\n";
        break;
      }
      case 10: {
        // A function inside a function: the inner one updates the outer
        // one's local and hands it, with the outer parameter, two levels
        // down.
        std::string fn = FreshFunction();
        std::string a = FreshName();
        std::string inner = FreshName();
        out_ += "function " + fn + "(p)\n";
        out_ += "  local " + a + " = " + Num() + "\n";
        out_ += "  local " + inner + " = function(q)\n";
        out_ += "    " + a + " = " + a + " + q\n";
        out_ += "    return function() return " + a + " + p + " + NumExpr(2) + " end\n";
        out_ += "  end\n";
        out_ += "  return " + inner + "(" + Num() + ")() + " + a + "\n";
        out_ += "end\n";
        out_ += Var() + " = " + fn + "(" + NumExpr(1) + ")\n";
        break;
      }
      case 11: {
        // Whole-scope rule: the function names a local its block declares
        // only later; it runs after the declaration.
        std::string fn = FreshFunction();
        std::string late = FreshName();
        out_ += "do\n";
        out_ += "function " + fn + "(p) return p + " + late + " end\n";
        Stmt(depth + 1);
        out_ += "local " + late + " = " + Num() + "\n";
        out_ += Var() + " = " + fn + "(" + Num() + ")\n";
        out_ += "end\n";
        break;
      }
      case 12: {
        // Closures made in a loop body: each iteration calls the previous
        // iteration's closure, which must still see its own cells.
        std::string sum = FreshName();
        std::string prev = FreshName();
        std::string x = FreshName();
        std::string captured = x;
        out_ += "local " + sum + " = 0\n";
        out_ += "local " + prev + " = nil\n";
        if (R(2) == 0) {
          std::string i = FreshName();
          out_ += "for " + i + " = 1, " + std::to_string(2 + R(3)) + " do\n";
          out_ += "local " + x + " = " + i + " * " + Num() + "\n";
          captured += " + " + i;
        } else {
          std::string c = FreshName();
          out_ += "local " + c + " = 0\n";
          out_ += "while " + c + " < " + std::to_string(2 + R(3)) + " do\n";
          out_ += c + " = " + c + " + 1\n";
          out_ += "local " + x + " = " + c + " + " + Num() + "\n";
        }
        out_ += "if " + prev + " then " + sum + " = " + sum + " + " + prev + "() end\n";
        out_ += prev + " = function() " + x + " = " + x + " + 1 return " + captured +
                " end\n";
        Stmt(depth + 1);
        out_ += "end\n";
        out_ += Var() + " = " + sum + "\n";
        break;
      }
      default: {
        // A block local (a chunk-level one at depth 0) captured by a
        // function that outlives the block.
        std::string fn = FreshFunction();
        std::string x = FreshName();
        out_ += "do\n";
        out_ += "local " + x + " = " + Num() + "\n";
        out_ += "function " + fn + "(p) " + x + " = " + x + " + p return " + x + " + " +
                NumExpr(2) + " end\n";
        Stmt(depth + 1);
        out_ += "end\n";
        out_ += Var() + " = " + fn + "(" + Num() + ") + " + fn + "(1)\n";
        break;
      }
    }
  }

  std::mt19937 rng_;
  std::string out_;
  std::vector<std::string> locals_;
  int next_local_ = 0;
  int fn_count_ = 0;
};

// 512 seeded random programs; both engines must agree on results, prints,
// and error statuses. Every 16th seed also pins down the budget-abort
// boundary per engine (the abort points legitimately differ between
// engines — one walker tick per AST node vs one per bytecode op — but each
// engine's boundary must be exact and stable).
TEST(VmDifferentialTest, FuzzedProgramsAgree) {
  int error_programs = 0;
  for (uint32_t seed = 0; seed < 512; ++seed) {
    ProgramGen gen(seed);
    std::string source = gen.Generate();
    EngineOutcome vm = RunOnEngine(source, Engine::kVm);
    EngineOutcome oracle = RunOnEngine(source, Engine::kOracle);
    ASSERT_EQ(vm.status.ToString(), oracle.status.ToString())
        << "seed " << seed << "\n" << source;
    ASSERT_EQ(vm.prints, oracle.prints) << "seed " << seed << "\n" << source;
    ASSERT_EQ(vm.scalars, oracle.scalars) << "seed " << seed << "\n" << source;
    if (!vm.status.ok()) {
      ++error_programs;
    }
    if (seed % 16 == 0 && vm.status.ok()) {
      for (Engine engine : {Engine::kVm, Engine::kOracle}) {
        EngineOutcome full = RunOnEngine(source, engine);
        ASSERT_GT(full.instructions, 0u) << "seed " << seed;
        EngineOutcome exact = RunOnEngine(source, engine, full.instructions);
        EXPECT_TRUE(exact.status.ok())
            << "seed " << seed << " engine " << static_cast<int>(engine)
            << ": budget == consumption must still succeed";
        EngineOutcome starved =
            RunOnEngine(source, engine, full.instructions - 1);
        EXPECT_EQ(starved.status.code(), Code::kAborted)
            << "seed " << seed << " engine " << static_cast<int>(engine);
      }
    }
  }
  // The generator intentionally produces some type-error programs, but most
  // must run to completion for the comparison to mean anything.
  EXPECT_LT(error_programs, 512 / 2);
  EXPECT_GT(error_programs, 0);
}

}  // namespace
}  // namespace mal::script
