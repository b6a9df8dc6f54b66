// AST -> register bytecode compiler for MalScript. See bytecode.h for the
// instruction set and docs/malscript_vm.md for the design.
#ifndef MALACOLOGY_SCRIPT_COMPILER_H_
#define MALACOLOGY_SCRIPT_COMPILER_H_

#include <memory>

#include "src/common/status.h"
#include "src/script/ast.h"
#include "src/script/bytecode.h"

namespace mal::script {

// Compiles a parsed chunk. Every parsed program either compiles or fails
// with InvalidArgument("bytecode compile: ..."): a function needing more than
// 60,000 registers, captured cells, iterator slots or upvalues is rejected.
// Constant field keys past the pool limit take the dynamic-key path instead.
Result<std::shared_ptr<const CompiledChunk>> CompileToBytecode(const Block& chunk);

}  // namespace mal::script

#endif  // MALACOLOGY_SCRIPT_COMPILER_H_
