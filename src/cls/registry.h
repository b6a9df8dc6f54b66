// Object-class registry: the Data I/O interface (paper §4.2).
//
// Two kinds of classes coexist, exactly as in the paper:
//  - native classes: C++ methods compiled into the system (Ceph's original
//    facility — "written in C++ and statically loaded into the system");
//  - script classes: MalScript sources installed at runtime and versioned
//    through the Service Metadata interface, so they can be evolved
//    "without having to restart the storage system".
//
// The registry also powers the Figure 2 / Table 1 census: every method
// carries a category so benches can reproduce the co-design survey.
#ifndef MALACOLOGY_CLS_REGISTRY_H_
#define MALACOLOGY_CLS_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cls/context.h"
#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/script/interpreter.h"

namespace mal::cls {

// Table 1 categories.
enum class Category { kLogging, kMetadata, kManagement, kLocking, kOther };
const char* CategoryName(Category c);

using NativeMethod = std::function<mal::Result<mal::Buffer>(ClsContext&, const mal::Buffer&)>;

struct MethodInfo {
  std::string cls;
  std::string method;
  Category category = Category::kOther;
  bool is_script = false;
};

class ClassRegistry {
 public:
  // -- native classes ---------------------------------------------------------
  void RegisterNative(const std::string& cls, const std::string& method, Category category,
                      NativeMethod fn);

  // -- script classes ---------------------------------------------------------
  // Installs (or replaces) a script class. The source must compile; its
  // global functions become the class methods. Returns the compile error
  // on failure, leaving any previous version active.
  mal::Status InstallScript(const std::string& cls, const std::string& version,
                            const std::string& source, Category category = Category::kOther);
  // Installed version of a script class ("" if absent).
  std::string ScriptVersion(const std::string& cls) const;

  // -- execution ---------------------------------------------------------------
  // Runs `cls.method` with the given context and input. Script methods are
  // sandboxed by `budget` interpreter instructions. When `script_stats` is
  // non-null and the method is a script, the per-call engine counters are
  // accumulated into it (native methods never touch it).
  mal::Result<mal::Buffer> Execute(const std::string& cls, const std::string& method,
                                   ClsContext& ctx, const mal::Buffer& input,
                                   uint64_t budget = 1'000'000,
                                   script::EngineStats* script_stats = nullptr) const;

  bool HasMethod(const std::string& cls, const std::string& method) const;

  // -- census (Fig 2 / Table 1) -------------------------------------------------
  std::vector<MethodInfo> ListMethods() const;
  size_t NumClasses() const;
  std::map<Category, size_t> MethodCountByCategory() const;

 private:
  struct ScriptClass {
    std::string version;
    std::string source;
    Category category = Category::kOther;
    std::shared_ptr<const script::CompiledChunk> chunk;
    std::vector<std::string> methods;  // global function names in the chunk
  };

  std::map<std::pair<std::string, std::string>, std::pair<Category, NativeMethod>> native_;
  std::map<std::string, ScriptClass> scripts_;
};

// Binds ClsContext operations into a script interpreter as cls_* host
// functions (cls_read, cls_write, cls_omap_get, ...). Exposed for tests.
void BindContext(script::Interpreter* interp, ClsContext* ctx);

}  // namespace mal::cls

#endif  // MALACOLOGY_CLS_REGISTRY_H_
