#include "src/cls/registry.h"

#include <algorithm>
#include <set>
#include <utility>

namespace mal::cls {

const char* CategoryName(Category c) {
  switch (c) {
    case Category::kLogging:
      return "Logging";
    case Category::kMetadata:
      return "Metadata";
    case Category::kManagement:
      return "Management";
    case Category::kLocking:
      return "Locking";
    case Category::kOther:
      return "Other";
  }
  return "?";
}

namespace {

using script::Interpreter;
using script::Value;

mal::Status ArgError(const char* fn, const char* want) {
  return mal::Status::InvalidArgument(std::string(fn) + ": expected " + want);
}

// Parses symbolic error names scripts use with cls_error().
mal::Code CodeFromName(const std::string& name) {
  static const std::map<std::string, mal::Code> kCodes = {
      {"NOT_FOUND", mal::Code::kNotFound},
      {"ALREADY_EXISTS", mal::Code::kAlreadyExists},
      {"INVALID_ARGUMENT", mal::Code::kInvalidArgument},
      {"PERMISSION_DENIED", mal::Code::kPermissionDenied},
      {"STALE_EPOCH", mal::Code::kStaleEpoch},
      {"READ_ONLY", mal::Code::kReadOnly},
      {"NOT_WRITTEN", mal::Code::kNotWritten},
      {"ABORTED", mal::Code::kAborted},
      {"OUT_OF_RANGE", mal::Code::kOutOfRange},
  };
  auto it = kCodes.find(name);
  return it == kCodes.end() ? mal::Code::kInternal : it->second;
}

}  // namespace

void BindContext(Interpreter* interp, ClsContext* ctx) {
  interp->RegisterHostFunction(
      "cls_exists", [ctx](Interpreter&, const std::vector<Value>&) -> mal::Result<Value> {
        return Value(ctx->Exists());
      });
  interp->RegisterHostFunction(
      "cls_read", [ctx](Interpreter&, const std::vector<Value>& args) -> mal::Result<Value> {
        uint64_t ofs = 0;
        uint64_t len = 0;
        if (args.size() > 0 && args[0].is_number()) {
          ofs = static_cast<uint64_t>(args[0].as_number());
        }
        if (args.size() > 1 && args[1].is_number()) {
          len = static_cast<uint64_t>(args[1].as_number());
        }
        auto data = ctx->Read(ofs, len);
        if (!data.ok()) {
          return data.status();
        }
        return Value(data.value().ToString());
      });
  interp->RegisterHostFunction(
      "cls_size", [ctx](Interpreter&, const std::vector<Value>&) -> mal::Result<Value> {
        auto size = ctx->Size();
        if (!size.ok()) {
          return size.status();
        }
        return Value(static_cast<double>(size.value()));
      });
  interp->RegisterHostFunction(
      "cls_create", [ctx](Interpreter&, const std::vector<Value>& args) -> mal::Result<Value> {
        bool excl = !args.empty() && args[0].Truthy();
        mal::Status s = ctx->Create(excl);
        if (!s.ok()) {
          return s;
        }
        return Value::Nil();
      });
  interp->RegisterHostFunction(
      "cls_write", [ctx](Interpreter&, const std::vector<Value>& args) -> mal::Result<Value> {
        if (args.size() < 2 || !args[0].is_number() || !args[1].is_string()) {
          return ArgError("cls_write", "(offset, data)");
        }
        mal::Status s = ctx->Write(static_cast<uint64_t>(args[0].as_number()),
                                   mal::Buffer::FromString(args[1].as_string()));
        if (!s.ok()) {
          return s;
        }
        return Value::Nil();
      });
  interp->RegisterHostFunction(
      "cls_write_full",
      [ctx](Interpreter&, const std::vector<Value>& args) -> mal::Result<Value> {
        if (args.empty() || !args[0].is_string()) {
          return ArgError("cls_write_full", "(data)");
        }
        mal::Status s = ctx->WriteFull(mal::Buffer::FromString(args[0].as_string()));
        if (!s.ok()) {
          return s;
        }
        return Value::Nil();
      });
  interp->RegisterHostFunction(
      "cls_append", [ctx](Interpreter&, const std::vector<Value>& args) -> mal::Result<Value> {
        if (args.empty() || !args[0].is_string()) {
          return ArgError("cls_append", "(data)");
        }
        mal::Status s = ctx->Append(mal::Buffer::FromString(args[0].as_string()));
        if (!s.ok()) {
          return s;
        }
        return Value::Nil();
      });
  interp->RegisterHostFunction(
      "cls_omap_get",
      [ctx](Interpreter&, const std::vector<Value>& args) -> mal::Result<Value> {
        if (args.empty() || !args[0].is_string()) {
          return ArgError("cls_omap_get", "(key)");
        }
        auto v = ctx->OmapGet(args[0].as_string());
        if (!v.ok()) {
          if (v.status().code() == mal::Code::kNotFound) {
            return Value::Nil();  // scripts test for nil, like Lua conventions
          }
          return v.status();
        }
        return Value(v.value());
      });
  interp->RegisterHostFunction(
      "cls_omap_set",
      [ctx](Interpreter&, const std::vector<Value>& args) -> mal::Result<Value> {
        if (args.size() < 2 || !args[0].is_string() || !args[1].is_string()) {
          return ArgError("cls_omap_set", "(key, value)");
        }
        mal::Status s = ctx->OmapSet(args[0].as_string(), args[1].as_string());
        if (!s.ok()) {
          return s;
        }
        return Value::Nil();
      });
  interp->RegisterHostFunction(
      "cls_omap_del",
      [ctx](Interpreter&, const std::vector<Value>& args) -> mal::Result<Value> {
        if (args.empty() || !args[0].is_string()) {
          return ArgError("cls_omap_del", "(key)");
        }
        mal::Status s = ctx->OmapDel(args[0].as_string());
        if (!s.ok()) {
          return s;
        }
        return Value::Nil();
      });
  interp->RegisterHostFunction(
      "cls_omap_list",
      [ctx](Interpreter&, const std::vector<Value>& args) -> mal::Result<Value> {
        std::string prefix;
        if (!args.empty() && args[0].is_string()) {
          prefix = args[0].as_string();
        }
        auto entries = ctx->OmapList(prefix);
        if (!entries.ok()) {
          return entries.status();
        }
        auto table = script::Table::Make();
        for (auto [k, v] : entries.value()) {
          table->Set(script::TableKey(std::string(k)), Value(std::string(v)));
        }
        return Value(table);
      });
  interp->RegisterHostFunction(
      "cls_xattr_get",
      [ctx](Interpreter&, const std::vector<Value>& args) -> mal::Result<Value> {
        if (args.empty() || !args[0].is_string()) {
          return ArgError("cls_xattr_get", "(key)");
        }
        auto v = ctx->XattrGet(args[0].as_string());
        if (!v.ok()) {
          if (v.status().code() == mal::Code::kNotFound) {
            return Value::Nil();
          }
          return v.status();
        }
        return Value(v.value());
      });
  interp->RegisterHostFunction(
      "cls_xattr_set",
      [ctx](Interpreter&, const std::vector<Value>& args) -> mal::Result<Value> {
        if (args.size() < 2 || !args[0].is_string() || !args[1].is_string()) {
          return ArgError("cls_xattr_set", "(key, value)");
        }
        mal::Status s = ctx->XattrSet(args[0].as_string(), args[1].as_string());
        if (!s.ok()) {
          return s;
        }
        return Value::Nil();
      });
  // Typed error escape hatch: cls_error("STALE_EPOCH", "msg") aborts the
  // method with that status, which propagates to the client unchanged.
  interp->RegisterHostFunction(
      "cls_error", [](Interpreter&, const std::vector<Value>& args) -> mal::Result<Value> {
        std::string code = args.size() > 0 && args[0].is_string() ? args[0].as_string() : "";
        std::string msg = args.size() > 1 ? args[1].ToString() : "class error";
        return mal::Status(CodeFromName(code), msg);
      });
}

void ClassRegistry::RegisterNative(const std::string& cls, const std::string& method,
                                   Category category, NativeMethod fn) {
  native_[{cls, method}] = {category, std::move(fn)};
}

mal::Status ClassRegistry::InstallScript(const std::string& cls, const std::string& version,
                                         const std::string& source, Category category) {
  auto chunk = script::Compile(source);
  if (!chunk.ok()) {
    return chunk.status();
  }
  // Discover methods: run the chunk in a scratch interpreter with a dummy
  // context and record which globals became callable.
  osd::TxnObject staged(nullptr);
  std::vector<osd::Op> effects;
  ClsContext scratch_ctx("scratch", &staged, &effects);
  Interpreter scratch;
  BindContext(&scratch, &scratch_ctx);
  std::vector<std::string> before = scratch.globals()->LocalNames();
  mal::Status s = scratch.Run(chunk.value());
  if (!s.ok()) {
    return s;
  }
  ScriptClass sc;
  sc.version = version;
  sc.source = source;
  sc.category = category;
  sc.chunk = chunk.value();
  for (const auto& [name, value] : scratch.globals()->local_vars()) {
    if (value.is_closure() &&
        std::find(before.begin(), before.end(), name) == before.end()) {
      sc.methods.push_back(name);
    }
  }
  scripts_[cls] = std::move(sc);
  return mal::Status::Ok();
}

std::string ClassRegistry::ScriptVersion(const std::string& cls) const {
  auto it = scripts_.find(cls);
  return it == scripts_.end() ? "" : it->second.version;
}

bool ClassRegistry::HasMethod(const std::string& cls, const std::string& method) const {
  if (native_.count({cls, method}) != 0) {
    return true;
  }
  auto it = scripts_.find(cls);
  if (it == scripts_.end()) {
    return false;
  }
  const auto& methods = it->second.methods;
  return std::find(methods.begin(), methods.end(), method) != methods.end();
}

mal::Result<mal::Buffer> ClassRegistry::Execute(const std::string& cls,
                                                const std::string& method, ClsContext& ctx,
                                                const mal::Buffer& input, uint64_t budget,
                                                script::EngineStats* script_stats) const {
  if (auto it = native_.find({cls, method}); it != native_.end()) {
    return it->second.second(ctx, input);
  }
  auto it = scripts_.find(cls);
  if (it == scripts_.end()) {
    return mal::Status::NotFound("no object class '" + cls + "'");
  }
  Interpreter interp;
  interp.set_instruction_budget(budget);
  BindContext(&interp, &ctx);
  auto out = [&]() -> mal::Result<mal::Buffer> {
    mal::Status s = interp.Run(it->second.chunk);
    if (!s.ok()) {
      return s;
    }
    auto result = interp.CallGlobal(method, {Value(input.ToString())});
    if (!result.ok()) {
      if (result.status().code() == mal::Code::kNotFound) {
        return mal::Status::NotFound("no method '" + method + "' in class '" + cls + "'");
      }
      return result.status();
    }
    const Value& value = result.value();
    if (value.is_nil()) {
      return mal::Buffer();
    }
    return mal::Buffer::FromString(value.ToString());
  }();
  if (script_stats != nullptr) {
    // Accumulated even on error: aborted scripts still consumed budget.
    const script::EngineStats& st = interp.stats();
    script_stats->instructions += st.instructions;
    script_stats->vm_runs += st.vm_runs;
    script_stats->ic_hits += st.ic_hits;
    script_stats->ic_misses += st.ic_misses;
    script_stats->print_dropped += st.print_dropped;
  }
  return out;
}

std::vector<MethodInfo> ClassRegistry::ListMethods() const {
  std::vector<MethodInfo> methods;
  for (const auto& [key, entry] : native_) {
    methods.push_back({key.first, key.second, entry.first, false});
  }
  for (const auto& [cls, sc] : scripts_) {
    for (const std::string& method : sc.methods) {
      methods.push_back({cls, method, sc.category, true});
    }
  }
  return methods;
}

size_t ClassRegistry::NumClasses() const {
  std::set<std::string> names;
  for (const auto& [key, entry] : native_) {
    names.insert(key.first);
  }
  for (const auto& [cls, sc] : scripts_) {
    names.insert(cls);
  }
  return names.size();
}

std::map<Category, size_t> ClassRegistry::MethodCountByCategory() const {
  std::map<Category, size_t> counts;
  for (const MethodInfo& info : ListMethods()) {
    ++counts[info.category];
  }
  return counts;
}

}  // namespace mal::cls
