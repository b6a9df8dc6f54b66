#include "src/common/log.h"

#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/common/json.h"

namespace mal {
namespace {

LogLevel g_level = LogLevel::kWarn;
std::map<std::string, LogLevel>* g_component_levels = nullptr;

// -1 = not yet decided (consult MAL_LOG_JSON on first emit), 0/1 = decided.
int g_json_logging = -1;

bool JsonLogging() {
  if (g_json_logging < 0) {
    const char* env = std::getenv("MAL_LOG_JSON");
    g_json_logging = env != nullptr && env[0] == '1' ? 1 : 0;
  }
  return g_json_logging == 1;
}

bool g_context_set = false;
uint64_t g_context_time_ns = 0;
std::string g_context_node;
// When set, the node name is read through this pointer (the event-loop fast
// path); otherwise g_context_node holds a copy.
const std::string* g_context_node_ptr = nullptr;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

// Threshold for a component: exact override, then daemon-type prefix
// ("osd.3" -> "osd"), then the global level.
LogLevel Threshold(const std::string& component) {
  if (g_component_levels != nullptr) {
    auto it = g_component_levels->find(component);
    if (it != g_component_levels->end()) {
      return it->second;
    }
    size_t dot = component.find('.');
    if (dot != std::string::npos) {
      it = g_component_levels->find(component.substr(0, dot));
      if (it != g_component_levels->end()) {
        return it->second;
      }
    }
  }
  return g_level;
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }
LogLevel GetLogLevel() { return g_level; }

void SetComponentLogLevel(const std::string& component, LogLevel level) {
  if (g_component_levels == nullptr) {
    g_component_levels = new std::map<std::string, LogLevel>();
  }
  (*g_component_levels)[component] = level;
}

void ClearComponentLogLevels() {
  if (g_component_levels != nullptr) {
    g_component_levels->clear();
  }
}

void SetJsonLogging(bool enabled) { g_json_logging = enabled ? 1 : 0; }
bool JsonLoggingEnabled() { return JsonLogging(); }

std::string FormatJsonLogLine(LogLevel level, bool has_context, uint64_t time_ns,
                              const std::string& node, const std::string& component,
                              const std::string& message) {
  std::string out = "{";
  if (has_context) {
    char stamp[64];
    std::snprintf(stamp, sizeof(stamp), "\"t_s\": %.6f, ",
                  static_cast<double>(time_ns) / 1e9);
    out += stamp;
    out += "\"node\": \"" + node + "\", ";
  }
  out += "\"component\": \"" + component + "\", \"level\": \"";
  out += LevelName(level);
  out += "\", \"msg\": \"";
  out += JsonEscape(message);
  out += "\"}";
  return out;
}

void SetLogContext(uint64_t time_ns, const std::string& node) {
  g_context_set = true;
  g_context_time_ns = time_ns;
  g_context_node = node;
  g_context_node_ptr = nullptr;
}

void SetLogContextRef(uint64_t time_ns, const std::string* node) {
  if (g_context_set && g_context_node_ptr == node && g_context_time_ns == time_ns) {
    return;  // same actor, same instant: the context is already in place
  }
  g_context_set = true;
  g_context_time_ns = time_ns;
  g_context_node_ptr = node;
}

void ClearLogContext() {
  g_context_set = false;
  g_context_node_ptr = nullptr;
}

namespace log_internal {

void Emit(LogLevel level, const std::string& component, const std::string& message) {
  if (level < Threshold(component)) {
    return;
  }
  const std::string& node =
      g_context_node_ptr != nullptr ? *g_context_node_ptr : g_context_node;
  if (JsonLogging()) {
    std::fprintf(stderr, "%s\n",
                 FormatJsonLogLine(level, g_context_set, g_context_time_ns, node,
                                   component, message)
                     .c_str());
    return;
  }
  if (g_context_set) {
    std::fprintf(stderr, "[%s] [%.6fs %s] %s: %s\n", LevelName(level),
                 static_cast<double>(g_context_time_ns) / 1e9,
                 node.c_str(), component.c_str(), message.c_str());
  } else {
    std::fprintf(stderr, "[%s] %s: %s\n", LevelName(level), component.c_str(),
                 message.c_str());
  }
}

}  // namespace log_internal
}  // namespace mal
