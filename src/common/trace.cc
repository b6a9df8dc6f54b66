#include "src/common/trace.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "src/common/json.h"

namespace mal::trace {
namespace {

TraceCollector* g_collector = nullptr;
TraceContext g_current;

std::unordered_map<uint16_t, std::string>& MessageNames() {
  static std::unordered_map<uint16_t, std::string> names;
  return names;
}

// Builtin wire-enum names. Kept central (rather than per-module registrar
// arrays) so span names and log lines are consistent no matter which modules
// a binary links. Values mirror src/mon/messages.h, src/osd/messages.h, and
// src/mds/types.h.
const char* BuiltinMessageName(uint32_t type) {
  switch (type) {
    case 100: return "mon.paxos";
    case 101: return "mon.command";
    case 102: return "mon.get_map";
    case 103: return "mon.subscribe";
    case 104: return "mon.map_update";
    case 105: return "mon.log_entry";
    case 106: return "mon.get_cluster_log";
    case 107: return "mon.perf_report";
    case 108: return "mon.get_perf_dump";
    case 109: return "mon.query_series";
    case 110: return "mon.get_health";
    case 200: return "osd.op";
    case 201: return "osd.repop";
    case 202: return "osd.gossip";
    case 203: return "osd.pull";
    case 205: return "osd.watch";
    case 206: return "osd.notify";
    case 207: return "osd.list_objects";
    case 300: return "mds.client_request";
    case 301: return "mds.cap_revoke";
    case 303: return "mds.authority_update";
    case 304: return "mds.load_report";
    case 305: return "mds.forward";
    case 306: return "mds.coherence";
    case 307: return "mds.migrate";
    default: return nullptr;
  }
}

}  // namespace

TraceCollector* Collector() { return g_collector; }
void SetCollector(TraceCollector* collector) { g_collector = collector; }

const TraceContext& Current() { return g_current; }
void SetCurrent(const TraceContext& ctx) { g_current = ctx; }

void RegisterMessageName(uint16_t type, const char* name) {
  MessageNames()[type] = name;
}

std::string MessageTypeName(uint32_t type) {
  if (type <= UINT16_MAX) {
    auto& names = MessageNames();
    auto it = names.find(static_cast<uint16_t>(type));
    if (it != names.end()) {
      return it->second;  // registered overrides win over the builtin table
    }
  }
  if (const char* builtin = BuiltinMessageName(type)) {
    return builtin;
  }
  return "msg." + std::to_string(type);
}

std::string MessageName(uint16_t type) { return MessageTypeName(type); }

TraceContext TraceCollector::StartSpan(const std::string& name,
                                       const std::string& entity,
                                       uint64_t now_ns,
                                       const TraceContext& parent) {
  Span span;
  span.span_id = next_id_++;
  if (parent.valid()) {
    span.trace_id = parent.trace_id;
    span.parent_span_id = parent.span_id;
  } else {
    span.trace_id = next_id_++;
  }
  span.name = name;
  span.entity = entity;
  span.start_ns = now_ns;
  span.end_ns = now_ns;
  index_[span.span_id] = spans_.size();
  spans_.push_back(span);
  return TraceContext{span.trace_id, span.span_id, span.parent_span_id};
}

void TraceCollector::EndSpan(const TraceContext& ctx, uint64_t now_ns,
                             const std::string& status) {
  auto it = index_.find(ctx.span_id);
  if (it == index_.end()) {
    return;
  }
  Span& span = spans_[it->second];
  if (!span.open) {
    return;  // idempotent: late duplicate ends (e.g. timeout vs reply) are dropped
  }
  span.end_ns = now_ns;
  span.open = false;
  span.status = status;
}

void TraceCollector::Link(const TraceContext& ctx, const TraceContext& to) {
  auto it = index_.find(ctx.span_id);
  if (it != index_.end() && to.valid() && to.span_id != ctx.span_id) {
    spans_[it->second].link_span_id = to.span_id;
  }
}

const Span* TraceCollector::Find(uint64_t span_id) const {
  auto it = index_.find(span_id);
  return it == index_.end() ? nullptr : &spans_[it->second];
}

std::vector<const Span*> TraceCollector::TraceSpans(uint64_t trace_id) const {
  std::vector<const Span*> out;
  for (const Span& span : spans_) {
    if (span.trace_id == trace_id) {
      out.push_back(&span);
    }
  }
  return out;
}

std::vector<const Span*> TraceCollector::Roots(uint64_t trace_id) const {
  std::vector<const Span*> out;
  for (const Span& span : spans_) {
    if (span.trace_id != trace_id) {
      continue;
    }
    // A root is a span whose parent is unknown to this collector (either no
    // parent at all, or the parent span was never recorded).
    if (span.parent_span_id == 0 || index_.count(span.parent_span_id) == 0) {
      out.push_back(&span);
    }
  }
  return out;
}

std::vector<const Span*> TraceCollector::ChildrenOf(uint64_t span_id) const {
  std::vector<const Span*> out;
  for (const Span& span : spans_) {
    if (span.parent_span_id == span_id && span.span_id != span_id) {
      out.push_back(&span);
    }
  }
  return out;
}

namespace {

void RenderSpan(const TraceCollector& collector, const Span& span, int depth,
                std::ostringstream* out) {
  for (int i = 0; i < depth; ++i) {
    *out << "  ";
  }
  *out << span.name << " [" << span.entity << "] "
       << static_cast<double>(span.end_ns - span.start_ns) / 1e3 << "us"
       << " @" << static_cast<double>(span.start_ns) / 1e3 << "us";
  if (span.open) {
    *out << " (open)";
  } else if (span.status != "ok") {
    *out << " (" << span.status << ")";
  }
  *out << "\n";
  for (const Span* child : collector.ChildrenOf(span.span_id)) {
    RenderSpan(collector, *child, depth + 1, out);
  }
}

}  // namespace

std::string TraceCollector::RenderTree(uint64_t trace_id) const {
  std::ostringstream out;
  for (const Span* root : Roots(trace_id)) {
    RenderSpan(*this, *root, 0, &out);
  }
  return out.str();
}

std::string TraceCollector::RenderSubtree(uint64_t span_id) const {
  const Span* span = Find(span_id);
  if (span == nullptr) {
    return "";
  }
  std::ostringstream out;
  RenderSpan(*this, *span, 0, &out);
  return out.str();
}

std::map<std::string, HopStat> TraceCollector::HopStats(uint64_t trace_id) const {
  std::map<std::string, HopStat> out;
  for (const Span& span : spans_) {
    if (span.open) {
      continue;
    }
    if (trace_id != 0 && span.trace_id != trace_id) {
      continue;
    }
    HopStat& stat = out[span.name];
    stat.count += 1;
    stat.total_ns += span.end_ns - span.start_ns;
  }
  return out;
}

void TraceCollector::Clear() {
  spans_.clear();
  index_.clear();
}

// -- Critical-path analysis ---------------------------------------------------

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

using ChildIndex = std::unordered_map<uint64_t, std::vector<const Span*>>;

// Critical-path child order: end_ns descending (ties: later start first, then
// span id for determinism).
bool EndsLater(const Span* a, const Span* b) {
  if (a->end_ns != b->end_ns) {
    return a->end_ns > b->end_ns;
  }
  if (a->start_ns != b->start_ns) {
    return a->start_ns > b->start_ns;
  }
  return a->span_id > b->span_id;
}

// parent span id -> finished children, sorted by EndsLater.
ChildIndex BuildChildIndex(const TraceCollector& collector) {
  ChildIndex index;
  for (const Span& span : collector.spans()) {
    if (span.open || span.parent_span_id == 0 ||
        span.parent_span_id == span.span_id) {
      continue;
    }
    index[span.parent_span_id].push_back(&span);
  }
  for (auto& [parent, children] : index) {
    std::sort(children.begin(), children.end(), EndsLater);
  }
  return index;
}

// Backward waterfall over [clip_start, clip_end] of `span`: repeatedly
// descend into the child whose completion gated progress (latest end not
// past the cursor); the gaps between picked children are `span`'s own time.
void WalkCriticalPath(const ChildIndex& index, const Span& span,
                      uint64_t clip_start, uint64_t clip_end,
                      std::map<std::string, uint64_t>* segments) {
  static const std::vector<const Span*> kNoChildren;
  auto own = index.find(span.span_id);
  const std::vector<const Span*>* children =
      own == index.end() ? &kNoChildren : &own->second;
  std::vector<const Span*> merged;
  // Follows-from: the linked span's children did (part of) this span's work;
  // the clip window keeps only the ones inside this span. Linked children
  // that carry links themselves are skipped, so a walk never cycles through
  // two members linked to each other's leader. No span has id 0.
  if (auto link = index.find(span.link_span_id); link != index.end()) {
    merged = *children;
    for (const Span* child : link->second) {
      if (child->link_span_id == 0) {
        merged.push_back(child);
      }
    }
    std::sort(merged.begin(), merged.end(), EndsLater);
    children = &merged;
  }
  uint64_t cursor = clip_end;
  uint64_t self_ns = 0;
  for (const Span* child : *children) {  // EndsLater order
    if (child->end_ns > cursor) {
      continue;  // overlaps work already on the path; hidden latency
    }
    if (child->end_ns <= clip_start || cursor <= clip_start) {
      break;
    }
    self_ns += cursor - child->end_ns;  // gap above the child: span's own work
    uint64_t child_start = std::max(child->start_ns, clip_start);
    WalkCriticalPath(index, *child, child_start,
                     std::max(child->end_ns, child_start), segments);
    cursor = child_start;
  }
  if (cursor > clip_start) {
    self_ns += cursor - clip_start;
  }
  if (self_ns > 0) {
    (*segments)[ClassifySpanSelf(span)] += self_ns;
  }
}

}  // namespace

const char* ClassifySpanSelf(const Span& span) {
  if (StartsWith(span.name, "queue:")) {
    return "queue";
  }
  if (StartsWith(span.name, "rpc:")) {
    return "network";
  }
  if (StartsWith(span.name, "handle:")) {
    if (StartsWith(span.entity, "mds.")) {
      return "seq_wait";
    }
    if (StartsWith(span.entity, "osd.")) {
      return "osd_commit";
    }
    if (StartsWith(span.entity, "mon.")) {
      return "mon";
    }
    return "other";
  }
  if (span.parent_span_id == 0) {
    return "queue";
  }
  return "other";
}

CriticalPath AnalyzeCriticalPath(const TraceCollector& collector, const Span& root) {
  CriticalPath out;
  if (root.open || root.end_ns < root.start_ns) {
    return out;
  }
  out.total_ns = root.end_ns - root.start_ns;
  ChildIndex index = BuildChildIndex(collector);
  WalkCriticalPath(index, root, root.start_ns, root.end_ns, &out.segment_ns);
  return out;
}

std::map<std::string, OpBreakdown> CriticalPathByOp(const TraceCollector& collector) {
  std::map<std::string, OpBreakdown> out;
  ChildIndex index = BuildChildIndex(collector);
  for (const Span& span : collector.spans()) {
    if (span.open || span.parent_span_id != 0) {
      continue;
    }
    OpBreakdown& op = out[span.name];
    op.count += 1;
    op.total_ns += span.end_ns - span.start_ns;
    WalkCriticalPath(index, span, span.start_ns, span.end_ns, &op.segment_ns);
  }
  return out;
}

std::vector<const Span*> SlowestRoots(const TraceCollector& collector, size_t n) {
  std::vector<const Span*> roots;
  for (const Span& span : collector.spans()) {
    if (!span.open && span.parent_span_id == 0) {
      roots.push_back(&span);
    }
  }
  std::sort(roots.begin(), roots.end(), [](const Span* a, const Span* b) {
    uint64_t da = a->end_ns - a->start_ns;
    uint64_t db = b->end_ns - b->start_ns;
    if (da != db) {
      return da > db;
    }
    return a->span_id < b->span_id;  // deterministic tie-break
  });
  if (roots.size() > n) {
    roots.resize(n);
  }
  return roots;
}

std::string CriticalPathJson(const TraceCollector& collector, size_t max_exemplars) {
  std::ostringstream out;
  out << "{\n    \"ops\": {";
  bool first = true;
  for (const auto& [name, op] : CriticalPathByOp(collector)) {
    out << (first ? "" : ",") << "\n      \"" << name << "\": {\"count\": " << op.count
        << ", \"total_us\": " << op.total_ns / 1000 << ", \"segments_us\": {";
    bool first_seg = true;
    for (const auto& [segment, ns] : op.segment_ns) {
      out << (first_seg ? "" : ", ") << "\"" << segment << "\": " << ns / 1000;
      first_seg = false;
    }
    out << "}}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "},\n    \"exemplars\": [";
  first = true;
  for (const Span* root : SlowestRoots(collector, max_exemplars)) {
    std::string tree = collector.RenderSubtree(root->span_id);
    out << (first ? "" : ",") << "\n      {\"name\": \"" << root->name
        << "\", \"duration_us\": " << (root->end_ns - root->start_ns) / 1000
        << ", \"tree\": \"" << JsonEscape(tree) << "\"}";
    first = false;
  }
  out << (first ? "" : "\n    ") << "]\n  }";
  return out.str();
}

}  // namespace mal::trace
