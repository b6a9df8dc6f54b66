// Dapper-style distributed tracing for the simulated cluster. A TraceContext
// (trace id, span id, parent span id) rides in every sim::Envelope and is
// captured/restored by the simulator's event loop, so causality follows the
// request across actors without any per-call-site plumbing: whoever schedules
// work while a context is ambient propagates that context into the work.
//
// Spans are recorded into a process-global TraceCollector (the simulator is
// single-threaded) with *simulator-clock* timestamps, so a span tree is an
// exact latency breakdown of one request: client append -> sequencer
// round-trip -> per-target OSD transactions. Tests and benches install a
// collector with trace::ScopedCollector; when none is installed, tracing is
// disabled and costs one branch per call site.
#ifndef MALACOLOGY_COMMON_TRACE_H_
#define MALACOLOGY_COMMON_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace mal::trace {

// Propagated half of a span: enough to parent remote work. trace_id == 0
// means "not traced" and propagates as a no-op.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;

  bool valid() const { return trace_id != 0; }
};

// One timed unit of work. start/end are simulator-clock nanoseconds.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  // Follows-from link: a span (possibly in another trace) whose children did
  // this span's work, e.g. the RPCs a ZLog grant group shares. 0 = none.
  uint64_t link_span_id = 0;
  std::string name;    // e.g. "zlog.AppendBatch", "rpc:mds.0:mds.client_request"
  std::string entity;  // node that ran the span, e.g. "client.0"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  bool open = true;
  std::string status = "ok";

  double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

// Per-span-name aggregate across a set of finished spans.
struct HopStat {
  uint64_t count = 0;
  uint64_t total_ns = 0;
};

class TraceCollector {
 public:
  // Opens a span. When `parent` is valid the new span joins its trace;
  // otherwise a fresh trace id is allocated (a root span).
  TraceContext StartSpan(const std::string& name, const std::string& entity,
                         uint64_t now_ns, const TraceContext& parent = {});
  void EndSpan(const TraceContext& ctx, uint64_t now_ns,
               const std::string& status = "ok");
  // Records that `to`'s children do `ctx`'s work (Span::link_span_id); the
  // last link wins.
  void Link(const TraceContext& ctx, const TraceContext& to);

  const std::vector<Span>& spans() const { return spans_; }
  const Span* Find(uint64_t span_id) const;
  std::vector<const Span*> TraceSpans(uint64_t trace_id) const;
  std::vector<const Span*> Roots(uint64_t trace_id) const;
  std::vector<const Span*> ChildrenOf(uint64_t span_id) const;

  // Human-readable indented span tree with per-span durations.
  std::string RenderTree(uint64_t trace_id) const;
  // Same rendering, rooted at one span (tail exemplars render exactly the
  // slow request's tree even if the trace has sibling roots).
  std::string RenderSubtree(uint64_t span_id) const;

  // Aggregate duration per span name, over every finished span in the
  // collector (trace_id == 0) or one trace. Benches turn this into the
  // "sequencer wait vs OSD commit vs client queueing" breakdown.
  std::map<std::string, HopStat> HopStats(uint64_t trace_id = 0) const;

  void Clear();

 private:
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::unordered_map<uint64_t, size_t> index_;  // span_id -> spans_ slot
};

// -- Critical-path analysis ---------------------------------------------------
//
// A finished span tree is an exact record of where a request's wall-clock
// went; the critical path walks it backward from the root's end, always
// descending into the child whose completion gated progress (a span's
// children include those of its follows-from link), and attributes
// every nanosecond of the root's duration to the *self time* of some span on
// that path. Self time is classified by what the span represents:
//   queue      — root-span and queue:* span self (client-side
//                batching/pipeline wait)
//   network    — rpc:* self (flight time + remote inbox wait)
//   seq_wait   — handle:* self on an mds.* entity (sequencer service)
//   osd_commit — handle:* self on an osd.* entity (storage commit)
//   mon        — handle:* self on a mon.* entity
//   other      — anything else (intermediate client-side spans)
// Segments telescope: their sum equals the root's duration exactly.

// Breakdown of one request (one root span).
struct CriticalPath {
  uint64_t total_ns = 0;
  std::map<std::string, uint64_t> segment_ns;
};

// Aggregate breakdown across requests sharing a root-span name (op type).
struct OpBreakdown {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  std::map<std::string, uint64_t> segment_ns;
};

// Segment classification of a span's self time (see table above).
const char* ClassifySpanSelf(const Span& span);

// Critical path of a single finished root span.
CriticalPath AnalyzeCriticalPath(const TraceCollector& collector, const Span& root);

// Per-op-type aggregation over every finished root span in the collector.
std::map<std::string, OpBreakdown> CriticalPathByOp(const TraceCollector& collector);

// The N slowest finished root spans, longest first (tail exemplars).
std::vector<const Span*> SlowestRoots(const TraceCollector& collector, size_t n);

// {"ops": {name: {count, total_us, segments}}, "exemplars": [...]} — the
// exemplars carry the rendered span tree of the slowest requests.
std::string CriticalPathJson(const TraceCollector& collector,
                             size_t max_exemplars = 3);

// Process-global collector. Null (the default) disables tracing.
TraceCollector* Collector();
void SetCollector(TraceCollector* collector);

// Ambient context of the currently-executing event. The simulator's event
// loop saves/restores it around every event so it follows scheduled work.
const TraceContext& Current();
void SetCurrent(const TraceContext& ctx);

class ScopedCollector {
 public:
  explicit ScopedCollector(TraceCollector* collector) : prev_(Collector()) {
    SetCollector(collector);
  }
  ~ScopedCollector() { SetCollector(prev_); }

  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;

 private:
  TraceCollector* prev_;
};

class ScopedContext {
 public:
  explicit ScopedContext(const TraceContext& ctx) : prev_(Current()) {
    SetCurrent(ctx);
  }
  ~ScopedContext() { SetCurrent(prev_); }

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  TraceContext prev_;
};

// Message-type -> human name registry so rpc span names and MAL_LOG lines
// read "rpc:osd.1:osd.op" instead of "rpc:osd.1:msg.200". A central builtin
// table covers every wire enum in the tree (mon 1xx, osd 2xx, mds 3xx);
// modules may still override or extend it via RegisterMessageName / static
// MessageNameRegistrar instances. Unknown types render as "msg.<N>".
std::string MessageTypeName(uint32_t type);

void RegisterMessageName(uint16_t type, const char* name);
std::string MessageName(uint16_t type);  // delegates to MessageTypeName

struct MessageNameRegistrar {
  MessageNameRegistrar(uint16_t type, const char* name) {
    RegisterMessageName(type, name);
  }
};

}  // namespace mal::trace

#endif  // MALACOLOGY_COMMON_TRACE_H_
