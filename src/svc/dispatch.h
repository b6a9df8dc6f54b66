// ServiceDispatcher: typed per-message-type dispatch for daemon actors.
//
// Every daemon used to hand-roll the same loop in HandleRequest: a switch on
// envelope.type, a Decoder, an ad-hoc "bad request" error reply, and a
// default arm for unknown types. The dispatcher centralizes that plumbing —
// handlers register per message type (raw, or typed with automatic decode
// and uniform malformed-payload rejection) and HandleRequest collapses to
// `dispatcher_.Dispatch(request)`. Handler *bodies* stay in the daemons;
// only the marshalling boilerplate moves here. See docs/service_layer.md.
#ifndef MALACOLOGY_SVC_DISPATCH_H_
#define MALACOLOGY_SVC_DISPATCH_H_

#include <functional>
#include <map>
#include <utility>

#include "src/common/buffer.h"
#include "src/sim/actor.h"

namespace mal::svc {

class ServiceDispatcher {
 public:
  // `owner` must outlive the dispatcher (daemons hold it by value).
  explicit ServiceDispatcher(sim::Actor* owner) : owner_(owner) {}

  ServiceDispatcher(const ServiceDispatcher&) = delete;
  ServiceDispatcher& operator=(const ServiceDispatcher&) = delete;

  using RawHandler = std::function<void(const sim::Envelope&)>;

  // Registers a handler that sees the raw envelope. Use for messages that
  // forward payloads undecoded (e.g. a non-leader monitor proxying a
  // command) or have bespoke decode conventions.
  void On(uint32_t type, RawHandler handler);

  // Registers a typed handler: the payload is decoded as `Req` with
  // mal::Decode before the handler runs. A payload it rejects is answered
  // uniformly with kCorruption (rpc) or dropped with a warning (one-way) —
  // handlers never see malformed input.
  template <typename Req>
  void OnTyped(uint32_t type, std::function<void(const sim::Envelope&, Req)> handler) {
    On(type, [this, handler = std::move(handler)](const sim::Envelope& env) {
      auto req = mal::Decode<Req>(env.payload);
      if (!req.ok()) {
        RejectMalformed(env);
        return;
      }
      handler(env, std::move(req).value());
    });
  }

  // Routes one request envelope. Unknown types get a uniform kUnimplemented
  // reply (rpc) or a debug-logged drop (one-way) — the dispatch-table
  // analogue of the old switches' default arm.
  void Dispatch(const sim::Envelope& request);

 private:
  void RejectMalformed(const sim::Envelope& env);

  sim::Actor* owner_;
  std::map<uint32_t, RawHandler> handlers_;
};

}  // namespace mal::svc

#endif  // MALACOLOGY_SVC_DISPATCH_H_
