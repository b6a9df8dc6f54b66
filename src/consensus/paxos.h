// Multi-decree Paxos, the consensus engine under the monitor's Service
// Metadata interface (paper §4.1: "A Paxos monitoring service is
// responsible for integrating state changes into cluster maps").
//
// Design: leader-based Multi-Paxos. A node that believes it should lead
// runs Phase 1 (Prepare/Promise) once for a ballot covering all instances;
// after that each client value is decided with a single Phase 2
// (Accept/Accepted) round plus a Commit broadcast. Ballots are
// (round << 16 | node_id), so ballots are unique per node and totally
// ordered.
//
// The class is transport- and clock-agnostic: the owner supplies send and
// commit callbacks and drives timeouts. This makes it directly usable both
// under the simulated monitor daemon and in deterministic unit tests that
// deliver, drop, duplicate, and reorder messages arbitrarily.
#ifndef MALACOLOGY_CONSENSUS_PAXOS_H_
#define MALACOLOGY_CONSENSUS_PAXOS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"

namespace mal::consensus {

enum class PaxosMsgType : uint8_t {
  kPrepare = 0,
  kPromise = 1,
  kNack = 2,      // ballot rejected; carries the higher promised ballot
  kAccept = 3,
  kAccepted = 4,
  kCommit = 5,
  kCatchupRequest = 6,  // ask a peer for committed values from an instance
};

struct AcceptedEntry {
  uint64_t instance = 0;
  uint64_t ballot = 0;
  mal::Buffer value;

  template <class Ar>
  void Fields(Ar& ar) { ar(instance, ballot, value); }
};

struct PaxosMessage {
  PaxosMsgType type = PaxosMsgType::kPrepare;
  uint32_t from = 0;
  uint64_t ballot = 0;
  uint64_t instance = 0;
  mal::Buffer value;
  // kPromise: uncommitted accepted tail + how far the acceptor has committed.
  std::vector<AcceptedEntry> accepted_tail;
  uint64_t committed_through = 0;  // first *uncommitted* instance

  template <class Ar>
  void Fields(Ar& ar) {
    ar(type, from, ballot, instance, value, accepted_tail, committed_through);
  }
};

// Role snapshot for introspection/tests.
enum class PaxosRole { kFollower, kCandidate, kLeader };

class PaxosNode {
 public:
  using SendFn = std::function<void(uint32_t peer, const PaxosMessage&)>;
  // Called exactly once per instance, in instance order.
  using CommitFn = std::function<void(uint64_t instance, const mal::Buffer& value)>;

  PaxosNode(uint32_t node_id, std::vector<uint32_t> members, SendFn send, CommitFn on_commit);

  uint32_t node_id() const { return node_id_; }
  PaxosRole role() const { return role_; }
  bool IsLeader() const { return role_ == PaxosRole::kLeader; }
  uint64_t current_ballot() const { return current_ballot_; }
  // The highest ballot this node has promised; its low 16 bits are the node
  // id of the ballot owner, i.e. the best guess at the current leader.
  uint64_t promised_ballot() const { return promised_ballot_; }
  // First instance that has not been committed (== log length).
  uint64_t committed_through() const { return first_uncommitted_; }

  // Starts Phase 1 with a ballot higher than any seen. The owner calls this
  // at startup (lowest id) or when it suspects the leader failed.
  void StartElection();

  // Relinquishes leadership/candidacy (e.g. the owning daemon crashed).
  // Durable acceptor state (promises, accepted values) is retained.
  void StepDown() { role_ = PaxosRole::kFollower; }

  // Submits a value. Queued until this node is leader; if another node is
  // leader the owner should forward values there instead (the monitor does).
  // Returns the instance the value was assigned if leader, nullopt if queued.
  std::optional<uint64_t> Propose(mal::Buffer value);

  size_t pending_proposals() const { return pending_.size(); }

  // Feeds an incoming message. Safe against duplicates and reordering.
  void HandleMessage(const PaxosMessage& msg);

  // Owner-driven retransmission: resend Phase 1 or in-flight Phase 2 for
  // liveness after message loss. Call on a timer.
  void Retransmit();

  // Leader liveness signal: re-broadcasts Prepare at the current ballot
  // (idempotent for acceptors). No-op unless this node leads.
  void Heartbeat();

 private:
  struct InstanceState {
    // Acceptor state.
    uint64_t accepted_ballot = 0;
    mal::Buffer accepted_value;
    bool has_accepted = false;
    // Committed state.
    bool committed = false;
    mal::Buffer committed_value;
    // Leader (proposer) bookkeeping.
    std::set<uint32_t> accept_votes;
    bool in_flight = false;
  };

  uint64_t MakeBallot(uint64_t round) const { return (round << 16) | node_id_; }
  uint64_t BallotRound(uint64_t ballot) const { return ballot >> 16; }
  size_t Quorum() const { return members_.size() / 2 + 1; }

  void Broadcast(const PaxosMessage& msg);
  void BecomeLeader();
  void LeaderAdvance();  // assign queued proposals to instances
  void CommitInstance(uint64_t instance, const mal::Buffer& value);
  void DeliverCommitted();
  InstanceState& State(uint64_t instance) { return instances_[instance]; }

  void OnPrepare(const PaxosMessage& msg);
  void OnPromise(const PaxosMessage& msg);
  void OnNack(const PaxosMessage& msg);
  void OnAccept(const PaxosMessage& msg);
  void OnAccepted(const PaxosMessage& msg);
  void OnCommit(const PaxosMessage& msg);
  void OnCatchupRequest(const PaxosMessage& msg);

  uint32_t node_id_;
  std::vector<uint32_t> members_;
  SendFn send_;
  CommitFn on_commit_;

  PaxosRole role_ = PaxosRole::kFollower;
  uint64_t promised_ballot_ = 0;   // acceptor promise
  uint64_t current_ballot_ = 0;    // ballot this node is leading/campaigning with
  std::set<uint32_t> promise_votes_;
  // Highest accepted entries gathered during Phase 1, per instance.
  std::map<uint64_t, AcceptedEntry> phase1_accepted_;
  uint64_t phase1_max_committed_ = 0;

  std::map<uint64_t, InstanceState> instances_;
  uint64_t first_uncommitted_ = 0;  // next instance to deliver to on_commit_
  uint64_t next_instance_ = 0;      // leader: next instance to assign
  std::deque<mal::Buffer> pending_;
};

}  // namespace mal::consensus

#endif  // MALACOLOGY_CONSENSUS_PAXOS_H_
