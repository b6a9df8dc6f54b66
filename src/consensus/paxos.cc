#include "src/consensus/paxos.h"

#include <algorithm>
#include <cassert>

namespace mal::consensus {

PaxosNode::PaxosNode(uint32_t node_id, std::vector<uint32_t> members, SendFn send,
                     CommitFn on_commit)
    : node_id_(node_id),
      members_(std::move(members)),
      send_(std::move(send)),
      on_commit_(std::move(on_commit)) {
  assert(std::find(members_.begin(), members_.end(), node_id_) != members_.end());
}

void PaxosNode::Broadcast(const PaxosMessage& msg) {
  for (uint32_t peer : members_) {
    if (peer != node_id_) {
      send_(peer, msg);
    }
  }
}

void PaxosNode::StartElection() {
  role_ = PaxosRole::kCandidate;
  uint64_t round = std::max(BallotRound(promised_ballot_), BallotRound(current_ballot_)) + 1;
  current_ballot_ = MakeBallot(round);
  promise_votes_.clear();
  phase1_accepted_.clear();
  phase1_max_committed_ = first_uncommitted_;

  PaxosMessage prepare;
  prepare.type = PaxosMsgType::kPrepare;
  prepare.from = node_id_;
  prepare.ballot = current_ballot_;
  prepare.instance = first_uncommitted_;
  Broadcast(prepare);
  // Self-deliver.
  OnPrepare(prepare);
}

std::optional<uint64_t> PaxosNode::Propose(mal::Buffer value) {
  pending_.push_back(std::move(value));
  if (role_ == PaxosRole::kLeader) {
    uint64_t instance = next_instance_;
    LeaderAdvance();
    return instance;
  }
  return std::nullopt;
}

void PaxosNode::HandleMessage(const PaxosMessage& msg) {
  switch (msg.type) {
    case PaxosMsgType::kPrepare:
      OnPrepare(msg);
      break;
    case PaxosMsgType::kPromise:
      OnPromise(msg);
      break;
    case PaxosMsgType::kNack:
      OnNack(msg);
      break;
    case PaxosMsgType::kAccept:
      OnAccept(msg);
      break;
    case PaxosMsgType::kAccepted:
      OnAccepted(msg);
      break;
    case PaxosMsgType::kCommit:
      OnCommit(msg);
      break;
    case PaxosMsgType::kCatchupRequest:
      OnCatchupRequest(msg);
      break;
  }
}

void PaxosNode::OnPrepare(const PaxosMessage& msg) {
  if (msg.ballot < promised_ballot_) {
    PaxosMessage nack;
    nack.type = PaxosMsgType::kNack;
    nack.from = node_id_;
    nack.ballot = promised_ballot_;
    send_(msg.from, nack);
    return;
  }
  promised_ballot_ = msg.ballot;
  if (msg.from != node_id_ && role_ != PaxosRole::kFollower) {
    // Someone else holds a ballot at least as high; step down.
    role_ = PaxosRole::kFollower;
  }
  PaxosMessage promise;
  promise.type = PaxosMsgType::kPromise;
  promise.from = node_id_;
  promise.ballot = msg.ballot;
  promise.committed_through = first_uncommitted_;
  // Ship our accepted-but-uncommitted tail so the new leader re-proposes it.
  for (const auto& [instance, state] : instances_) {
    if (instance >= msg.instance && state.has_accepted && !state.committed) {
      promise.accepted_tail.push_back({instance, state.accepted_ballot, state.accepted_value});
    }
  }
  if (msg.from == node_id_) {
    OnPromise(promise);
  } else {
    send_(msg.from, promise);
  }
}

void PaxosNode::OnPromise(const PaxosMessage& msg) {
  if (role_ != PaxosRole::kCandidate || msg.ballot != current_ballot_) {
    return;  // stale promise for an old campaign
  }
  promise_votes_.insert(msg.from);
  phase1_max_committed_ = std::max(phase1_max_committed_, msg.committed_through);
  for (const AcceptedEntry& e : msg.accepted_tail) {
    auto it = phase1_accepted_.find(e.instance);
    if (it == phase1_accepted_.end() || e.ballot > it->second.ballot) {
      phase1_accepted_[e.instance] = e;
    }
  }
  if (promise_votes_.size() >= Quorum()) {
    BecomeLeader();
  }
}

void PaxosNode::OnNack(const PaxosMessage& msg) {
  if (msg.ballot <= current_ballot_) {
    return;
  }
  // A higher ballot exists; remember it so the next election outbids it.
  promised_ballot_ = std::max(promised_ballot_, msg.ballot);
  if (role_ != PaxosRole::kFollower) {
    role_ = PaxosRole::kFollower;
  }
}

void PaxosNode::BecomeLeader() {
  role_ = PaxosRole::kLeader;
  next_instance_ = std::max(first_uncommitted_, phase1_max_committed_);
  // Re-propose every accepted-but-uncommitted value we learned in Phase 1
  // under our ballot (Paxos safety: highest-ballot value per instance wins).
  for (const auto& [instance, entry] : phase1_accepted_) {
    if (instance < next_instance_) {
      continue;  // already committed somewhere; catchup will deliver it
    }
    InstanceState& state = State(instance);
    if (state.committed) {
      continue;
    }
    state.accept_votes.clear();
    state.in_flight = true;
    state.accepted_ballot = current_ballot_;
    state.accepted_value = entry.value;
    state.has_accepted = true;
    state.accept_votes.insert(node_id_);
    next_instance_ = std::max(next_instance_, instance + 1);

    PaxosMessage accept;
    accept.type = PaxosMsgType::kAccept;
    accept.from = node_id_;
    accept.ballot = current_ballot_;
    accept.instance = instance;
    accept.value = entry.value;
    Broadcast(accept);
  }
  // If we are behind the quorum's committed state, ask a peer for history.
  if (first_uncommitted_ < phase1_max_committed_) {
    PaxosMessage req;
    req.type = PaxosMsgType::kCatchupRequest;
    req.from = node_id_;
    req.instance = first_uncommitted_;
    Broadcast(req);
  }
  LeaderAdvance();
}

void PaxosNode::LeaderAdvance() {
  while (!pending_.empty()) {
    uint64_t instance = next_instance_++;
    InstanceState& state = State(instance);
    state.accepted_ballot = current_ballot_;
    state.accepted_value = std::move(pending_.front());
    pending_.pop_front();
    state.has_accepted = true;
    state.in_flight = true;
    state.accept_votes.clear();
    state.accept_votes.insert(node_id_);

    PaxosMessage accept;
    accept.type = PaxosMsgType::kAccept;
    accept.from = node_id_;
    accept.ballot = current_ballot_;
    accept.instance = instance;
    accept.value = state.accepted_value;
    Broadcast(accept);

    if (members_.size() == 1) {
      CommitInstance(instance, state.accepted_value);
    }
  }
}

void PaxosNode::OnAccept(const PaxosMessage& msg) {
  if (msg.ballot < promised_ballot_) {
    PaxosMessage nack;
    nack.type = PaxosMsgType::kNack;
    nack.from = node_id_;
    nack.ballot = promised_ballot_;
    send_(msg.from, nack);
    return;
  }
  promised_ballot_ = msg.ballot;
  InstanceState& state = State(msg.instance);
  if (state.committed) {
    // Already decided: tell the (possibly new) leader directly.
    PaxosMessage commit;
    commit.type = PaxosMsgType::kCommit;
    commit.from = node_id_;
    commit.ballot = msg.ballot;
    commit.instance = msg.instance;
    commit.value = state.committed_value;
    send_(msg.from, commit);
    return;
  }
  state.accepted_ballot = msg.ballot;
  state.accepted_value = msg.value;
  state.has_accepted = true;

  PaxosMessage accepted;
  accepted.type = PaxosMsgType::kAccepted;
  accepted.from = node_id_;
  accepted.ballot = msg.ballot;
  accepted.instance = msg.instance;
  send_(msg.from, accepted);
}

void PaxosNode::OnAccepted(const PaxosMessage& msg) {
  if (role_ != PaxosRole::kLeader || msg.ballot != current_ballot_) {
    return;
  }
  InstanceState& state = State(msg.instance);
  if (state.committed || !state.in_flight) {
    return;
  }
  state.accept_votes.insert(msg.from);
  if (state.accept_votes.size() >= Quorum()) {
    state.in_flight = false;
    CommitInstance(msg.instance, state.accepted_value);
    PaxosMessage commit;
    commit.type = PaxosMsgType::kCommit;
    commit.from = node_id_;
    commit.ballot = current_ballot_;
    commit.instance = msg.instance;
    commit.value = state.committed_value;
    Broadcast(commit);
  }
}

void PaxosNode::OnCommit(const PaxosMessage& msg) {
  CommitInstance(msg.instance, msg.value);
}

void PaxosNode::OnCatchupRequest(const PaxosMessage& msg) {
  // Send every committed value from msg.instance forward.
  for (uint64_t i = msg.instance; i < first_uncommitted_; ++i) {
    auto it = instances_.find(i);
    if (it == instances_.end() || !it->second.committed) {
      break;
    }
    PaxosMessage commit;
    commit.type = PaxosMsgType::kCommit;
    commit.from = node_id_;
    commit.instance = i;
    commit.value = it->second.committed_value;
    send_(msg.from, commit);
  }
}

void PaxosNode::CommitInstance(uint64_t instance, const mal::Buffer& value) {
  InstanceState& state = State(instance);
  if (state.committed) {
    return;
  }
  state.committed = true;
  state.committed_value = value;
  DeliverCommitted();
}

void PaxosNode::DeliverCommitted() {
  while (true) {
    auto it = instances_.find(first_uncommitted_);
    if (it == instances_.end() || !it->second.committed) {
      return;
    }
    on_commit_(first_uncommitted_, it->second.committed_value);
    ++first_uncommitted_;
  }
}

void PaxosNode::Heartbeat() {
  if (role_ != PaxosRole::kLeader) {
    return;
  }
  PaxosMessage prepare;
  prepare.type = PaxosMsgType::kPrepare;
  prepare.from = node_id_;
  prepare.ballot = current_ballot_;
  prepare.instance = first_uncommitted_;
  Broadcast(prepare);
}

void PaxosNode::Retransmit() {
  if (role_ == PaxosRole::kCandidate) {
    // Re-broadcast Prepare for the current campaign.
    PaxosMessage prepare;
    prepare.type = PaxosMsgType::kPrepare;
    prepare.from = node_id_;
    prepare.ballot = current_ballot_;
    prepare.instance = first_uncommitted_;
    Broadcast(prepare);
    return;
  }
  if (role_ == PaxosRole::kLeader) {
    for (auto& [instance, state] : instances_) {
      if (state.in_flight && !state.committed) {
        PaxosMessage accept;
        accept.type = PaxosMsgType::kAccept;
        accept.from = node_id_;
        accept.ballot = current_ballot_;
        accept.instance = instance;
        accept.value = state.accepted_value;
        Broadcast(accept);
      }
    }
    return;
  }
  // Follower: pull missing history if we suspect we are behind.
  PaxosMessage req;
  req.type = PaxosMsgType::kCatchupRequest;
  req.from = node_id_;
  req.instance = first_uncommitted_;
  Broadcast(req);
}

}  // namespace mal::consensus
