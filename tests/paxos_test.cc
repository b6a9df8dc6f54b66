// Unit and property tests for multi-decree Paxos.
//
// The harness wires N PaxosNodes through an in-memory message bus with
// controllable delivery: in-order, dropped, duplicated, or randomly
// shuffled. Property tests assert the two core invariants under chaos:
//   agreement  — no two nodes commit different values for an instance
//   prefix     — every node's committed sequence is a prefix of the longest
#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "src/common/rng.h"
#include "src/consensus/paxos.h"

namespace mal::consensus {
namespace {

class PaxosHarness {
 public:
  explicit PaxosHarness(size_t n) {
    std::vector<uint32_t> members;
    for (uint32_t i = 0; i < n; ++i) {
      members.push_back(i);
    }
    for (uint32_t i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<PaxosNode>(
          i, members,
          [this, i](uint32_t peer, const PaxosMessage& msg) {
            queue_.push_back({i, peer, RoundTrip(msg)});
          },
          [this, i](uint64_t /*instance*/, const mal::Buffer& value) {
            committed_[i].push_back(value.ToString());
          }));
      committed_.emplace_back();
    }
  }

  PaxosNode& node(size_t i) { return *nodes_[i]; }
  const std::vector<std::string>& committed(size_t i) const { return committed_[i]; }
  size_t queued() const { return queue_.size(); }

  // Serialization round-trip on every hop: exercises the wire format.
  static PaxosMessage RoundTrip(const PaxosMessage& msg) {
    mal::Buffer buffer;
    mal::Encoder enc(&buffer);
    enc(msg);
    auto decoded = mal::Decode<PaxosMessage>(buffer);
    EXPECT_TRUE(decoded.ok());
    return std::move(decoded).value();
  }

  // Delivers all queued messages (and those they generate), in order.
  void DeliverAll(const std::set<uint32_t>& down = {}) {
    while (!queue_.empty()) {
      auto [from, to, msg] = queue_.front();
      queue_.pop_front();
      if (down.count(from) != 0 || down.count(to) != 0) {
        continue;
      }
      nodes_[to]->HandleMessage(msg);
    }
  }

  // Chaos delivery: each step picks a random queued message; drops with
  // probability p_drop, duplicates with p_dup. Runs until quiescent, then
  // triggers retransmissions a few times to restore liveness.
  void DeliverChaos(mal::Rng* rng, double p_drop, double p_dup, int max_retransmit_rounds = 50) {
    for (int round = 0; round < max_retransmit_rounds; ++round) {
      while (!queue_.empty()) {
        size_t pick = rng->NextBelow(queue_.size());
        std::swap(queue_[pick], queue_.back());
        auto [from, to, msg] = std::move(queue_.back());
        queue_.pop_back();
        if (rng->Bernoulli(p_drop)) {
          continue;
        }
        if (rng->Bernoulli(p_dup)) {
          queue_.push_back({from, to, msg});
        }
        nodes_[to]->HandleMessage(msg);
      }
      bool all_done = true;
      for (size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i]->pending_proposals() != 0 ||
            committed_[i].size() != committed_[0].size()) {
          all_done = false;
        }
      }
      if (all_done && round > 0) {
        return;
      }
      for (auto& node : nodes_) {
        node->Retransmit();
      }
    }
  }

  void CheckInvariants() const {
    // Prefix/agreement: all committed logs agree on shared prefix.
    for (size_t i = 0; i < committed_.size(); ++i) {
      for (size_t j = i + 1; j < committed_.size(); ++j) {
        size_t common = std::min(committed_[i].size(), committed_[j].size());
        for (size_t k = 0; k < common; ++k) {
          ASSERT_EQ(committed_[i][k], committed_[j][k])
              << "divergence at instance " << k << " between node " << i << " and " << j;
        }
      }
    }
  }

 private:
  struct QueuedMessage {
    uint32_t from;
    uint32_t to;
    PaxosMessage msg;
  };
  std::vector<std::unique_ptr<PaxosNode>> nodes_;
  std::deque<QueuedMessage> queue_;
  std::vector<std::vector<std::string>> committed_;
};

TEST(PaxosMessageTest, EncodeDecodeRoundTrip) {
  PaxosMessage msg;
  msg.type = PaxosMsgType::kPromise;
  msg.from = 3;
  msg.ballot = (7ULL << 16) | 3;
  msg.instance = 42;
  msg.value = mal::Buffer::FromString("payload");
  msg.accepted_tail.push_back({41, 5, mal::Buffer::FromString("old")});
  msg.committed_through = 41;

  PaxosMessage decoded = PaxosHarness::RoundTrip(msg);
  EXPECT_EQ(decoded.type, PaxosMsgType::kPromise);
  EXPECT_EQ(decoded.from, 3u);
  EXPECT_EQ(decoded.ballot, msg.ballot);
  EXPECT_EQ(decoded.instance, 42u);
  EXPECT_EQ(decoded.value.ToString(), "payload");
  ASSERT_EQ(decoded.accepted_tail.size(), 1u);
  EXPECT_EQ(decoded.accepted_tail[0].value.ToString(), "old");
  EXPECT_EQ(decoded.committed_through, 41u);
}

TEST(PaxosTest, SingleNodeCommitsImmediately) {
  PaxosHarness h(1);
  h.node(0).StartElection();
  h.DeliverAll();
  EXPECT_TRUE(h.node(0).IsLeader());
  h.node(0).Propose(mal::Buffer::FromString("v0"));
  h.DeliverAll();
  ASSERT_EQ(h.committed(0).size(), 1u);
  EXPECT_EQ(h.committed(0)[0], "v0");
}

TEST(PaxosTest, ThreeNodeElectionAndCommit) {
  PaxosHarness h(3);
  h.node(0).StartElection();
  h.DeliverAll();
  EXPECT_TRUE(h.node(0).IsLeader());
  EXPECT_EQ(h.node(1).role(), PaxosRole::kFollower);

  h.node(0).Propose(mal::Buffer::FromString("a"));
  h.node(0).Propose(mal::Buffer::FromString("b"));
  h.DeliverAll();
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(h.committed(i).size(), 2u) << "node " << i;
    EXPECT_EQ(h.committed(i)[0], "a");
    EXPECT_EQ(h.committed(i)[1], "b");
  }
}

TEST(PaxosTest, ProposalsQueueUntilLeadership) {
  PaxosHarness h(3);
  EXPECT_EQ(h.node(0).Propose(mal::Buffer::FromString("early")), std::nullopt);
  EXPECT_EQ(h.node(0).pending_proposals(), 1u);
  h.node(0).StartElection();
  h.DeliverAll();
  EXPECT_EQ(h.committed(0).size(), 1u);
  EXPECT_EQ(h.committed(0)[0], "early");
}

TEST(PaxosTest, CommitsSurviveMinorityFailure) {
  PaxosHarness h(5);
  h.node(0).StartElection();
  h.DeliverAll();
  // Two nodes down: quorum of 3 still commits.
  h.node(0).Propose(mal::Buffer::FromString("with-failures"));
  h.DeliverAll({3, 4});
  EXPECT_EQ(h.committed(0).size(), 1u);
  EXPECT_EQ(h.committed(1).size(), 1u);
  EXPECT_EQ(h.committed(3).size(), 0u);  // down node missed it
  h.CheckInvariants();
}

TEST(PaxosTest, NoCommitWithoutQuorum) {
  PaxosHarness h(5);
  h.node(0).StartElection();
  h.DeliverAll();
  h.node(0).Propose(mal::Buffer::FromString("doomed"));
  h.DeliverAll({2, 3, 4});  // only 2 of 5 alive
  EXPECT_EQ(h.committed(0).size(), 0u);
  EXPECT_EQ(h.committed(1).size(), 0u);
}

TEST(PaxosTest, NewLeaderAdoptsAcceptedValue) {
  PaxosHarness h(3);
  h.node(0).StartElection();
  h.DeliverAll();
  // Node 0 proposes but only node 1 sees the Accept before node 0 "fails".
  h.node(0).Propose(mal::Buffer::FromString("orphan"));
  h.DeliverAll({2});  // node 2 missed phase 2
  ASSERT_EQ(h.committed(1).size(), 1u);

  // Node 2 takes over leadership; Phase 1 must resurrect the value so the
  // logs agree (Paxos safety).
  h.node(2).StartElection();
  h.DeliverAll({0});
  h.CheckInvariants();
  ASSERT_GE(h.committed(2).size(), 1u);
  EXPECT_EQ(h.committed(2)[0], "orphan");
}

TEST(PaxosTest, HigherBallotWinsElection) {
  PaxosHarness h(3);
  h.node(0).StartElection();
  h.DeliverAll();
  EXPECT_TRUE(h.node(0).IsLeader());
  h.node(1).StartElection();  // higher round
  h.DeliverAll();
  EXPECT_TRUE(h.node(1).IsLeader());
  EXPECT_FALSE(h.node(0).IsLeader());

  h.node(1).Propose(mal::Buffer::FromString("from-new-leader"));
  h.DeliverAll();
  EXPECT_EQ(h.committed(0).size(), 1u);
  h.CheckInvariants();
}

TEST(PaxosTest, FollowerCatchesUpViaRetransmit) {
  PaxosHarness h(3);
  h.node(0).StartElection();
  h.DeliverAll();
  h.node(0).Propose(mal::Buffer::FromString("x"));
  h.node(0).Propose(mal::Buffer::FromString("y"));
  h.DeliverAll({2});  // node 2 missed everything
  EXPECT_EQ(h.committed(2).size(), 0u);

  h.node(2).Retransmit();  // follower pulls history
  h.DeliverAll();
  EXPECT_EQ(h.committed(2).size(), 2u);
  h.CheckInvariants();
}

TEST(PaxosTest, DuplicateMessagesAreIdempotent) {
  PaxosHarness h(3);
  h.node(0).StartElection();
  h.DeliverAll();
  h.node(0).Propose(mal::Buffer::FromString("once"));
  h.DeliverAll();
  // Retransmit everything: commits must not duplicate.
  h.node(0).Retransmit();
  h.node(1).Retransmit();
  h.node(2).Retransmit();
  h.DeliverAll();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(h.committed(i).size(), 1u) << "node " << i;
  }
}

// Property test: under random drop/duplication/reordering with periodic
// retransmission, all nodes converge to identical logs containing every
// proposed value exactly once.
class PaxosChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(PaxosChaosTest, ConvergesUnderMessageChaos) {
  mal::Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const size_t n = 3 + rng.NextBelow(2) * 2;  // 3 or 5 nodes
  PaxosHarness h(n);
  h.node(0).StartElection();
  h.DeliverChaos(&rng, /*p_drop=*/0.05, /*p_dup=*/0.1);

  const int num_values = 8;
  for (int v = 0; v < num_values; ++v) {
    h.node(0).Propose(mal::Buffer::FromString("value-" + std::to_string(v)));
    if (rng.Bernoulli(0.3)) {
      h.DeliverChaos(&rng, 0.05, 0.1);
    }
  }
  h.DeliverChaos(&rng, 0.05, 0.1);

  h.CheckInvariants();
  // The leader (never crashed here) must have committed everything.
  ASSERT_EQ(h.committed(0).size(), static_cast<size_t>(num_values));
  for (int v = 0; v < num_values; ++v) {
    EXPECT_EQ(h.committed(0)[v], "value-" + std::to_string(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosChaosTest, ::testing::Range(0, 20));

// Property test: leadership churn mid-stream never violates agreement.
class PaxosChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(PaxosChurnTest, LeadershipChurnPreservesAgreement) {
  mal::Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  PaxosHarness h(3);
  h.node(0).StartElection();
  h.DeliverAll();

  int proposed = 0;
  for (int step = 0; step < 12; ++step) {
    uint32_t actor = static_cast<uint32_t>(rng.NextBelow(3));
    if (rng.Bernoulli(0.3)) {
      h.node(actor).StartElection();
    } else {
      for (uint32_t i = 0; i < 3; ++i) {
        if (h.node(i).IsLeader()) {
          h.node(i).Propose(mal::Buffer::FromString("p" + std::to_string(proposed++)));
          break;
        }
      }
    }
    if (rng.Bernoulli(0.5)) {
      h.DeliverChaos(&rng, 0.02, 0.05, 10);
    }
  }
  h.DeliverChaos(&rng, 0.0, 0.0);
  h.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosChurnTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace mal::consensus
