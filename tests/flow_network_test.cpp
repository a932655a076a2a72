// Tests for flow/flow_network: the integer-capacity parallel push-relabel
// engine. Known instances, minimal and maximal min-cut sides, retuning a
// reused network, deadline truncation, reverse-arc-id rejection, the int64
// capacity-sum guard, and parallel-vs-sequential bitwise parity on
// frontiers large enough to engage the worker pool (this suite runs under
// the unit label so CI's TSan job races the discharge rounds).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "dsd/execution_context.h"
#include "flow/flow_network.h"
#include "util/random.h"

namespace dsd {
namespace {

using NodeId = FlowNetwork::NodeId;

TEST(FlowNetwork, SingleEdge) {
  FlowNetwork net(2);
  net.AddArc(0, 1, 5);
  EXPECT_EQ(net.MaxFlow(0, 1), 5);
}

TEST(FlowNetwork, SeriesTakesMinimum) {
  FlowNetwork net(3);
  net.AddArc(0, 1, 5);
  net.AddArc(1, 2, 3);
  EXPECT_EQ(net.MaxFlow(0, 2), 3);
}

TEST(FlowNetwork, ParallelPathsAdd) {
  FlowNetwork net(4);
  net.AddArc(0, 1, 2);
  net.AddArc(1, 3, 2);
  net.AddArc(0, 2, 3);
  net.AddArc(2, 3, 3);
  EXPECT_EQ(net.MaxFlow(0, 3), 5);
}

TEST(FlowNetwork, ClassicCLRSExample) {
  // CLRS figure 26.1: max flow 23.
  FlowNetwork net(6);
  net.AddArc(0, 1, 16);
  net.AddArc(0, 2, 13);
  net.AddArc(1, 2, 10);
  net.AddArc(2, 1, 4);
  net.AddArc(1, 3, 12);
  net.AddArc(3, 2, 9);
  net.AddArc(2, 4, 14);
  net.AddArc(4, 3, 7);
  net.AddArc(3, 5, 20);
  net.AddArc(4, 5, 4);
  EXPECT_EQ(net.MaxFlow(0, 5), 23);
}

TEST(FlowNetwork, DisconnectedIsZero) {
  FlowNetwork net(4);
  net.AddArc(0, 1, 10);
  net.AddArc(2, 3, 10);
  EXPECT_EQ(net.MaxFlow(0, 3), 0);
  EXPECT_EQ(net.MinCutSourceSide(0), (std::vector<NodeId>{0, 1}));
  // Node 2 still reaches t, so it stays off the maximal side as well.
  EXPECT_EQ(net.MaximalMinCutSourceSide(3), (std::vector<NodeId>{0, 1}));
}

TEST(FlowNetwork, MinimalAndMaximalSidesBracketEveryMinCut) {
  // Path s -> a -> b -> t, where a->b is the only bottleneck, beside path
  // s -> c -> t, whose two arcs tie: cutting either gives a minimum cut,
  // so c is off the minimal source side and on the maximal one.
  FlowNetwork net(5);  // s=0, a=1, b=2, c=3, t=4
  net.AddArc(0, 1, 4);
  net.AddArc(1, 2, 1);
  net.AddArc(2, 4, 4);
  net.AddArc(0, 3, 2);
  net.AddArc(3, 4, 2);
  EXPECT_EQ(net.MaxFlow(0, 4), 3);
  EXPECT_EQ(net.MinCutSourceSide(0), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(net.MaximalMinCutSourceSide(4), (std::vector<NodeId>{0, 1, 3}));
}

TEST(FlowNetwork, CapacitySumPastInt64IsOutOfRange) {
  constexpr int64_t kHalf = std::numeric_limits<int64_t>::max() / 2 + 1;
  FlowNetwork net(3);
  net.AddArc(0, 1, kHalf);
  const auto arc = net.AddArc(1, 2, kHalf - 1);
  EXPECT_TRUE(net.CheckCapacitySum().ok());
  net.SetCapacity(arc, kHalf);
  const Status status = net.CheckCapacitySum();
  EXPECT_TRUE(status.IsOutOfRange()) << status.ToString();
  EXPECT_STREQ(status.CodeName(), "OutOfRange");
}

TEST(FlowNetwork, InfiniteSourceArcNeverCutAndNeverNaN) {
  // ForceToSource's pattern: an s->v arc larger than everything v can send
  // on stands in for an infinite one; it is never cut, so v stays on the
  // source side, and the flow is exact.
  FlowNetwork net(3);
  net.AddArc(0, 1, 8);
  net.AddArc(1, 2, 7);
  EXPECT_EQ(net.MaxFlow(0, 2), 7);
  EXPECT_EQ(net.MinCutSourceSide(0), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(net.MaximalMinCutSourceSide(2), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(net.MaxFlow(0, 2), 7);
  EXPECT_EQ(net.MinCutSourceSide(0), (std::vector<NodeId>{0, 1}));
}

TEST(FlowNetwork, RepeatSolvesAreIdempotent) {
  FlowNetwork net(4);
  net.AddArc(0, 1, 2);
  net.AddArc(0, 2, 2);
  net.AddArc(1, 3, 1);
  net.AddArc(2, 3, 3);
  const int64_t first = net.MaxFlow(0, 3);
  EXPECT_EQ(net.MaxFlow(0, 3), first);
  EXPECT_EQ(net.stats().max_flow_calls, 2u);
}

TEST(FlowNetwork, WarmRetuneMatchesColdAcrossAlphaSchedule) {
  // Density-search shape: s -> v arcs fixed, v -> t arcs retuned per guess.
  // The network reused across the schedule must match a freshly built one
  // bitwise at every step (value and both cut sides), for alpha moving
  // both down and up: no state may leak from one solve into the next.
  Rng rng(7);
  const NodeId kMiddle = 20;
  const NodeId t = kMiddle + 1;
  std::vector<int64_t> source_caps(kMiddle);
  std::vector<std::pair<NodeId, NodeId>> cross;
  for (NodeId v = 0; v < kMiddle; ++v) {
    source_caps[v] = 4 * static_cast<int64_t>(1 + rng.NextBounded(8));
  }
  for (NodeId v = 0; v < kMiddle; ++v) {
    for (NodeId w = 0; w < kMiddle; ++w) {
      if (v != w && rng.NextBernoulli(0.2)) cross.push_back({v, w});
    }
  }
  auto build = [&](FlowNetwork& net, std::vector<FlowNetwork::ArcId>& alpha) {
    for (NodeId v = 0; v < kMiddle; ++v) {
      net.AddArc(0, v + 1, source_caps[v]);
      alpha.push_back(net.AddArc(v + 1, t, 0));
    }
    for (auto [v, w] : cross) net.AddArc(v + 1, w + 1, 4);
  };
  FlowNetwork reused(kMiddle + 2);
  std::vector<FlowNetwork::ArcId> reused_alpha;
  build(reused, reused_alpha);
  // Guesses k/4, with every capacity scaled by 4.
  for (const int64_t alpha : {32, 16, 24, 20, 22, 21, 39, 1}) {
    for (const auto arc : reused_alpha) reused.SetCapacity(arc, alpha);
    FlowNetwork fresh(kMiddle + 2);
    std::vector<FlowNetwork::ArcId> fresh_alpha;
    build(fresh, fresh_alpha);
    for (const auto arc : fresh_alpha) fresh.SetCapacity(arc, alpha);
    EXPECT_EQ(reused.MaxFlow(0, t), fresh.MaxFlow(0, t)) << "alpha=" << alpha;
    EXPECT_EQ(reused.MinCutSourceSide(0), fresh.MinCutSourceSide(0))
        << "alpha=" << alpha;
    EXPECT_EQ(reused.MaximalMinCutSourceSide(t),
              fresh.MaximalMinCutSourceSide(t))
        << "alpha=" << alpha;
  }
}

TEST(FlowNetwork, WarmStartOffRoutesFromScratch) {
  // Every MaxFlow routes from the configured capacities: raising and then
  // lowering an arc below the flow it carried gives the fresh values.
  FlowNetwork net(3);
  net.AddArc(0, 1, 4);
  const auto arc = net.AddArc(1, 2, 2);
  EXPECT_EQ(net.MaxFlow(0, 2), 2);
  net.SetCapacity(arc, 3);
  EXPECT_EQ(net.MaxFlow(0, 2), 3);
  net.SetCapacity(arc, 1);
  EXPECT_EQ(net.MaxFlow(0, 2), 1);
  EXPECT_EQ(net.Capacity(arc), 1);
}

TEST(FlowNetwork, ArcIdsSurviveTheCsrLayoutAndLateArcs) {
  // Ids keep addressing the same arcs after the first MaxFlow lays the
  // arcs out by tail, and an arc added afterwards joins the next solve.
  FlowNetwork net(4);
  const auto late_head = net.AddArc(2, 3, 1);
  const auto first = net.AddArc(0, 1, 6);
  net.AddArc(1, 3, 2);
  EXPECT_EQ(net.MaxFlow(0, 3), 2);
  EXPECT_EQ(net.Head(first), 1u);
  EXPECT_EQ(net.Capacity(first), 6);
  EXPECT_EQ(net.Head(late_head), 3u);
  net.AddArc(1, 2, 5);
  EXPECT_EQ(net.MaxFlow(0, 3), 3);
  net.SetCapacity(late_head, 4);
  EXPECT_EQ(net.Capacity(late_head), 4);
  EXPECT_EQ(net.MaxFlow(0, 3), 6);
  EXPECT_EQ(net.MinCutSourceSide(0), (std::vector<NodeId>{0}));
}

TEST(FlowNetwork, ChangedTerminalsForceColdStart) {
  FlowNetwork net(4);
  net.AddArc(0, 1, 5);
  net.AddArc(1, 2, 3);
  net.AddArc(2, 3, 2);
  EXPECT_EQ(net.MaxFlow(0, 3), 2);
  EXPECT_EQ(net.MaxFlow(0, 2), 3);  // different sink: must re-route
}

TEST(FlowNetwork, ReverseArcIdsAreRejected) {
  FlowNetwork net(2);
  const auto arc = net.AddArc(0, 1, 5);
#ifdef NDEBUG
  // Release builds reject silently: no state change, flow unchanged.
  net.SetCapacity(arc + 1, 99);
  EXPECT_EQ(net.Capacity(arc), 5);
  EXPECT_EQ(net.MaxFlow(0, 1), 5);
#else
  // Debug/sanitizer builds make the caller bug loud.
  EXPECT_DEATH(net.SetCapacity(arc + 1, 99), "forward arc ids");
#endif
}

TEST(FlowNetwork, DeadlineTruncatesAndResumeCompletes) {
  FlowNetwork net(5);
  net.AddArc(0, 1, 4);
  net.AddArc(0, 2, 3);
  net.AddArc(1, 3, 2);
  net.AddArc(2, 3, 5);
  net.AddArc(3, 4, 6);
  const ExecutionContext expired =
      ExecutionContext().WithDeadlineAfter(-1.0);
  const int64_t truncated = net.MaxFlow(0, 4, expired);
  EXPECT_LE(truncated, 5);
  // A later call under a fresh context routes from scratch and lands on
  // the exact value.
  EXPECT_EQ(net.MaxFlow(0, 4), 5);
}

TEST(FlowNetwork, CancelFlagTruncates) {
  FlowNetwork net(3);
  net.AddArc(0, 1, 2);
  net.AddArc(1, 2, 1);
  std::atomic<bool> cancelled{true};
  const ExecutionContext ctx =
      ExecutionContext().WithCancelFlag(&cancelled);
  const int64_t truncated = net.MaxFlow(0, 2, ctx);
  EXPECT_LE(truncated, 1);
  cancelled.store(false);
  EXPECT_EQ(net.MaxFlow(0, 2, ctx), 1);
}

// A wide random bipartite network: s -> 1500 middle nodes -> t plus random
// cross arcs. The initial frontier holds every middle node, well above the
// engine's parallel cutoff, so multi-thread contexts genuinely race the
// discharge rounds (what the TSan job is here to check), and the result
// must still be bitwise identical to the 1-thread run.
class FlowNetworkParallelTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FlowNetworkParallelTest, ParallelMatchesSequentialBitwise) {
  const unsigned threads = GetParam();
  const NodeId kMiddle = 1500;
  const NodeId t = kMiddle + 1;
  auto build = [](FlowNetwork& net) {
    Rng rng(1234);
    const NodeId middle = 1500;
    for (NodeId v = 0; v < middle; ++v) {
      net.AddArc(0, v + 1, static_cast<int64_t>(1 + rng.NextBounded(6)));
      net.AddArc(v + 1, middle + 1,
                 static_cast<int64_t>(1 + rng.NextBounded(4)));
    }
    for (NodeId v = 0; v < middle; ++v) {
      const NodeId w = static_cast<NodeId>(rng.NextBounded(middle));
      if (w != v) {
        net.AddArc(v + 1, w + 1, static_cast<int64_t>(rng.NextBounded(3)));
      }
    }
  };
  FlowNetwork sequential(kMiddle + 2);
  build(sequential);
  const int64_t expected = sequential.MaxFlow(0, t);
  const std::vector<NodeId> expected_cut = sequential.MinCutSourceSide(0);
  const std::vector<NodeId> expected_maximal =
      sequential.MaximalMinCutSourceSide(t);

  FlowNetwork parallel(kMiddle + 2);
  build(parallel);
  const ExecutionContext ctx = ExecutionContext().WithThreads(threads);
  EXPECT_EQ(parallel.MaxFlow(0, t, ctx), expected);
  EXPECT_EQ(parallel.MinCutSourceSide(0), expected_cut);
  EXPECT_EQ(parallel.MaximalMinCutSourceSide(t), expected_maximal);
  // Re-solve under the same parallel context: same answer again.
  EXPECT_EQ(parallel.MaxFlow(0, t, ctx), expected);
  EXPECT_EQ(parallel.MinCutSourceSide(0), expected_cut);
  EXPECT_EQ(parallel.MaximalMinCutSourceSide(t), expected_maximal);
}

INSTANTIATE_TEST_SUITE_P(Threads, FlowNetworkParallelTest,
                         ::testing::Values(2u, 4u));

}  // namespace
}  // namespace dsd
