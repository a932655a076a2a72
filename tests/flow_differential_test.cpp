// Randomized differential suite for the flow layer (validation label).
//
// Three layers of cross-checks:
//   * FlowNetwork vs. an augmenting-path reference, the Dinic backend and
//     an exhaustive cut enumeration on seeded random networks — flow
//     values, the minimal and the maximal min-cut source sides must agree
//     exactly.
//   * A network reused across an alpha schedule vs. a freshly built one at
//     every step, including steps that shrink capacities below the flow
//     the previous solve carried, plus deadline/cancel truncation followed
//     by a full solve.
//   * CoreExact and Exact end to end: across thread counts and pruning
//     toggles, the identical densest subgraph.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "dsd/core_exact.h"
#include "dsd/exact.h"
#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "flow/flow_network.h"
#include "flow/max_flow.h"
#include "graph/generators.h"
#include "util/random.h"

namespace dsd {
namespace {

using NodeId = FlowNetwork::NodeId;

// Reference: Ford-Fulkerson with BFS augmenting paths on an adjacency
// matrix (same oracle flow_test.cpp checks Dinic against).
double ReferenceMaxFlow(std::vector<std::vector<double>> cap, int s, int t) {
  const int n = static_cast<int>(cap.size());
  double flow = 0;
  while (true) {
    std::vector<int> parent(n, -1);
    parent[s] = s;
    std::vector<int> queue = {s};
    for (size_t qi = 0; qi < queue.size() && parent[t] == -1; ++qi) {
      int v = queue[qi];
      for (int w = 0; w < n; ++w) {
        if (parent[w] == -1 && cap[v][w] > 1e-9) {
          parent[w] = v;
          queue.push_back(w);
        }
      }
    }
    if (parent[t] == -1) break;
    double bottleneck = std::numeric_limits<double>::infinity();
    for (int v = t; v != s; v = parent[v]) {
      bottleneck = std::min(bottleneck, cap[parent[v]][v]);
    }
    for (int v = t; v != s; v = parent[v]) {
      cap[parent[v]][v] -= bottleneck;
      cap[v][parent[v]] += bottleneck;
    }
    flow += bottleneck;
  }
  return flow;
}

class FlowDifferentialTest : public ::testing::TestWithParam<int> {};

// Exhaustive reference for small networks: the minimum cut value over all
// source sides X (s in X, t not), and the intersection and union of the
// minimizing X — the minimal and maximal min-cut source sides.
struct CutReference {
  int64_t value = 0;
  std::vector<NodeId> minimal;
  std::vector<NodeId> maximal;
};

CutReference EnumerateCuts(const std::vector<std::vector<int64_t>>& cap,
                           int s, int t) {
  const int n = static_cast<int>(cap.size());
  CutReference ref;
  ref.value = std::numeric_limits<int64_t>::max();
  uint32_t meet = 0, join = 0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (!((mask >> s) & 1u) || ((mask >> t) & 1u)) continue;
    int64_t value = 0;
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (((mask >> u) & 1u) && !((mask >> v) & 1u)) value += cap[u][v];
      }
    }
    if (value < ref.value) {
      ref.value = value;
      meet = join = mask;
    } else if (value == ref.value) {
      meet &= mask;
      join |= mask;
    }
  }
  for (int v = 0; v < n; ++v) {
    if ((meet >> v) & 1u) ref.minimal.push_back(v);
    if ((join >> v) & 1u) ref.maximal.push_back(v);
  }
  return ref;
}

TEST_P(FlowDifferentialTest, MatchesReferenceAndDinic) {
  Rng rng(GetParam());
  const int n = 2 + static_cast<int>(rng.NextBounded(12));
  std::vector<std::vector<double>> cap(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<int64_t>> int_cap(n, std::vector<int64_t>(n, 0));
  FlowNetwork net(n);
  MaxFlowNetwork dinic(n);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u != v && rng.NextBernoulli(0.4)) {
        const int64_t c = static_cast<int64_t>(rng.NextBounded(10));
        cap[u][v] += static_cast<double>(c);
        int_cap[u][v] += c;
        net.AddArc(u, v, c);
        dinic.AddArc(u, v, static_cast<double>(c));
      }
    }
  }
  const double expected = ReferenceMaxFlow(cap, 0, n - 1);
  EXPECT_EQ(static_cast<double>(net.MaxFlow(0, n - 1)), expected);
  EXPECT_EQ(dinic.MaxFlow(0, n - 1), expected);
  // The minimal min-cut source side is unique across max flows, so two
  // independent engines must extract the identical set.
  const auto side = net.MinCutSourceSide(0);
  const std::vector<NodeId> dinic_side = dinic.MinCutSourceSide(0);
  EXPECT_EQ(side, dinic_side);
  // Both extreme sides against the exhaustive enumeration of all cuts.
  const CutReference ref = EnumerateCuts(int_cap, 0, n - 1);
  EXPECT_EQ(static_cast<double>(ref.value), expected);
  EXPECT_EQ(side, ref.minimal);
  EXPECT_EQ(net.MaximalMinCutSourceSide(n - 1), ref.maximal);
}

TEST_P(FlowDifferentialTest, WarmScheduleMatchesColdBitwise) {
  // Random layered "alpha network" + a random retune schedule for the sink
  // arcs (guesses k/8 with every capacity scaled by 8). After each retune,
  // the network reused across the schedule must match a freshly built one
  // bitwise on value and both cut sides — including steps where the new
  // capacity undercuts the flow the previous solve carried.
  Rng rng(1000 + GetParam());
  const NodeId middle = 4 + static_cast<NodeId>(rng.NextBounded(12));
  const NodeId t = middle + 1;
  std::vector<int64_t> source_caps(middle);
  std::vector<std::pair<NodeId, NodeId>> cross;
  for (NodeId v = 0; v < middle; ++v) {
    source_caps[v] = 8 * static_cast<int64_t>(rng.NextBounded(9));
    for (NodeId w = 0; w < middle; ++w) {
      if (v != w && rng.NextBernoulli(0.25)) cross.push_back({v, w});
    }
  }
  // Both networks must get the same cross-arc capacities: record them once
  // instead of re-running the rng per build.
  std::vector<int64_t> cross_caps;
  for (size_t i = 0; i < cross.size(); ++i) {
    cross_caps.push_back(8 * static_cast<int64_t>(1 + rng.NextBounded(3)));
  }
  auto build_fixed = [&](FlowNetwork& net,
                         std::vector<FlowNetwork::ArcId>& alpha) {
    for (NodeId v = 0; v < middle; ++v) {
      net.AddArc(0, v + 1, source_caps[v]);
      alpha.push_back(net.AddArc(v + 1, t, 0));
    }
    for (size_t i = 0; i < cross.size(); ++i) {
      net.AddArc(cross[i].first + 1, cross[i].second + 1, cross_caps[i]);
    }
  };
  FlowNetwork reused(middle + 2);
  std::vector<FlowNetwork::ArcId> reused_alpha;
  build_fixed(reused, reused_alpha);
  for (int step = 0; step < 8; ++step) {
    const int64_t alpha = static_cast<int64_t>(rng.NextBounded(65));
    for (const auto arc : reused_alpha) reused.SetCapacity(arc, alpha);
    FlowNetwork fresh(middle + 2);
    std::vector<FlowNetwork::ArcId> fresh_alpha;
    build_fixed(fresh, fresh_alpha);
    for (const auto arc : fresh_alpha) fresh.SetCapacity(arc, alpha);
    ASSERT_EQ(reused.MaxFlow(0, t), fresh.MaxFlow(0, t))
        << "seed=" << GetParam() << " step=" << step << " alpha=" << alpha;
    ASSERT_EQ(reused.MinCutSourceSide(0), fresh.MinCutSourceSide(0))
        << "seed=" << GetParam() << " step=" << step << " alpha=" << alpha;
    ASSERT_EQ(reused.MaximalMinCutSourceSide(t),
              fresh.MaximalMinCutSourceSide(t))
        << "seed=" << GetParam() << " step=" << step << " alpha=" << alpha;
  }
}

TEST_P(FlowDifferentialTest, TruncatedSolveResumesToExactValue) {
  Rng rng(2000 + GetParam());
  const int n = 6 + static_cast<int>(rng.NextBounded(10));
  FlowNetwork net(n);
  FlowNetwork reference(n);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u != v && rng.NextBernoulli(0.4)) {
        const int64_t c = static_cast<int64_t>(rng.NextBounded(8));
        net.AddArc(u, v, c);
        reference.AddArc(u, v, c);
      }
    }
  }
  const int64_t expected = reference.MaxFlow(0, n - 1);
  // Cancelled from the start: the call returns its (possibly zero)
  // flow-so-far; the next call routes from scratch to the exact value.
  std::atomic<bool> cancelled{true};
  const int64_t truncated = net.MaxFlow(
      0, n - 1, ExecutionContext().WithCancelFlag(&cancelled));
  EXPECT_LE(truncated, expected);
  cancelled.store(false);
  EXPECT_EQ(net.MaxFlow(0, n - 1), expected);
  EXPECT_EQ(net.MinCutSourceSide(0), reference.MinCutSourceSide(0));
  EXPECT_EQ(net.MaximalMinCutSourceSide(n - 1),
            reference.MaximalMinCutSourceSide(n - 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowDifferentialTest,
                         ::testing::Range(0, 25));

// End to end: CoreExact's densest-subgraph answer must be identical across
// thread budgets and pruning toggles (the acceptance bar bench_flow
// re-checks at registry scale).
TEST(FlowDifferentialCoreExact, ThreadsAndPruningsAgree) {
  for (const uint64_t seed : {3u, 11u}) {
    const Graph g = gen::ErdosRenyi(150, 0.12, seed);
    for (const int h : {2, 3}) {
      CliqueOracle oracle(h);
      // Without Pruning1/2 the search starts from the kmax-core's density
      // and needs several cuts; with them it often needs one.
      CoreExactOptions bare;
      bare.pruning1 = false;
      bare.pruning2 = false;
      const DensestResult baseline = CoreExact(g, oracle, bare);
      EXPECT_GT(baseline.stats.flow_max_flow_calls, 0u)
          << "seed=" << seed << " h=" << h;
      EXPECT_EQ(baseline.stats.flow_warm_starts, 0u);
      for (const unsigned threads : {2u, 4u}) {
        const DensestResult parallel = CoreExact(
            g, oracle, bare, ExecutionContext().WithThreads(threads));
        EXPECT_EQ(baseline.vertices, parallel.vertices)
            << "seed=" << seed << " h=" << h << " threads=" << threads;
        EXPECT_EQ(baseline.density, parallel.density)
            << "seed=" << seed << " h=" << h << " threads=" << threads;
      }
      // Default options (all prunings on) and the whole-graph search must
      // land on the same union of densest subgraphs.
      const DensestResult pruned = CoreExact(g, oracle);
      EXPECT_EQ(baseline.vertices, pruned.vertices)
          << "seed=" << seed << " h=" << h;
      const DensestResult whole = Exact(g, oracle);
      EXPECT_EQ(baseline.vertices, whole.vertices)
          << "seed=" << seed << " h=" << h;
    }
  }
}

TEST(FlowDifferentialExact, SearchAgreesAcrossThreads) {
  // Exact (whole-graph Dinkelbach search) against the same run under a
  // multi-thread context.
  const Graph g = gen::PlantedClique(80, 0.06, 10, 17);
  CliqueOracle edge(2);
  const DensestResult sequential = Exact(g, edge);
  EXPECT_GT(sequential.stats.flow_max_flow_calls, 0u);
  EXPECT_EQ(sequential.stats.flow_warm_starts, 0u);
  const DensestResult parallel =
      Exact(g, edge, ExecutionContext().WithThreads(4));
  EXPECT_EQ(sequential.vertices, parallel.vertices);
  EXPECT_EQ(sequential.density, parallel.density);
}

}  // namespace
}  // namespace dsd
