// Tie differential suite (validation label): graphs whose densest subgraph
// is not unique. The exact solvers answer with the union of all densest
// subgraphs — the maximal min cut at rho* — so exact, core-exact and query
// must return bit-identical vertex sets at every thread count and on every
// repeat, equal to the brute-force references (which keep the largest
// optimal set, i.e. the union) on graphs small enough to enumerate.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dsd/brute_force.h"
#include "dsd/core_exact.h"
#include "dsd/exact.h"
#include "dsd/flow_networks.h"
#include "dsd/query_densest.h"
#include "dsd/solver.h"
#include "graph/builder.h"
#include "storage/dataset_registry.h"
#include "util/random.h"

namespace dsd {
namespace {

/// `count` disjoint copies of K_size (vertices [i*size, (i+1)*size)),
/// equally dense, joined by paths of two fresh vertices (three edges, so
/// no path raises a density) and padded with pendant vertices up to
/// `n` vertices. Returns the graph; the planted cliques are its only
/// densest subgraphs for every clique motif.
Graph PlantedTies(int count, int size, VertexId n, uint64_t seed) {
  GraphBuilder b;
  b.EnsureVertices(n);
  for (int c = 0; c < count; ++c) {
    const VertexId base = static_cast<VertexId>(c * size);
    for (int u = 0; u < size; ++u) {
      for (int v = u + 1; v < size; ++v) b.AddEdge(base + u, base + v);
    }
  }
  VertexId next = static_cast<VertexId>(count * size);
  Rng rng(seed);
  for (int c = 0; c + 1 < count && next + 2 <= n; ++c) {
    const VertexId a = static_cast<VertexId>(c * size + rng.NextBounded(size));
    const VertexId z =
        static_cast<VertexId>((c + 1) * size + rng.NextBounded(size));
    b.AddEdge(a, next);
    b.AddEdge(next, next + 1);
    b.AddEdge(next + 1, z);
    next += 2;
  }
  for (; next < n; ++next) {
    b.AddEdge(next, static_cast<VertexId>(rng.NextBounded(next)));
  }
  return b.Build();
}

/// The planted cliques' vertices, sorted.
std::vector<VertexId> PlantedVertices(int count, int size) {
  std::vector<VertexId> vertices;
  for (VertexId v = 0; v < static_cast<VertexId>(count * size); ++v) {
    vertices.push_back(v);
  }
  return vertices;
}

/// Runs `solve` at threads {1, 2, 4} with `repeats` repeats each and checks
/// every answer equals the first, bit for bit; returns the first.
template <typename Solve>
DensestResult SameEverywhere(const Solve& solve, int repeats,
                             const std::string& what) {
  const DensestResult first = solve(ExecutionContext());
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (int r = 0; r < repeats; ++r) {
      const DensestResult again =
          solve(ExecutionContext().WithThreads(threads));
      EXPECT_EQ(again.vertices, first.vertices)
          << what << " threads=" << threads << " repeat=" << r;
      EXPECT_EQ(again.density, first.density)
          << what << " threads=" << threads << " repeat=" << r;
    }
  }
  return first;
}

struct TieCase {
  int count;       // planted communities
  int size;        // clique size of each
  VertexId n;      // total vertices
};

class SmallTieTest
    : public ::testing::TestWithParam<std::tuple<TieCase, int>> {};

TEST_P(SmallTieTest, SolversMatchBruteForceUnion) {
  const auto [tie, h] = GetParam();
  const Graph g = PlantedTies(tie.count, tie.size, tie.n, 41 + tie.count);
  ASSERT_LE(g.NumVertices(), 20u);
  CliqueOracle oracle(h);
  const std::string tag = std::to_string(tie.count) + "xK" +
                          std::to_string(tie.size) + " h=" + std::to_string(h);
  const DensestResult brute = BruteForceDensest(g, oracle);
  ASSERT_EQ(brute.vertices, PlantedVertices(tie.count, tie.size)) << tag;

  const DensestResult exact = SameEverywhere(
      [&](const ExecutionContext& ctx) { return Exact(g, oracle, ctx); }, 5,
      "exact " + tag);
  EXPECT_EQ(exact.vertices, brute.vertices) << tag;
  const DensestResult core = SameEverywhere(
      [&](const ExecutionContext& ctx) {
        return CoreExact(g, oracle, CoreExactOptions(), ctx);
      },
      5, "core-exact " + tag);
  EXPECT_EQ(core.vertices, brute.vertices) << tag;

  // Anchored in the last community and, when there is one, in the first
  // vertex outside the communities: the union of all optimal sets
  // containing the anchor.
  for (const VertexId anchor :
       {static_cast<VertexId>(tie.count * tie.size - 1),
        static_cast<VertexId>(tie.count * tie.size)}) {
    if (anchor >= g.NumVertices()) continue;
    const std::vector<VertexId> query = {anchor};
    const DensestResult reference = BruteForceQueryDensest(g, oracle, query);
    const DensestResult anchored = SameEverywhere(
        [&](const ExecutionContext& ctx) {
          return QueryDensest(g, oracle, query, ctx);
        },
        5, "query " + tag);
    EXPECT_EQ(anchored.vertices, reference.vertices)
        << tag << " anchor=" << anchor;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Communities, SmallTieTest,
    ::testing::Combine(::testing::Values(TieCase{2, 5, 16}, TieCase{3, 5, 17},
                                         TieCase{4, 4, 16}),
                       ::testing::Values(2, 3)));

TEST(LargeTieTest, ThreadsAndRepeatsAgreeOnPlantedUnion) {
  // Large enough for the parallel discharge to engage on the whole-graph
  // network; four K12s tie at edge density 5.5.
  const Graph g = PlantedTies(4, 12, 3000, 7);
  CliqueOracle edge(2);
  const std::vector<VertexId> planted = PlantedVertices(4, 12);
  const DensestResult exact = SameEverywhere(
      [&](const ExecutionContext& ctx) { return Exact(g, edge, ctx); }, 5,
      "exact");
  EXPECT_EQ(exact.vertices, planted);
  const DensestResult core = SameEverywhere(
      [&](const ExecutionContext& ctx) {
        return CoreExact(g, edge, CoreExactOptions(), ctx);
      },
      5, "core-exact");
  EXPECT_EQ(core.vertices, planted);
  const std::vector<VertexId> query = {13};
  const DensestResult anchored = SameEverywhere(
      [&](const ExecutionContext& ctx) {
        return QueryDensest(g, edge, query, ctx);
      },
      5, "query");
  EXPECT_EQ(anchored.vertices, planted);
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

TEST(LargeTieTest, PowerLawSeed24ExactAndCoreExactAgree) {
  // The pl-100k registry recipe re-seeded the way the repository benchmark
  // mixes its seed 24 in: several equally dense planted communities tie
  // for the edge optimum, and both solvers must return all of them.
  storage::DatasetRegistry registry;
  StatusOr<storage::DatasetSpec> info = registry.Info("pl-100k");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  storage::DatasetSpec spec = info.value();
  const uint64_t frozen = std::stoull(spec.params["seed"], nullptr, 0);
  spec.params["seed"] = std::to_string(frozen ^ SplitMix64(24));
  spec.name = "pl-100k-s24";
  ASSERT_TRUE(registry.Add(spec).ok());
  StatusOr<Graph> built = registry.BuildFresh(spec.name);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Graph& g = built.value();

  CliqueOracle edge(2);
  for (const unsigned threads : {1u, 2u, 4u}) {
    const ExecutionContext ctx = ExecutionContext().WithThreads(threads);
    const DensestResult exact = Exact(g, edge, ctx);
    const DensestResult core = CoreExact(g, edge, CoreExactOptions(), ctx);
    EXPECT_EQ(exact.vertices.size(), 64u) << "threads=" << threads;
    EXPECT_EQ(core.vertices, exact.vertices) << "threads=" << threads;
    EXPECT_EQ(core.density, exact.density) << "threads=" << threads;
  }
}

TEST(FlowSolverOverflowTest, ScalePastInt64IsOutOfRange) {
  // A density scale whose capacities cannot fit in int64 is refused at
  // construction with a typed error, not solved with wrapped arithmetic.
  const Graph g = PlantedTies(2, 5, 16, 3);
  constexpr uint64_t kHuge = std::numeric_limits<uint64_t>::max() / 4;
  const FlowSolverOr eds =
      MakeEdsFlowSolver(g, ExecutionContext(), Density{kHuge, kHuge});
  ASSERT_FALSE(eds.ok());
  EXPECT_TRUE(eds.status().IsOutOfRange()) << eds.status().ToString();
  CliqueOracle triangle(3);
  const FlowSolverOr clique = MakeDefaultFlowSolver(
      g, triangle, ExecutionContext(), Density{kHuge, 1});
  ASSERT_FALSE(clique.ok());
  EXPECT_TRUE(clique.status().IsOutOfRange()) << clique.status().ToString();
  // The graph's own scale fits.
  EXPECT_TRUE(MakeEdsFlowSolver(g).ok());
}

/// A 2-star oracle reporting motif degrees near 2^62: a network scaled by
/// them cannot fit in int64.
class HugeDegreeOracle : public PatternOracle {
 public:
  HugeDegreeOracle() : PatternOracle(Pattern::TwoStar()) {}

 protected:
  std::vector<uint64_t> DegreesImpl(const Graph& graph, std::span<const char>,
                                    const ExecutionContext&) const override {
    return std::vector<uint64_t>(graph.NumVertices(), uint64_t{1} << 62);
  }
};

TEST(FlowSolverOverflowTest, SolveReturnsTheTypedError) {
  const Graph g = PlantedTies(2, 5, 16, 3);
  HugeDegreeOracle oracle;
  SolveRequest request;
  request.algorithm = "exact";
  const StatusOr<SolveResponse> solved = Solve(g, oracle, request);
  ASSERT_FALSE(solved.ok());
  EXPECT_TRUE(solved.status().IsOutOfRange()) << solved.status().ToString();
}

}  // namespace
}  // namespace dsd
