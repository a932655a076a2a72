// Tests for parallel/: parallel clique counting, parallel pattern kernels,
// frontier peel kernels and parallel core decomposition must agree
// bit-for-bit with their serial counterparts for every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>

#include "clique/clique_enumerator.h"
#include "core/nucleus.h"
#include "dsd/motif_core.h"
#include "dsd/motif_oracle.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "parallel/parallel_clique.h"
#include "parallel/parallel_for.h"
#include "parallel/parallel_nucleus.h"
#include "parallel/parallel_pattern.h"
#include "parallel/parallel_peel.h"
#include "pattern/isomorphism.h"
#include "pattern/special.h"

namespace dsd {
namespace {

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    std::vector<std::atomic<uint32_t>> hits(101);
    for (auto& h : hits) h = 0;
    ParallelForStrided(101, threads,
                       [&](unsigned, uint64_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1u) << "i=" << i << " t=" << threads;
    }
  }
}

TEST(ParallelFor, ZeroAndOneElement) {
  int calls = 0;
  ParallelForStrided(0, 4, [&](unsigned, uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelForStrided(1, 4, [&](unsigned, uint64_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ResolveThreadCountTest, AutoAndExplicit) {
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ResolveThreadCount(3), 3u);
}

TEST(ResolveThreadCountTest, ClampsByWorkItems) {
  // The 2-arg overload is what the kernels size per-worker scratch and
  // accumulators by: a tiny root space must clamp a huge budget.
  EXPECT_EQ(ResolveThreadCount(64, 3), 3u);
  EXPECT_EQ(ResolveThreadCount(2, 1000), 2u);
  EXPECT_EQ(ResolveThreadCount(64, 0), 1u);  // zero work still a valid count
  EXPECT_LE(ResolveThreadCount(0, 5), 5u);   // auto clamps too
}

TEST(ParallelFor, TinyRangeSpawnsNoIdleWorkers) {
  // Regression for the pattern-workload clamp: with 3 root vertices and a
  // 64-thread budget, only worker indices < ResolveThreadCount(64, 3) == 3
  // may ever appear — extra spawned-and-idle workers would surface here as
  // larger indices.
  std::mutex mutex;
  std::set<unsigned> workers_seen;
  ParallelForStrided(3, 64, [&](unsigned worker, uint64_t) {
    std::lock_guard<std::mutex> lock(mutex);
    workers_seen.insert(worker);
  });
  ASSERT_FALSE(workers_seen.empty());
  EXPECT_LT(*workers_seen.rbegin(), ResolveThreadCount(64, 3));
}

class ParallelCliqueTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(ParallelCliqueTest, CountMatchesSerial) {
  auto [h, threads] = GetParam();
  Graph g = gen::ErdosRenyi(80, 0.15, 42);
  EXPECT_EQ(ParallelCliqueCount(g, h, threads),
            CliqueEnumerator(g, h).Count());
}

TEST_P(ParallelCliqueTest, DegreesMatchSerial) {
  auto [h, threads] = GetParam();
  Graph g = gen::PlantedClique(120, 0.06, 9, 7);
  EXPECT_EQ(ParallelCliqueDegrees(g, h, threads),
            CliqueEnumerator(g, h).Degrees());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelCliqueTest,
                         ::testing::Combine(::testing::Range(2, 6),
                                            ::testing::Values(1u, 2u, 4u,
                                                              0u)));

// ---------------------------------------------------------------------------
// Parallel pattern kernels: per-root sharding of the embedding enumerator
// and the parallel appendix-D closed forms, vs their sequential pattern/
// counterparts.

class ParallelPatternTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelPatternTest, GenericDegreesAndCountMatchSequential) {
  const unsigned threads = GetParam();
  Graph g = gen::ErdosRenyi(70, 0.12, 99);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 0; v < g.NumVertices(); v += 4) alive[v] = 0;
  for (const Pattern& pattern :
       {Pattern::C3Star(), Pattern::TwoTriangle(), Pattern::Cycle(5)}) {
    PatternMatcher enumerator(g, pattern);
    EXPECT_EQ(ParallelPatternDegrees(g, pattern, {}, threads),
              enumerator.Degrees({}))
        << pattern.name();
    EXPECT_EQ(ParallelPatternDegrees(g, pattern, alive, threads),
              enumerator.Degrees(alive))
        << pattern.name();
    EXPECT_EQ(ParallelPatternCount(g, pattern, alive, threads),
              enumerator.CountInstances(alive))
        << pattern.name();
  }
}

TEST_P(ParallelPatternTest, SpecialKernelsMatchSequential) {
  const unsigned threads = GetParam();
  Graph g = gen::BarabasiAlbert(120, 4, 21);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 1; v < g.NumVertices(); v += 5) alive[v] = 0;
  for (int x : {2, 3, 4}) {
    EXPECT_EQ(ParallelStarDegrees(g, x, alive, threads),
              StarDegrees(g, x, alive))
        << "x=" << x;
    EXPECT_EQ(ParallelStarCount(g, x, alive, threads), StarCount(g, x, alive))
        << "x=" << x;
  }
  EXPECT_EQ(ParallelFourCycleDegrees(g, alive, threads),
            FourCycleDegrees(g, alive));
  EXPECT_EQ(ParallelFourCycleCount(g, {}, threads), FourCycleCount(g, {}));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelPatternTest,
                         ::testing::Values(1u, 2u, 4u, 0u));

TEST(ParallelPatternStress, ManySmallShardsUnderOversubscription) {
  // High-contention case for the TSan job (this suite carries the `unit`
  // label CI's TSan run selects): far more workers than cores, tiny
  // per-root shards, every worker funnelling increments through the
  // chunk-locked accumulator and its own enumerator scratch at once.
  Graph g = gen::PowerLawWithCommunities(600, 3, 12, 8, 0.8, 0xC0FFEE);
  const Pattern pattern = Pattern::C3Star();
  PatternMatcher enumerator(g, pattern);
  const std::vector<uint64_t> expected_degrees = enumerator.Degrees({});
  const uint64_t expected_count = enumerator.CountInstances({});
  for (unsigned threads : {16u, 32u}) {
    EXPECT_EQ(ParallelPatternDegrees(g, pattern, {}, threads),
              expected_degrees)
        << threads;
    EXPECT_EQ(ParallelPatternCount(g, pattern, {}, threads), expected_count)
        << threads;
    EXPECT_EQ(ParallelCliqueDegrees(g, 3, threads),
              CliqueEnumerator(g, 3).Degrees())
        << threads;
  }
}

// ---------------------------------------------------------------------------
// Frontier peel kernels (parallel/parallel_peel.h): each batch must equal
// looping PeelVertex over the frontier in order — destroyed counts per rank,
// survivor deltas, and the cleared alive bits.

struct BatchResult {
  std::vector<uint64_t> destroyed;
  std::map<VertexId, uint64_t> survivor_deltas;
  std::vector<char> alive_after;
};

// Runs `peel` (a PeelBatch-shaped callable) on a copy of `alive` and keeps
// only the deltas of vertices still alive afterwards — the part of the
// callback output the engine consumes and the contract guarantees.
template <typename Peel>
BatchResult RunBatch(const std::vector<VertexId>& frontier,
                     const std::vector<char>& alive, Peel&& peel) {
  BatchResult result;
  result.alive_after = alive;
  std::map<VertexId, uint64_t> deltas;
  result.destroyed =
      peel(frontier, result.alive_after, [&](VertexId u, uint64_t count) {
        deltas[u] += count;
      });
  for (const auto& [u, count] : deltas) {
    if (result.alive_after[u]) result.survivor_deltas[u] = count;
  }
  return result;
}

// Every 3rd alive vertex, ascending — an arbitrary but canonical frontier
// (PeelBatch's contract is order-based, not bracket-based).
std::vector<VertexId> SampleFrontier(const std::vector<char>& alive) {
  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < alive.size(); ++v) {
    if (alive[v] && v % 3 == 0) frontier.push_back(v);
  }
  return frontier;
}

TEST(WorthParallelPeelTest, FloorAndRatio) {
  EXPECT_FALSE(WorthParallelPeel(7, 10));  // below the absolute floor
  EXPECT_TRUE(WorthParallelPeel(8, 100));  // small graph: the floor rules
  // A tiny bracket of a huge graph must stay sequential — the kernels'
  // O(n) per-call setup would dwarf the members' peel work.
  EXPECT_FALSE(WorthParallelPeel(100, 1000000));
  EXPECT_TRUE(WorthParallelPeel(4096, 1000000));
}

TEST(WorthParallelPeelTest, GenericRatioIsLaxer) {
  // Same absolute floor...
  EXPECT_FALSE(WorthParallelGenericPeel(7, 10));
  EXPECT_TRUE(WorthParallelGenericPeel(8, 100));
  // ...but a generic member's plan-driven peel dwarfs the O(n) setup far
  // earlier than a clique member's neighborhood scan, so brackets the
  // clique kernels would refuse are still worth sharding.
  EXPECT_TRUE(WorthParallelGenericPeel(300, 1000000));
  EXPECT_FALSE(WorthParallelGenericPeel(100, 1000000));
}

class ParallelPeelBatchTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelPeelBatchTest, CliqueBatchMatchesSequentialLoop) {
  const unsigned threads = GetParam();
  Graph g = gen::PlantedClique(90, 0.08, 8, 5);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 1; v < g.NumVertices(); v += 7) alive[v] = 0;
  const std::vector<VertexId> frontier = SampleFrontier(alive);
  ASSERT_GE(frontier.size(), kMinParallelPeelFrontier);
  for (int h : {2, 3, 4}) {
    CliqueOracle oracle(h);
    BatchResult sequential = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return oracle.PeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                  ExecutionContext());
        });
    ExecutionContext ctx;
    ctx.threads = threads == 0 ? 8 : threads;
    BatchResult parallel = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return ParallelCliquePeelBatch(g, h, f, {mask.data(), mask.size()},
                                         cb, ctx);
        });
    EXPECT_EQ(parallel.destroyed, sequential.destroyed) << "h=" << h;
    EXPECT_EQ(parallel.survivor_deltas, sequential.survivor_deltas)
        << "h=" << h;
    EXPECT_EQ(parallel.alive_after, sequential.alive_after) << "h=" << h;
  }
}

TEST_P(ParallelPeelBatchTest, StarBatchMatchesSequentialLoop) {
  const unsigned threads = GetParam();
  Graph g = gen::BarabasiAlbert(100, 4, 11);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 2; v < g.NumVertices(); v += 9) alive[v] = 0;
  const std::vector<VertexId> frontier = SampleFrontier(alive);
  ASSERT_GE(frontier.size(), kMinParallelPeelFrontier);
  for (int x : {2, 3, 4}) {
    PatternOracle oracle(Pattern::Star(x));
    BatchResult sequential = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return oracle.PeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                  ExecutionContext());
        });
    // The closed form has one body, shared by both runs above and below;
    // the generic plan-compiled engine is the independent reference.
    PatternOracle generic(Pattern::Star(x), /*use_special_kernels=*/false);
    BatchResult reference = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return generic.PeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                   ExecutionContext());
        });
    ExecutionContext ctx;
    ctx.threads = threads == 0 ? 8 : threads;
    BatchResult parallel = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return ParallelStarPeelBatch(g, x, f, {mask.data(), mask.size()},
                                       cb, ctx);
        });
    for (const BatchResult* expected : {&sequential, &reference}) {
      EXPECT_EQ(parallel.destroyed, expected->destroyed) << "x=" << x;
      EXPECT_EQ(parallel.survivor_deltas, expected->survivor_deltas)
          << "x=" << x;
      EXPECT_EQ(parallel.alive_after, expected->alive_after) << "x=" << x;
    }
  }
}

TEST_P(ParallelPeelBatchTest, FourCycleBatchMatchesSequentialLoop) {
  const unsigned threads = GetParam();
  Graph g = gen::ErdosRenyi(80, 0.12, 23);
  std::vector<char> alive(g.NumVertices(), 1);
  const std::vector<VertexId> frontier = SampleFrontier(alive);
  ASSERT_GE(frontier.size(), kMinParallelPeelFrontier);
  PatternOracle oracle(Pattern::Cycle(4));
  BatchResult sequential = RunBatch(
      frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
        return oracle.PeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                ExecutionContext());
      });
  // Independent reference: the generic plan-compiled engine.
  PatternOracle generic(Pattern::Cycle(4), /*use_special_kernels=*/false);
  BatchResult reference = RunBatch(
      frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
        return generic.PeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                 ExecutionContext());
      });
  ExecutionContext ctx;
  ctx.threads = threads == 0 ? 8 : threads;
  BatchResult parallel = RunBatch(
      frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
        return ParallelFourCyclePeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                          ctx);
      });
  for (const BatchResult* expected : {&sequential, &reference}) {
    EXPECT_EQ(parallel.destroyed, expected->destroyed);
    EXPECT_EQ(parallel.survivor_deltas, expected->survivor_deltas);
    EXPECT_EQ(parallel.alive_after, expected->alive_after);
  }
}

TEST_P(ParallelPeelBatchTest, GenericPatternBatchMatchesSequentialLoop) {
  const unsigned threads = GetParam();
  Graph g = gen::ErdosRenyi(70, 0.12, 47);
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 1; v < g.NumVertices(); v += 8) alive[v] = 0;
  const std::vector<VertexId> frontier = SampleFrontier(alive);
  ASSERT_GE(frontier.size(), kMinParallelPeelFrontier);
  for (const Pattern& pattern :
       {Pattern::C3Star(), Pattern::TwoTriangle(), Pattern::Basket()}) {
    PatternOracle oracle(pattern);
    BatchResult sequential = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return oracle.PeelBatch(g, f, {mask.data(), mask.size()}, cb,
                                  ExecutionContext());
        });
    ExecutionContext ctx;
    ctx.threads = threads == 0 ? 8 : threads;
    const PatternPlanSet plans(pattern);
    BatchResult parallel = RunBatch(
        frontier, alive, [&](auto f, auto& mask, const PeelCallback& cb) {
          return ParallelPatternPeelBatch(g, plans, f,
                                          {mask.data(), mask.size()}, cb, ctx);
        });
    EXPECT_EQ(parallel.destroyed, sequential.destroyed) << pattern.name();
    EXPECT_EQ(parallel.survivor_deltas, sequential.survivor_deltas)
        << pattern.name();
    EXPECT_EQ(parallel.alive_after, sequential.alive_after) << pattern.name();
  }
}

TEST_P(ParallelPeelBatchTest, ExpiredDeadlineTruncatesToPrefix) {
  const unsigned threads = GetParam();
  Graph g = gen::ErdosRenyi(60, 0.15, 31);
  std::vector<char> alive(g.NumVertices(), 1);
  const std::vector<VertexId> frontier = SampleFrontier(alive);
  ExecutionContext ctx;
  ctx.threads = threads == 0 ? 8 : threads;
  ctx = ctx.WithDeadlineAfter(-1.0);
  std::vector<char> mask = alive;
  std::vector<uint64_t> destroyed = ParallelCliquePeelBatch(
      g, 3, frontier, {mask.data(), mask.size()},
      [](VertexId, uint64_t) {}, ctx);
  // An already-expired context processes nothing: no alive bit may change.
  EXPECT_TRUE(destroyed.empty());
  EXPECT_EQ(mask, alive);
  // Same truncation contract for the generic pattern kernel.
  const PatternPlanSet plans(Pattern::C3Star());
  destroyed = ParallelPatternPeelBatch(g, plans, frontier,
                                       {mask.data(), mask.size()},
                                       [](VertexId, uint64_t) {}, ctx);
  EXPECT_TRUE(destroyed.empty());
  EXPECT_EQ(mask, alive);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelPeelBatchTest,
                         ::testing::Values(1u, 2u, 4u, 0u));

TEST(ParallelPeelStress, DecompositionUnderOversubscribedBrackets) {
  // High-contention case for the TSan job (unit label): a graph whose
  // lowest-degree brackets are huge — communities of near-identical degree
  // — peeled with far more workers than cores, so every worker hammers the
  // chunk-locked delta accumulator and the shared alive mask at once while
  // the engine applies batches back to back.
  Graph g = gen::PowerLawWithCommunities(500, 3, 10, 10, 0.85, 0xBEEF);
  const MotifCoreDecomposition baseline =
      MotifCoreDecompose(g, CliqueOracle(3));
  for (unsigned threads : {16u, 32u}) {
    CliqueOracle oracle(3);
    ExecutionContext ctx;
    ctx.threads = threads;
    const MotifCoreDecomposition d = MotifCoreDecompose(g, oracle, ctx);
    EXPECT_EQ(d.core, baseline.core) << threads;
    EXPECT_EQ(d.removal_order, baseline.removal_order) << threads;
    EXPECT_EQ(d.residual_density, baseline.residual_density) << threads;
  }
  // Star brackets drive the weighted (binomial-count) accumulator adds.
  const MotifCoreDecomposition star_baseline =
      MotifCoreDecompose(g, PatternOracle(Pattern::TwoStar()));
  PatternOracle star(Pattern::TwoStar());
  ExecutionContext ctx;
  ctx.threads = 16;
  const MotifCoreDecomposition d = MotifCoreDecompose(g, star, ctx);
  EXPECT_EQ(d.core, star_baseline.core);
  EXPECT_EQ(d.removal_order, star_baseline.removal_order);
}

TEST(ParallelPeelStress, GenericPeelUnderOversubscribedBrackets) {
  // The generic rank-masked kernel under the same oversubscription regime
  // (unit label, so the TSan job covers the shared-matcher + per-worker
  // scratch combination): a non-closed-form motif whose brackets shard
  // through ParallelPatternPeelBatch.
  Graph g = gen::PowerLawWithCommunities(300, 3, 10, 10, 0.85, 0xFACADE);
  const MotifCoreDecomposition baseline =
      MotifCoreDecompose(g, PatternOracle(Pattern::C3Star()));
  for (unsigned threads : {16u, 32u}) {
    PatternOracle oracle(Pattern::C3Star());
    ExecutionContext ctx;
    ctx.threads = threads;
    const MotifCoreDecomposition d = MotifCoreDecompose(g, oracle, ctx);
    EXPECT_EQ(d.core, baseline.core) << threads;
    EXPECT_EQ(d.removal_order, baseline.removal_order) << threads;
    EXPECT_EQ(d.residual_density, baseline.residual_density) << threads;
  }
}

// ---------------------------------------------------------------------------
// Hub-root splitting: skewed graphs must still match the sequential
// enumerator exactly, and a root's candidate-loop slices must partition its
// embeddings.

TEST(ParallelPatternHubSplit, SkewGraphParity) {
  // One massive hub plus a sparse periphery: without candidate-loop
  // splitting the hub's whole embedding subtree lands on one worker; with
  // it the result must still be bit-identical.
  GraphBuilder b;
  const VertexId n = 220;
  for (VertexId v = 1; v < n; ++v) b.AddEdge(0, v);      // hub star
  for (VertexId v = 1; v + 1 < n; v += 2) b.AddEdge(v, v + 1);  // periphery
  Graph g = b.Build();
  std::vector<char> alive(g.NumVertices(), 1);
  for (VertexId v = 3; v < n; v += 11) alive[v] = 0;
  for (const Pattern& pattern :
       {Pattern::TwoStar(), Pattern::C3Star(), Pattern::Cycle(4)}) {
    PatternMatcher enumerator(g, pattern);
    const std::vector<uint64_t> expected = enumerator.Degrees(alive);
    const uint64_t expected_count = enumerator.CountInstances(alive);
    for (unsigned threads : {2u, 4u, 16u}) {
      EXPECT_EQ(ParallelPatternDegrees(g, pattern, alive, threads), expected)
          << pattern.name() << " t=" << threads;
      EXPECT_EQ(ParallelPatternCount(g, pattern, alive, threads),
                expected_count)
          << pattern.name() << " t=" << threads;
    }
  }
}

TEST(ParallelPatternHubSplit, RootSlicesPartitionEmbeddings) {
  Graph g = gen::BarabasiAlbert(60, 5, 3);
  const Pattern pattern = Pattern::C3Star();
  PatternMatcher enumerator(g, pattern);
  // Pick the max-degree vertex as the hub root.
  VertexId root = 0;
  for (VertexId v = 1; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > g.Degree(root)) root = v;
  }
  PatternMatcher::Scratch scratch = enumerator.MakeScratch();
  uint64_t full = 0;
  enumerator.MatchFromRoot(root, {}, scratch,
                               [&](std::span<const VertexId>) { ++full; });
  ASSERT_GT(full, 0u);
  for (unsigned slices : {2u, 3u, 7u}) {
    uint64_t sliced_total = 0;
    for (unsigned s = 0; s < slices; ++s) {
      enumerator.MatchFromRoot(
          root, {}, scratch, [&](std::span<const VertexId>) { ++sliced_total; },
          s, slices);
    }
    EXPECT_EQ(sliced_total, full) << slices;
  }
}

class ParallelNucleusTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(ParallelNucleusTest, MatchesSerialDecomposition) {
  auto [h, threads] = GetParam();
  Graph g = gen::ErdosRenyi(50, 0.2, h * 100 + 17);
  NucleusDecomposition parallel =
      ParallelCliqueCoreDecomposition(g, h, threads);
  MotifCoreDecomposition serial = MotifCoreDecompose(g, CliqueOracle(h));
  ASSERT_EQ(parallel.core.size(), serial.core.size());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(parallel.core[v], serial.core[v]) << "v=" << v;
  }
  EXPECT_EQ(parallel.kmax, serial.kmax);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelNucleusTest,
                         ::testing::Combine(::testing::Range(2, 5),
                                            ::testing::Values(1u, 4u, 0u)));

TEST(ParallelNucleus, EmptyAndTrivialGraphs) {
  EXPECT_EQ(ParallelCliqueCoreDecomposition(Graph(), 3, 4).kmax, 0u);
  Graph g = gen::ErdosRenyi(10, 0.0, 1);
  EXPECT_EQ(ParallelCliqueCoreDecomposition(g, 2, 4).kmax, 0u);
}

TEST(ParallelNucleus, DeterministicAcrossThreadCounts) {
  Graph g = gen::BarabasiAlbert(300, 3, 5);
  NucleusDecomposition one = ParallelCliqueCoreDecomposition(g, 3, 1);
  NucleusDecomposition eight = ParallelCliqueCoreDecomposition(g, 3, 8);
  EXPECT_EQ(one.core, eight.core);
}

}  // namespace
}  // namespace dsd
