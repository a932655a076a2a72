#include "parallel/parallel_pattern.h"

#include <algorithm>
#include <cassert>

#include "parallel/chunked_accumulator.h"
#include "parallel/parallel_for.h"
#include "pattern/isomorphism.h"
#include "pattern/special.h"
#include "util/combinatorics.h"

namespace dsd {

namespace {

// One unit of generic-matcher work: a root, or one candidate-loop slice
// of a hub root (MatchFromRoot's slice parameters).
struct RootSlice {
  VertexId root;
  uint32_t slice;
  uint32_t num_slices;
};

// Static per-root shards leave a hub root pinning one worker while the
// others drain; splitting the hub's first-extension candidate loop into
// strided slices evens the load without touching the reduction (slices
// partition the root's embeddings exactly). The threshold is relative to
// the average degree with an absolute floor, so regular graphs stay on the
// cheap one-item-per-root path.
std::vector<RootSlice> BuildRootSlices(const Graph& graph, unsigned t) {
  const VertexId n = graph.NumVertices();
  const uint64_t average =
      n > 0 ? 2 * static_cast<uint64_t>(graph.NumEdges()) / n : 0;
  const uint64_t threshold =
      std::max<uint64_t>(32, 4 * std::max<uint64_t>(average, 1));
  std::vector<RootSlice> items;
  items.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t degree = graph.Degree(v);
    uint32_t slices = 1;
    if (t > 1 && degree >= threshold) {
      slices = static_cast<uint32_t>(
          std::min<uint64_t>(t, (degree + threshold - 1) / threshold));
    }
    for (uint32_t s = 0; s < slices; ++s) items.push_back({v, s, slices});
  }
  return items;
}

}  // namespace

std::vector<uint64_t> ParallelPatternDegrees(const Graph& graph,
                                             const PatternPlanSet& plans,
                                             std::span<const char> alive,
                                             unsigned threads) {
  const VertexId n = graph.NumVertices();
  const unsigned t = ResolveThreadCount(threads, n);
  PatternMatcher matcher(graph, plans);
  if (t == 1) return matcher.Degrees(alive);
  std::vector<PatternMatcher::Scratch> scratch;
  scratch.reserve(t);
  for (unsigned w = 0; w < t; ++w) scratch.push_back(matcher.MakeScratch());
  const std::vector<RootSlice> items = BuildRootSlices(graph, t);
  ChunkedAccumulator hits(n, t);
  ParallelForStrided(items.size(), t, [&](unsigned worker, uint64_t i) {
    const RootSlice& item = items[i];
    matcher.DegreesFromRoot(
        item.root, alive, scratch[worker],
        [&](VertexId u, uint64_t count) { hits.Add(worker, u, count); },
        item.slice, item.num_slices);
  });
  return std::move(hits).Finish();
}

std::vector<uint64_t> ParallelPatternDegrees(const Graph& graph,
                                             const Pattern& pattern,
                                             std::span<const char> alive,
                                             unsigned threads) {
  return ParallelPatternDegrees(graph, PatternPlanSet(pattern), alive, threads);
}

uint64_t ParallelPatternCount(const Graph& graph, const PatternPlanSet& plans,
                              std::span<const char> alive, unsigned threads) {
  const VertexId n = graph.NumVertices();
  const unsigned t = ResolveThreadCount(threads, n);
  PatternMatcher matcher(graph, plans);
  if (t == 1) return matcher.CountInstances(alive);
  std::vector<PatternMatcher::Scratch> scratch;
  scratch.reserve(t);
  for (unsigned w = 0; w < t; ++w) scratch.push_back(matcher.MakeScratch());
  const std::vector<RootSlice> items = BuildRootSlices(graph, t);
  std::vector<PaddedCounter> partial(t);
  ParallelForStrided(items.size(), t, [&](unsigned worker, uint64_t i) {
    const RootSlice& item = items[i];
    partial[worker].value += matcher.CountFromRoot(
        item.root, alive, scratch[worker], item.slice, item.num_slices);
  });
  uint64_t total = 0;
  for (const PaddedCounter& p : partial) total += p.value;
  return total;
}

uint64_t ParallelPatternCount(const Graph& graph, const Pattern& pattern,
                              std::span<const char> alive, unsigned threads) {
  return ParallelPatternCount(graph, PatternPlanSet(pattern), alive, threads);
}

std::vector<uint64_t> ParallelStarDegrees(const Graph& graph, int x,
                                          std::span<const char> alive,
                                          unsigned threads) {
  assert(x >= 2);
  const VertexId n = graph.NumVertices();
  const unsigned t = ResolveThreadCount(threads, n);
  const MaskAlive is_alive{alive};
  // Two per-vertex passes, each worker writing only its strided indices —
  // no shared accumulation at all, so the results are trivially the
  // sequential StarDegrees values.
  std::vector<uint64_t> alive_degree(n, 0);
  ParallelForStrided(n, t, [&](unsigned, uint64_t i) {
    const VertexId v = static_cast<VertexId>(i);
    if (is_alive(v)) alive_degree[v] = AliveDegree(graph, v, is_alive);
  });
  std::vector<uint64_t> degrees(n, 0);
  ParallelForStrided(n, t, [&](unsigned, uint64_t i) {
    const VertexId v = static_cast<VertexId>(i);
    if (is_alive(v)) {
      degrees[v] = StarDegreeAt(graph, x, v, alive_degree, is_alive);
    }
  });
  return degrees;
}

uint64_t ParallelStarCount(const Graph& graph, int x,
                           std::span<const char> alive, unsigned threads) {
  const VertexId n = graph.NumVertices();
  const unsigned t = ResolveThreadCount(threads, n);
  const MaskAlive is_alive{alive};
  std::vector<PaddedCounter> partial(t);
  ParallelForStrided(n, t, [&](unsigned worker, uint64_t i) {
    const VertexId v = static_cast<VertexId>(i);
    if (!is_alive(v)) return;
    partial[worker].value +=
        Binomial(AliveDegree(graph, v, is_alive), static_cast<uint64_t>(x));
  });
  uint64_t total = 0;
  for (const PaddedCounter& p : partial) total += p.value;
  return total;
}

std::vector<uint64_t> ParallelFourCycleDegrees(const Graph& graph,
                                               std::span<const char> alive,
                                               unsigned threads) {
  const VertexId n = graph.NumVertices();
  const unsigned t = ResolveThreadCount(threads, n);
  const MaskAlive is_alive{alive};
  std::vector<uint64_t> degrees(n, 0);
  // Per-worker two-path scratch; each worker writes only degrees[v] of its
  // own roots.
  std::vector<std::vector<uint64_t>> paths(t, std::vector<uint64_t>(n, 0));
  std::vector<std::vector<VertexId>> touched(t);
  ParallelForStrided(n, t, [&](unsigned worker, uint64_t i) {
    const VertexId v = static_cast<VertexId>(i);
    if (is_alive(v)) {
      degrees[v] = FourCycleDegreeAt(graph, v, is_alive, paths[worker],
                                     touched[worker]);
    }
  });
  return degrees;
}

uint64_t ParallelFourCycleCount(const Graph& graph,
                                std::span<const char> alive,
                                unsigned threads) {
  uint64_t total = 0;
  for (uint64_t d : ParallelFourCycleDegrees(graph, alive, threads)) {
    total += d;
  }
  assert(total % 4 == 0);
  return total / 4;
}

}  // namespace dsd
