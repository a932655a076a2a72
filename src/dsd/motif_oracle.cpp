#include "dsd/motif_oracle.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>

#include "clique/clique_degree.h"
#include "clique/clique_enumerator.h"
#include "core/kcore.h"
#include "graph/subgraph.h"
#include "parallel/parallel_clique.h"
#include "parallel/parallel_pattern.h"
#include "parallel/parallel_peel.h"
#include "pattern/special.h"
#include "util/combinatorics.h"

namespace dsd {

// ---------------------------------------------------------------------------
// MotifOracle

std::vector<uint64_t> MotifOracle::CountPeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb,
    const ExecutionContext& ctx) const {
  std::vector<uint64_t> destroyed;
  destroyed.reserve(frontier.size());
  // Cancel is checked per removal (deterministic truncation point); the
  // deadline clock is sampled at the poller's adaptive ~1ms stride.
  DeadlinePoller poller(ctx);
  for (VertexId v : frontier) {
    if (poller.ShouldStop()) break;
    // Member i is peeled with frontier[0..i) dead: clear bits as the loop
    // advances, then restore the processed prefix so the count stage leaves
    // the mask exactly as it found it (the engine applies removals itself).
    alive[v] = 0;
    destroyed.push_back(PeelVertex(graph, v, alive, cb));
  }
  for (size_t i = 0; i < destroyed.size(); ++i) alive[frontier[i]] = 1;
  return destroyed;
}

// ---------------------------------------------------------------------------
// CliqueOracle

CliqueOracle::CliqueOracle(int h) : h_(h) { assert(h >= 2); }

std::string CliqueOracle::Name() const {
  if (h_ == 2) return "edge";
  if (h_ == 3) return "triangle";
  return std::to_string(h_) + "-clique";
}

// Alive-masked clique queries reduce to whole-graph runs on the induced
// alive subgraph, which keeps the parallel kernels' per-root partitioning
// intact.

std::vector<uint64_t> CliqueOracle::DegreesImpl(
    const Graph& graph, std::span<const char> alive,
    const ExecutionContext& ctx) const {
  if (ctx.threads <= 1) return CliqueDegreesWithin(graph, h_, alive);
  if (alive.empty()) return ParallelCliqueDegrees(graph, h_, ctx.threads);
  Subgraph sub = InducedAliveSubgraph(graph, alive);
  std::vector<uint64_t> local =
      ParallelCliqueDegrees(sub.graph, h_, ctx.threads);
  std::vector<uint64_t> degrees(graph.NumVertices(), 0);
  for (VertexId i = 0; i < local.size(); ++i) {
    degrees[sub.to_parent[i]] = local[i];
  }
  return degrees;
}

uint64_t CliqueOracle::CountInstancesImpl(const Graph& graph,
                                          std::span<const char> alive,
                                          const ExecutionContext& ctx) const {
  auto count = [&](const Graph& g) {
    return ctx.threads <= 1 ? CliqueEnumerator(g, h_).Count()
                            : ParallelCliqueCount(g, h_, ctx.threads);
  };
  if (alive.empty()) return count(graph);
  return count(InducedAliveSubgraph(graph, alive).graph);
}

std::vector<uint64_t> CliqueOracle::CountPeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb,
    const ExecutionContext& ctx) const {
  if (ctx.threads <= 1 ||
      !WorthParallelPeel(frontier.size(), graph.NumVertices())) {
    return MotifOracle::CountPeelBatch(graph, frontier, alive, cb, ctx);
  }
  return ParallelCliquePeelBatch(graph, h_, frontier, alive, cb, ctx,
                                 /*consume_alive=*/false);
}

uint64_t CliqueOracle::PeelVertex(const Graph& graph, VertexId v,
                                  std::span<const char> alive,
                                  const PeelCallback& cb) const {
  uint64_t destroyed = 0;
  EnumerateCliquesContaining(graph, h_, v, alive,
                             [&](std::span<const VertexId> rest) {
                               ++destroyed;
                               for (VertexId u : rest) cb(u, 1);
                             });
  return destroyed;
}

std::vector<InstanceGroup> CliqueOracle::Groups(
    const Graph& graph, std::span<const char> alive) const {
  std::vector<InstanceGroup> groups;
  auto emit = [&](const Graph& g, const std::vector<VertexId>* to_parent) {
    CliqueEnumerator enumerator(g, h_);
    enumerator.Enumerate([&](std::span<const VertexId> clique) {
      InstanceGroup group;
      group.vertices.assign(clique.begin(), clique.end());
      if (to_parent != nullptr) {
        for (VertexId& x : group.vertices) x = (*to_parent)[x];
      }
      std::sort(group.vertices.begin(), group.vertices.end());
      group.multiplicity = 1;
      groups.push_back(std::move(group));
    });
  };
  if (alive.empty()) {
    emit(graph, nullptr);
  } else {
    Subgraph sub = InducedAliveSubgraph(graph, alive);
    emit(sub.graph, &sub.to_parent);
  }
  return groups;
}

unsigned CliqueOracle::MaxUsefulThreads() const {
  return std::numeric_limits<unsigned>::max();
}

std::vector<uint64_t> CliqueOracle::CoreNumberUpperBounds(
    const Graph& graph) const {
  CoreDecomposition decomposition = KCoreDecomposition(graph);
  std::vector<uint64_t> bounds(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    bounds[v] = Binomial(decomposition.core[v], static_cast<uint64_t>(h_ - 1));
  }
  return bounds;
}

// ---------------------------------------------------------------------------
// PatternOracle

PatternOracle::PatternOracle(Pattern pattern, bool use_special_kernels)
    : plans_(std::move(pattern)),
      star_tails_(use_special_kernels ? plans_.pattern().StarTails() : 0),
      is_four_cycle_(use_special_kernels && plans_.pattern().IsFourCycle()) {
  assert(plans_.pattern().IsConnected());
}

std::vector<uint64_t> PatternOracle::DegreesImpl(
    const Graph& graph, std::span<const char> alive,
    const ExecutionContext& ctx) const {
  const unsigned t = ctx.threads;
  if (star_tails_ >= 2) {
    return t <= 1 ? StarDegrees(graph, star_tails_, alive)
                  : ParallelStarDegrees(graph, star_tails_, alive, t);
  }
  if (is_four_cycle_) {
    return t <= 1 ? FourCycleDegrees(graph, alive)
                  : ParallelFourCycleDegrees(graph, alive, t);
  }
  return t <= 1 ? PatternMatcher(graph, plans_).Degrees(alive)
                : ParallelPatternDegrees(graph, plans_, alive, t);
}

uint64_t PatternOracle::CountInstancesImpl(const Graph& graph,
                                           std::span<const char> alive,
                                           const ExecutionContext& ctx) const {
  const unsigned t = ctx.threads;
  if (star_tails_ >= 2) {
    return t <= 1 ? StarCount(graph, star_tails_, alive)
                  : ParallelStarCount(graph, star_tails_, alive, t);
  }
  if (is_four_cycle_) {
    return t <= 1 ? FourCycleCount(graph, alive)
                  : ParallelFourCycleCount(graph, alive, t);
  }
  return t <= 1 ? PatternMatcher(graph, plans_).CountInstances(alive)
                : ParallelPatternCount(graph, plans_, alive, t);
}

uint64_t PatternOracle::PeelVertex(const Graph& graph, VertexId v,
                                   std::span<const char> alive,
                                   const PeelCallback& cb) const {
  // Appendix D fast paths: closed-form O(d^2) peeling for stars and loops.
  if (star_tails_ >= 2) {
    return StarPeelVertex(graph, star_tails_, v, alive, cb);
  }
  if (is_four_cycle_) {
    return FourCyclePeelVertex(graph, v, alive, cb);
  }
  // Canonical instance-level peel: each destroyed instance is matched once
  // (no automorphism division), and the folded reduction reports weighted
  // per-member hits without materializing images. Aggregate those into one
  // cb call per vertex, matching the pre-plan behaviour.
  PatternMatcher matcher(graph, plans_);
  PatternMatcher::Scratch scratch = matcher.MakeScratch();
  std::unordered_map<VertexId, uint64_t> hits;
  const uint64_t destroyed = matcher.PeelContaining(
      v, /*rank=*/{}, /*my_rank=*/0, alive, scratch,
      [&](VertexId u, uint64_t count) { hits[u] += count; });
  for (const auto& [u, count] : hits) cb(u, count);
  return destroyed;
}

std::vector<uint64_t> PatternOracle::CountPeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb,
    const ExecutionContext& ctx) const {
  if (ctx.threads > 1) {
    const bool closed_form = star_tails_ >= 2 || is_four_cycle_;
    if (closed_form &&
        WorthParallelPeel(frontier.size(), graph.NumVertices())) {
      if (star_tails_ >= 2) {
        return ParallelStarPeelBatch(graph, star_tails_, frontier, alive, cb,
                                     ctx, /*consume_alive=*/false);
      }
      return ParallelFourCyclePeelBatch(graph, frontier, alive, cb, ctx,
                                        /*consume_alive=*/false);
    }
    // The per-member generic peel is expensive enough that even small
    // brackets win (WorthParallelGenericPeel's laxer ratio).
    if (!closed_form &&
        WorthParallelGenericPeel(frontier.size(), graph.NumVertices())) {
      return ParallelPatternPeelBatch(graph, plans_, frontier, alive, cb, ctx,
                                      /*consume_alive=*/false);
    }
  }
  return MotifOracle::CountPeelBatch(graph, frontier, alive, cb, ctx);
}

unsigned PatternOracle::MaxUsefulThreads() const {
  return std::numeric_limits<unsigned>::max();
}

std::vector<InstanceGroup> PatternOracle::Groups(
    const Graph& graph, std::span<const char> alive) const {
  return PatternMatcher(graph, plans_).Groups(alive);
}

std::vector<uint64_t> PatternOracle::CoreNumberUpperBounds(
    const Graph& graph) const {
  // The exact pattern-degree is always an upper bound on the pattern-core
  // number; the specialised kernels make it cheap for stars and 4-cycles
  // (appendix D). For other patterns this is the dominant cost of CoreApp,
  // matching the paper's remark that gamma exists to avoid expensive
  // clique-degree computation specifically.
  return Degrees(graph, {});
}

}  // namespace dsd
