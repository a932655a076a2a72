#include "dsd/query_densest.h"

#include <algorithm>
#include <cassert>

#include "dsd/core_exact.h"
#include "dsd/density.h"
#include "dsd/flow_networks.h"
#include "dsd/measure.h"
#include "dsd/motif_core.h"
#include "graph/subgraph.h"
#include "util/timer.h"

namespace dsd {

namespace {

// Q-protected core restriction: batch-drops non-query vertices whose motif
// degree falls below k. Query vertices are never dropped, but still supply
// degrees to their neighbors. Valid location for the optimum: every non-Q
// vertex of the optimal answer participates in >= ceil(rho*) >= k instances
// inside the answer (Lemma 4's argument applied to removable vertices only).
std::vector<VertexId> RestrictToCoreProtected(
    const Graph& graph, const MotifOracle& oracle,
    const std::vector<VertexId>& vertices, uint64_t k,
    std::span<const VertexId> query, const ExecutionContext& ctx) {
  std::vector<char> is_query(graph.NumVertices(), 0);
  for (VertexId q : query) is_query[q] = 1;
  std::vector<VertexId> survivors(vertices);
  std::sort(survivors.begin(), survivors.end());
  // Polled like RestrictToCore: every round is a full degree pass, and a
  // superset of the protected core is a valid (best-effort) search space.
  // Like RestrictToCore, rounds are alive-masked queries on the parent
  // graph, keyed by its generation tag in the CachingOracle — an induced
  // rebuild per round would make every query an uncacheable fresh graph.
  std::vector<char> alive(graph.NumVertices(), 0);
  for (VertexId v : survivors) alive[v] = 1;
  while (!ctx.ShouldStop()) {
    std::vector<uint64_t> degree = oracle.Degrees(graph, alive, ctx);
    std::vector<VertexId> next;
    next.reserve(survivors.size());
    for (VertexId v : survivors) {
      if (degree[v] >= k || is_query[v]) {
        next.push_back(v);
      } else {
        alive[v] = 0;
      }
    }
    if (next.size() == survivors.size()) break;
    survivors = std::move(next);
  }
  return survivors;
}

}  // namespace

DensestResult QueryDensest(const Graph& graph, const MotifOracle& oracle,
                           std::span<const VertexId> query,
                           const ExecutionContext& ctx) {
  if (query.empty()) return CoreExact(graph, oracle, CoreExactOptions(), ctx);
  Timer timer;
  DensestResult result;
  const VertexId n = graph.NumVertices();
  assert(n >= 1);
  for (VertexId q : query) {
    assert(q < n);
    (void)q;
  }

  // Core decomposition gives x = min core number over Q; the x-core contains
  // Q and has density >= x / |V_Psi| (Theorem 1), the paper's lower bound.
  Timer decomposition_timer;
  MotifCoreDecomposition decomposition =
      MotifCoreDecompose(graph, oracle, ctx);
  result.stats.decomposition_seconds = decomposition_timer.Seconds();
  result.stats.kmax = static_cast<uint32_t>(
      std::min<uint64_t>(decomposition.kmax, UINT32_MAX));
  result.stats.peel.Add(decomposition.peel_stats);

  uint64_t x = UINT64_MAX;
  for (VertexId q : query) x = std::min(x, decomposition.core[q]);

  // Initial candidate: the x-core (always contains Q); its exact density is
  // the lower bound the search starts from.
  std::vector<VertexId> best = decomposition.CoreVertices(x);
  const Density lower = MeasureExactDensity(graph, oracle, best, ctx);

  // Locate the search in the Q-protected ceil(lower)-core: every non-Q
  // vertex of an optimal answer has motif degree >= rho* >= lower in it.
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  std::vector<VertexId> located = RestrictToCoreProtected(
      graph, oracle, all, lower.Ceil(), query, ctx);
  result.stats.located_vertices = located.size();

  if (located.size() >= 2 && !ctx.ShouldStop()) {
    Subgraph sub = InducedSubgraph(graph, located);
    std::vector<VertexId> local_query;
    for (VertexId i = 0; i < sub.graph.NumVertices(); ++i) {
      if (std::find(query.begin(), query.end(), sub.to_parent[i]) !=
          query.end()) {
        local_query.push_back(i);
      }
    }
    FlowSolverOr made = MakeDefaultFlowSolver(sub.graph, oracle, ctx, lower);
    if (!made.ok()) {
      result.status = made.status();
      return result;
    }
    std::unique_ptr<DensestFlowSolver> solver = std::move(made).value();
    solver->ForceToSource(local_query);
    // Dinkelbach iteration over sets containing Q (Q is forced into every
    // source side, so the sides are never empty): a positive gain means the
    // minimal side is denser than alpha; a zero gain means alpha is the
    // optimum, and the maximal side is the union of all optimal answers.
    Density alpha = lower;
    while (true) {
      DensityCut cut = solver->Solve(alpha);
      ++result.stats.binary_search_iterations;
      if (ctx.ShouldStop()) break;
      if (cut.gain > 0) {
        alpha = Density::Of(cut.Instances(alpha, cut.minimal),
                            cut.minimal.size());
        best = sub.ToParent(cut.minimal);
        continue;
      }
      if (cut.gain == 0) best = sub.ToParent(cut.maximal);
      break;
    }
    AccumulateFlowStats(*solver, result.stats);
  }

  if (best.empty()) best.assign(query.begin(), query.end());
  FillResult(graph, oracle, std::move(best), result, ctx);
  result.stats.total_seconds = timer.Seconds();
  return result;
}

DensestResult BruteForceQueryDensest(const Graph& graph,
                                     const MotifOracle& oracle,
                                     std::span<const VertexId> query) {
  const VertexId n = graph.NumVertices();
  assert(n <= 24);
  uint32_t query_mask = 0;
  for (VertexId q : query) query_mask |= 1u << q;

  DensestResult result;
  std::vector<VertexId> best;
  double best_density = -1.0;
  std::vector<VertexId> subset;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    if ((mask & query_mask) != query_mask) continue;
    subset.clear();
    for (VertexId v = 0; v < n; ++v) {
      if ((mask >> v) & 1u) subset.push_back(v);
    }
    double density = MeasureDensity(graph, oracle, subset);
    if (density > best_density ||
        (density == best_density && subset.size() > best.size())) {
      best_density = density;
      best = subset;
    }
  }
  FillResult(graph, oracle, std::move(best), result);
  return result;
}

}  // namespace dsd
