#include "dsd/core_exact.h"

#include <algorithm>
#include <iterator>
#include <memory>

#include "dsd/density.h"
#include "dsd/flow_networks.h"
#include "dsd/measure.h"
#include "dsd/motif_core.h"
#include "graph/connectivity.h"
#include "graph/subgraph.h"
#include "util/timer.h"

namespace dsd {

namespace {

// Connected components of G[vertices], as parent-id vertex lists.
std::vector<std::vector<VertexId>> ComponentsOf(
    const Graph& graph, const std::vector<VertexId>& vertices) {
  Subgraph sub = InducedSubgraph(graph, vertices);
  std::vector<std::vector<VertexId>> components;
  for (const std::vector<VertexId>& group :
       ConnectedComponents(sub.graph).Groups()) {
    components.push_back(sub.ToParent(group));
  }
  return components;
}

}  // namespace

DensestResult CoreExact(const Graph& graph, const MotifOracle& oracle,
                        const CoreExactOptions& options,
                        const ExecutionContext& ctx) {
  Timer total_timer;
  DensestResult result;
  const VertexId n = graph.NumVertices();
  if (n < 2) {
    FillResult(graph, oracle, {}, result, ctx);
    result.stats.total_seconds = total_timer.Seconds();
    return result;
  }

  // Step 1: (k, Psi)-core decomposition (Algorithm 3), with residual-density
  // tracking for Pruning1.
  Timer decomposition_timer;
  MotifCoreDecomposition decomposition =
      MotifCoreDecompose(graph, oracle, ctx);
  result.stats.decomposition_seconds = decomposition_timer.Seconds();
  result.stats.kmax = static_cast<uint32_t>(
      std::min<uint64_t>(decomposition.kmax, UINT32_MAX));
  result.stats.peel.Add(decomposition.peel_stats);
  if (decomposition.kmax == 0) {
    // No motif instance anywhere: density 0, empty answer.
    FillResult(graph, oracle, {}, result, ctx);
    result.stats.total_seconds = total_timer.Seconds();
    return result;
  }

  // Step 2: lower bound and initial location. The bound is always the exact
  // density of a vertex set, `best`: the kmax-core (density >= kmax/|V_Psi|
  // by Theorem 1), or with Pruning1 the best residual subgraph seen while
  // peeling. Lemma 7 locates every densest subgraph in the
  // (ceil(lower), Psi)-core.
  std::vector<VertexId> best = options.pruning1
                                   ? decomposition.BestResidualVertices()
                                   : decomposition.CoreVertices(
                                         decomposition.kmax);
  Density lower = MeasureExactDensity(graph, oracle, best, ctx);
  uint64_t core_level = lower.Ceil();

  std::vector<std::vector<VertexId>> components =
      ComponentsOf(graph, decomposition.CoreVertices(core_level));

  // Pruning2: per-component densities raise the lower bound and core level.
  if (options.pruning2) {
    std::vector<Density> densities(components.size());
    for (size_t i = 0; i < components.size(); ++i) {
      densities[i] = MeasureExactDensity(graph, oracle, components[i], ctx);
      if (densities[i] > lower) {
        lower = densities[i];
        best = components[i];
      }
    }
    if (lower.Ceil() > core_level) {
      core_level = lower.Ceil();
      components = ComponentsOf(graph, decomposition.CoreVertices(core_level));
      densities.resize(components.size());
      for (size_t i = 0; i < components.size(); ++i) {
        densities[i] = MeasureExactDensity(graph, oracle, components[i], ctx);
      }
    }
    // Process densest components first: they raise `lower` early and let
    // the feasibility test skip the rest.
    std::vector<size_t> order(components.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&densities](size_t a, size_t b) {
                       return densities[a] > densities[b];
                     });
    std::vector<std::vector<VertexId>> sorted;
    sorted.reserve(components.size());
    for (size_t i : order) sorted.push_back(std::move(components[i]));
    components = std::move(sorted);
  }

  for (const std::vector<VertexId>& component : components) {
    result.stats.located_vertices += component.size();
  }
  if (options.track_network_sizes) {
    // Figure 9's x = -1: the network Algorithm 1 would build on all of G.
    FlowSolverOr whole = MakeDefaultFlowSolver(graph, oracle, ctx);
    if (whole.ok()) {
      result.stats.flow_network_sizes.push_back(whole.value()->NumNodes());
    }
  }

  // Step 3: per component, Dinkelbach iteration on ever-shrinking cores.
  // The first cut, at alpha = lower, is the feasibility test: an empty
  // maximal side means no subgraph of the component reaches `lower`. Every
  // further cut is at the exact density of the previous minimal side, until
  // the minimal side is empty; alpha is then the component's optimum and
  // the maximal side the union of its densest subgraphs. `best` becomes
  // that union, or grows by it when the component ties the best optimum so
  // far, so the answer is the union of all densest subgraphs of G.
  bool best_from_search = false;
  for (std::vector<VertexId> component : components) {
    if (ctx.ShouldStop()) break;
    uint64_t applied_level = core_level;
    if (lower.Ceil() > applied_level) {
      applied_level = lower.Ceil();
      component = RestrictToCore(graph, oracle, component, applied_level, ctx);
    }
    if (component.size() < 2) continue;

    Subgraph sub = InducedSubgraph(graph, component);
    FlowSolverOr made = MakeDefaultFlowSolver(sub.graph, oracle, ctx, lower);
    if (!made.ok()) {
      result.status = made.status();
      return result;
    }
    std::unique_ptr<DensestFlowSolver> solver = std::move(made).value();
    if (options.track_network_sizes) {
      result.stats.flow_network_sizes.push_back(solver->NumNodes());
    }

    Density alpha = lower;
    DensityCut cut = solver->Solve(alpha);
    ++result.stats.binary_search_iterations;
    while (!cut.minimal.empty() && !ctx.ShouldStop()) {
      alpha = Density::Of(cut.Instances(alpha, cut.minimal),
                          cut.minimal.size());
      // A denser subgraph exists, so the component's densest subgraphs live
      // in a higher core (Lemma 7): shrink it and rebuild a smaller network.
      if (alpha.Ceil() > applied_level) {
        applied_level = alpha.Ceil();
        component =
            RestrictToCore(graph, oracle, component, applied_level, ctx);
        sub = InducedSubgraph(graph, component);
        AccumulateFlowStats(*solver, result.stats);
        made = MakeDefaultFlowSolver(sub.graph, oracle, ctx, alpha);
        if (!made.ok()) {
          result.status = made.status();
          return result;
        }
        solver = std::move(made).value();
      }
      cut = solver->Solve(alpha);
      ++result.stats.binary_search_iterations;
      if (options.track_network_sizes) {
        result.stats.flow_network_sizes.push_back(solver->NumNodes());
      }
    }
    AccumulateFlowStats(*solver, result.stats);
    if (ctx.ShouldStop() || cut.maximal.empty()) continue;

    std::vector<VertexId> densest = sub.ToParent(cut.maximal);
    if (alpha > lower || !best_from_search) {
      lower = alpha;
      best = std::move(densest);
      best_from_search = true;
    } else {
      std::vector<VertexId> merged;
      merged.reserve(best.size() + densest.size());
      std::set_union(best.begin(), best.end(), densest.begin(), densest.end(),
                     std::back_inserter(merged));
      best = std::move(merged);
    }
  }

  FillResult(graph, oracle, std::move(best), result, ctx);
  result.stats.total_seconds = total_timer.Seconds();
  return result;
}

DensestResult CorePExact(const Graph& graph, const PatternOracle& oracle,
                         const CoreExactOptions& options,
                         const ExecutionContext& ctx) {
  return CoreExact(graph, oracle, options, ctx);
}

}  // namespace dsd
