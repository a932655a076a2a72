#include "dsd/exact.h"

#include <memory>

#include "dsd/flow_networks.h"
#include "dsd/measure.h"
#include "util/timer.h"

namespace dsd {

namespace {

DensestResult ExactWithSolver(const Graph& graph, const MotifOracle& oracle,
                              FlowSolverOr made, const ExecutionContext& ctx) {
  Timer timer;
  DensestResult result;
  if (!made.ok()) {
    result.status = made.status();
    return result;
  }
  std::unique_ptr<DensestFlowSolver> solver = std::move(made).value();
  result.stats.flow_network_sizes.push_back(solver->NumNodes());

  // Dinkelbach iteration from rho(V): each min cut at alpha = rho(S) either
  // finds a strictly denser set (the minimal side) to continue from, or
  // proves alpha optimal (the minimal side is empty). The maximal side of
  // that last cut is the union of all densest subgraphs.
  Density alpha = solver->GraphDensity();
  std::vector<VertexId> best;
  if (graph.NumVertices() >= 2 && alpha.instances > 0) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) best.push_back(v);
    while (true) {
      DensityCut cut = solver->Solve(alpha);
      ++result.stats.binary_search_iterations;
      if (ctx.ShouldStop()) break;  // the cut of a stopped flow is not final
      if (cut.minimal.empty()) {
        best = std::move(cut.maximal);
        break;
      }
      alpha = Density::Of(cut.Instances(alpha, cut.minimal),
                          cut.minimal.size());
      best = std::move(cut.minimal);
    }
  }
  AccumulateFlowStats(*solver, result.stats);
  FillResult(graph, oracle, std::move(best), result, ctx);
  result.stats.total_seconds = timer.Seconds();
  return result;
}

}  // namespace

DensestResult Exact(const Graph& graph, const MotifOracle& oracle,
                    const ExecutionContext& ctx) {
  return ExactWithSolver(graph, oracle,
                         MakeDefaultFlowSolver(graph, oracle, ctx), ctx);
}

DensestResult PExact(const Graph& graph, const PatternOracle& oracle,
                     const ExecutionContext& ctx) {
  return ExactWithSolver(
      graph, oracle,
      MakePatternFlowSolver(graph, oracle, /*grouped=*/false, ctx), ctx);
}

}  // namespace dsd
