#include "dsd/measure.h"

#include <algorithm>

namespace dsd {

uint64_t MeasureInstances(const Graph& graph, const MotifOracle& oracle,
                          std::span<const VertexId> vertices,
                          const ExecutionContext& ctx) {
  if (vertices.empty()) return 0;
  // Masked query on the parent graph rather than an induced-subgraph
  // rebuild: the oracle performs the same reduction internally, but the
  // query is now keyed by the parent's stable generation tag, so re-
  // measuring the same candidate set (Pruning2, final re-measures) hits
  // the CachingOracle instead of re-enumerating.
  std::vector<char> alive(graph.NumVertices(), 0);
  for (VertexId v : vertices) alive[v] = 1;
  return oracle.CountInstances(graph, alive, ctx);
}

double MeasureDensity(const Graph& graph, const MotifOracle& oracle,
                      std::span<const VertexId> vertices,
                      const ExecutionContext& ctx) {
  if (vertices.empty()) return 0.0;
  return static_cast<double>(MeasureInstances(graph, oracle, vertices, ctx)) /
         static_cast<double>(vertices.size());
}

Density MeasureExactDensity(const Graph& graph, const MotifOracle& oracle,
                            std::span<const VertexId> vertices,
                            const ExecutionContext& ctx) {
  if (vertices.empty()) return {};
  return Density::Of(MeasureInstances(graph, oracle, vertices, ctx),
                     vertices.size());
}

void FillResult(const Graph& graph, const MotifOracle& oracle,
                std::vector<VertexId> vertices, DensestResult& result,
                const ExecutionContext& ctx) {
  std::sort(vertices.begin(), vertices.end());
  result.vertices = std::move(vertices);
  result.instances = MeasureInstances(graph, oracle, result.vertices, ctx);
  result.density =
      result.vertices.empty()
          ? 0.0
          : static_cast<double>(result.instances) /
                static_cast<double>(result.vertices.size());
}

}  // namespace dsd
