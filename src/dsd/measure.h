// Helpers to measure a candidate subgraph against an oracle.
#ifndef DSD_DSD_MEASURE_H_
#define DSD_DSD_MEASURE_H_

#include <span>
#include <vector>

#include "dsd/density.h"
#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "graph/graph.h"

namespace dsd {

/// mu(G[vertices], Psi): instances inside the induced subgraph.
uint64_t MeasureInstances(const Graph& graph, const MotifOracle& oracle,
                          std::span<const VertexId> vertices,
                          const ExecutionContext& ctx = ExecutionContext());

/// rho(G[vertices], Psi); 0 for the empty set.
double MeasureDensity(const Graph& graph, const MotifOracle& oracle,
                      std::span<const VertexId> vertices,
                      const ExecutionContext& ctx = ExecutionContext());

/// rho(G[vertices], Psi) as an exact fraction; 0/1 for the empty set.
Density MeasureExactDensity(const Graph& graph, const MotifOracle& oracle,
                            std::span<const VertexId> vertices,
                            const ExecutionContext& ctx = ExecutionContext());

/// Fills result.vertices (sorted), result.instances and result.density.
void FillResult(const Graph& graph, const MotifOracle& oracle,
                std::vector<VertexId> vertices, DensestResult& result,
                const ExecutionContext& ctx = ExecutionContext());

}  // namespace dsd

#endif  // DSD_DSD_MEASURE_H_
