// Query-anchored densest subgraph (Section 6.3's "variant of CDS problem"):
// given a set Q of query vertices, find the maximum-Psi-density subgraph
// that CONTAINS all of Q.
//
// Following the paper: the x-core (x = the minimum motif-core number over
// Q) contains Q and supplies the lower bound x/|V_Psi| on the optimum, so
// the flow search runs on a small Q-protected core instead of all of G.
// Query vertices are forced onto the source side with infinite s->q arcs.
#ifndef DSD_DSD_QUERY_DENSEST_H_
#define DSD_DSD_QUERY_DENSEST_H_

#include <span>

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "graph/graph.h"

namespace dsd {

/// Exact max-density subgraph containing every vertex of `query`.
/// Runs a core-located Dinkelbach search like CoreExact; the answer is the
/// union of all optimal subgraphs containing `query` (the largest one,
/// which BruteForceQueryDensest also returns), so it is the same at every
/// thread count. result.status is OutOfRange when the flow network cannot
/// be represented in int64.
DensestResult QueryDensest(const Graph& graph, const MotifOracle& oracle,
                           std::span<const VertexId> query,
                           const ExecutionContext& ctx = ExecutionContext());

/// Brute-force reference for QueryDensest (n <= 24), for tests.
DensestResult BruteForceQueryDensest(const Graph& graph,
                                     const MotifOracle& oracle,
                                     std::span<const VertexId> query);

}  // namespace dsd

#endif  // DSD_DSD_QUERY_DENSEST_H_
