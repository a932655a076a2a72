// Exact (Algorithm 1) and PExact (Algorithm 8): the baseline exact solvers.
//
// A search on the optimal density with one min cut per guess on a network
// built over the ENTIRE graph — precisely the cost the paper's CoreExact
// removes. Kept as the evaluation baseline (Figures 8a-e, 13, 15). The
// paper bisects the guess; here each guess is the exact density of the
// previous cut's source side (Dinkelbach iteration), which stops exactly
// at the optimum after a handful of cuts.
#ifndef DSD_DSD_EXACT_H_
#define DSD_DSD_EXACT_H_

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "graph/graph.h"

namespace dsd {

/// Exact CDS/PDS via whole-graph density search (Algorithm 1).
/// Uses the EDS network for 2-cliques, Algorithm 1's clique network for
/// larger cliques and the grouped pattern network otherwise. The answer is
/// the union of all densest subgraphs (the maximal min cut at rho*), so it
/// is the same at every thread count; empty when no instance exists.
/// `ctx` parallelises the degree computations (the max flows run on the
/// calling thread) and is polled after every cut (a stopped run returns
/// the densest set found so far — only meaningful when the result will be
/// discarded, as dsd::Solve does on a blown deadline). result.status is
/// OutOfRange when the flow network cannot be represented in int64.
DensestResult Exact(const Graph& graph, const MotifOracle& oracle,
                    const ExecutionContext& ctx = ExecutionContext());

/// PExact (Algorithm 8): like Exact but with one flow-network node per
/// pattern instance (no vertex-set grouping). The baseline CorePExact is
/// compared against in Figure 15.
DensestResult PExact(const Graph& graph, const PatternOracle& oracle,
                     const ExecutionContext& ctx = ExecutionContext());

}  // namespace dsd

#endif  // DSD_DSD_EXACT_H_
