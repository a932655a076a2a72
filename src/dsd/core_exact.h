// CoreExact (Algorithm 4): the paper's core-located exact algorithm, and
// CorePExact, its general-pattern instantiation with the construct+ network.
//
// Three optimisations over Algorithm 1 (Section 6.1):
//   1. a lower bound from Theorem 1 and Pruning1/Pruning2: the exact
//      density of the kmax-core, the best residual subgraph or the densest
//      core component — the search starts there instead of at rho(V);
//   2. the CDS is located inside a small (k'', Psi)-core (Lemma 7), and flow
//      networks are built per connected component of that core;
//   3. whenever the search's density passes its core level, the component
//      is re-restricted to a higher core, shrinking subsequent networks.
// The paper bisects each component's density interval down to a gap of
// 1/(|V_C|(|V_C|-1)) (its Pruning3 tightens that gap). Here every guess is
// the exact density of the previous cut's source side (Dinkelbach
// iteration), which stops exactly at the optimum, so no gap — and no
// Pruning3 — is needed. The answer is the union of all densest subgraphs.
// Pruning1 and Pruning2 can be toggled for the Figure 10 ablation.
#ifndef DSD_DSD_CORE_EXACT_H_
#define DSD_DSD_CORE_EXACT_H_

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "graph/graph.h"

namespace dsd {

/// Toggles for CoreExact's pruning rules (all on by default; Figure 10
/// evaluates each in isolation).
struct CoreExactOptions {
  /// Pruning1: locate the CDS in the (ceil(rho'), Psi)-core, rho' = best
  /// residual density seen during decomposition. When off, falls back to the
  /// density of the kmax-core (at least Theorem 1's kmax / |V_Psi|).
  bool pruning1 = true;
  /// Pruning2: raise the core level and the lower bound using per-connected-
  /// component densities.
  bool pruning2 = true;
  /// Record flow-network sizes per min cut, including the
  /// hypothetical whole-graph network (Figure 9). Costs one extra instance
  /// scan of the full graph.
  bool track_network_sizes = false;
};

/// Exact CDS via (k, Psi)-cores (Algorithm 4). Works for any oracle; with a
/// PatternOracle this is CorePExact (Section 7.2), using the construct+
/// grouped flow network. `ctx` parallelises/memoizes the oracle's degree
/// and count passes (decomposition, core restriction, component measuring,
/// network construction, max flows) and is polled after every min cut for
/// cooperative early exit (best-effort result; see dsd::Solve).
/// result.status is OutOfRange when a flow network cannot be represented
/// in int64.
DensestResult CoreExact(const Graph& graph, const MotifOracle& oracle,
                        const CoreExactOptions& options = {},
                        const ExecutionContext& ctx = ExecutionContext());

/// Paper-named alias for the pattern instantiation.
DensestResult CorePExact(const Graph& graph, const PatternOracle& oracle,
                         const CoreExactOptions& options = {},
                         const ExecutionContext& ctx = ExecutionContext());

}  // namespace dsd

#endif  // DSD_DSD_CORE_EXACT_H_
