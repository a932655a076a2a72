// Flow-network constructions for the exact DSD algorithms.
//
// Every exact algorithm asks the same question of a density guess
// alpha = p / q: which vertex sets S maximise the gain
// q * mu(S, Psi) - p * |S|? Each construction below answers it with one
// minimum st-cut whose source side (minus s) is such a maximiser:
//   * EdsFlowSolver      — Goldberg's network for the edge case (h = 2).
//   * CliqueFlowSolver   — Algorithm 1's network over (h-1)-clique nodes.
//   * PatternFlowSolver  — Algorithm 8 (PExact, one node per instance) and
//                          Algorithm 7 (construct+, one node per group of
//                          instances sharing a vertex set), selected by the
//                          `grouped` flag; Lemma 11 proves both cuts equal.
//
// All three are the paper's networks multiplied by q, so every capacity is
// an integer: s->v is q * deg(v, Psi), v->t is h * p, and the interior arcs
// are q times their paper weight. The paper's infinite arcs (clique
// psi->member, ForceToSource's s->v) get the finite capacity
// 1 + h * p + q * deg(v, Psi) for head v: one more than everything v can
// send on, so no minimum cut ever crosses them and the set of minimum cuts
// is the one the infinite network has.
//
// Solvers are built once per (sub)graph; each Solve rescales every arc for
// its alpha and routes the flow from scratch. CoreExact's "the flow network
// gradually becomes smaller" comes from rebuilding on smaller cores.
#ifndef DSD_DSD_FLOW_NETWORKS_H_
#define DSD_DSD_FLOW_NETWORKS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dsd/density.h"
#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "dsd/result.h"
#include "flow/flow_network.h"
#include "graph/graph.h"
#include "util/status.h"

namespace dsd {

/// The two extreme minimum cuts of a density network at one alpha = p / q.
struct DensityCut {
  /// Graph vertices of the inclusion-minimal min-cut source side: the
  /// smallest maximiser of q * mu(S) - p * |S|. Empty when no subgraph is
  /// denser than alpha (without forced vertices).
  std::vector<VertexId> minimal;
  /// Graph vertices of the inclusion-maximal min-cut source side: the union
  /// of all maximisers. At alpha = rho* it is the union of all densest
  /// subgraphs.
  std::vector<VertexId> maximal;
  /// The maximum gain q * mu(S) - p * |S|, shared by both sides.
  int64_t gain = 0;

  /// mu(S) of either side S, recovered from the gain.
  uint64_t Instances(Density alpha, const std::vector<VertexId>& side) const;
};

/// Min-cut oracle of the density search.
///
/// Solvers run on the flow/flow_network.h engine; discharge parallelises
/// over the ExecutionContext the solver was built with (threads, deadline,
/// cancel — a stopped Solve returns the cut of an incomplete flow, which
/// callers must discard).
class DensestFlowSolver {
 public:
  virtual ~DensestFlowSolver() = default;

  /// Minimum cuts at alpha. alpha's instances and vertices must not exceed
  /// the solver's scale (see the factories): the capacity-sum check at
  /// construction covers exactly that range.
  virtual DensityCut Solve(Density alpha) = 0;

  /// rho of the solver's whole graph: Exact's first guess.
  virtual Density GraphDensity() const = 0;

  /// Total flow-network nodes (Figure 9's y-axis).
  virtual uint64_t NumNodes() const = 0;

  /// Forces the given graph vertices onto the source side of every future
  /// min cut. Used by the query-anchored variant of Section 6.3.
  virtual void ForceToSource(const std::vector<VertexId>& vertices) = 0;

  /// Cumulative work counters of the underlying flow engine.
  virtual FlowStats Stats() const = 0;
};

/// Folds a solver's flow-engine counters into per-run stats; the exact
/// algorithms call this before dropping or rebuilding a solver.
inline void AccumulateFlowStats(const DensestFlowSolver& solver,
                                AlgoStats& stats) {
  const FlowStats fs = solver.Stats();
  stats.flow_max_flow_calls += fs.max_flow_calls;
  stats.flow_discharges += fs.discharges;
  stats.flow_pushes += fs.pushes;
  stats.flow_relabels += fs.relabels;
  stats.flow_global_relabels += fs.global_relabels;
}

using FlowSolverOr = StatusOr<std::unique_ptr<DensestFlowSolver>>;

// Every factory sizes its solver for alphas whose instances are at most
// max(mu(graph), scale.instances) and whose vertices are at most
// max(|V(graph)|, scale.vertices): the densities of the graph's own vertex
// sets, plus one bound measured outside it (CoreExact's running lower
// bound). It returns OutOfRange when the network at that largest scale
// would not fit in int64 (FlowNetwork::CheckCapacitySum).

/// Goldberg's EDS network (Section 4.1 remark) in its degree form: nodes
/// {s} ∪ V ∪ {t}; s->v cap q * deg(v), v->t cap 2p, each edge q both ways.
/// The source arcs total 2qm.
FlowSolverOr MakeEdsFlowSolver(const Graph& graph,
                               const ExecutionContext& ctx = ExecutionContext(),
                               Density scale = {});

/// Algorithm 1's clique network: nodes {s} ∪ V ∪ Λ ∪ {t} with Λ the
/// (h-1)-clique instances; s->v cap q * deg(v, Psi), v->t cap h * p,
/// psi->member bounded (see file comment), v->psi cap q when {v} ∪ psi is
/// an h-clique. `ctx` parallelises the h-clique degree pass.
FlowSolverOr MakeCliqueFlowSolver(
    const Graph& graph, int h,
    const ExecutionContext& ctx = ExecutionContext(), Density scale = {});

/// Pattern network over the oracle's instances. grouped = false gives
/// Algorithm 8 (PExact): one node per instance, v->psi cap q,
/// psi->v cap q(|V_Psi| - 1). grouped = true gives construct+ (Algorithm 7):
/// one node per vertex-set group g, v->g cap q|g|, g->v cap q|g|(|V_Psi|-1).
FlowSolverOr MakePatternFlowSolver(
    const Graph& graph, const MotifOracle& oracle, bool grouped,
    const ExecutionContext& ctx = ExecutionContext(), Density scale = {});

/// The construction each oracle's exact algorithms use by default:
/// EDS network for 2-cliques, Algorithm 1 for larger cliques, construct+
/// for general patterns. Dispatches on the oracle's Underlying() type, so
/// decorators (CachingOracle) keep the clique fast path; the degree pass
/// goes through `oracle` itself, which is how a parallel or caching oracle
/// accelerates network construction.
FlowSolverOr MakeDefaultFlowSolver(
    const Graph& graph, const MotifOracle& oracle,
    const ExecutionContext& ctx = ExecutionContext(), Density scale = {});

}  // namespace dsd

#endif  // DSD_DSD_FLOW_NETWORKS_H_
