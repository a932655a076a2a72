// Parallel kernels behind the pattern-oracle hot queries (the PDS side of
// the Section 6.3 parallelizability claim).
//
// The plan-compiled matcher partitions canonical matches by the data vertex
// their level-0 pattern position maps to (the "root"), exactly like the
// kClist DAG partitions cliques by degeneracy-minimal root — so Degrees and
// CountInstances shard per root across ParallelForStrided workers, each
// driving the folded per-level reductions (no embeddings are materialized,
// and symmetry breaking means no automorphism division either). The
// appendix-D closed forms (stars, 4-cycle) are per-vertex formulas and
// parallelise even more directly: each worker runs the per-vertex routines
// of pattern/special.h for its strided vertices and owns their output
// entries. Every kernel is bit-identical to its sequential counterpart in
// pattern/ for every thread count: the only cross-worker combination is
// uint64 addition, which commutes.
//
// Thread counts are clamped by the root-vertex count (ResolveThreadCount's
// 2-arg overload) so tiny graphs neither spawn idle workers nor allocate
// per-worker scratch they cannot use.
//
// Load balancing: the generic kernels no longer shard per root alone. A hub
// root whose match subtree dwarfs everyone else's would pin one worker
// while the rest idle, so roots whose degree exceeds a skew threshold are
// split into several work items, each covering a stride of the root's
// first-extension candidate loop (MatchFromRoot's slice parameters).
// Slices partition the root's matches exactly, so the reduction — and
// the bit-identical contract — are unchanged.
#ifndef DSD_PARALLEL_PARALLEL_PATTERN_H_
#define DSD_PARALLEL_PARALLEL_PATTERN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "pattern/isomorphism.h"
#include "pattern/pattern.h"

namespace dsd {

/// Pattern-degrees via per-root sharding of the compiled plans' folded
/// degree reduction; matches PatternMatcher(graph, plans).Degrees(alive)
/// exactly. The oracle path passes its once-compiled PatternPlanSet so no
/// query recompiles plans.
std::vector<uint64_t> ParallelPatternDegrees(const Graph& graph,
                                             const PatternPlanSet& plans,
                                             std::span<const char> alive,
                                             unsigned threads);

/// Convenience overload compiling an instance-semantics plan set ad hoc.
std::vector<uint64_t> ParallelPatternDegrees(const Graph& graph,
                                             const Pattern& pattern,
                                             std::span<const char> alive,
                                             unsigned threads);

/// mu(G, Psi) via per-root sharding; matches
/// PatternMatcher(graph, plans).CountInstances(alive) exactly.
uint64_t ParallelPatternCount(const Graph& graph, const PatternPlanSet& plans,
                              std::span<const char> alive, unsigned threads);

/// Convenience overload compiling an instance-semantics plan set ad hoc.
uint64_t ParallelPatternCount(const Graph& graph, const Pattern& pattern,
                              std::span<const char> alive, unsigned threads);

/// Parallel StarDegrees (appendix D.1 closed form), x >= 2.
std::vector<uint64_t> ParallelStarDegrees(const Graph& graph, int x,
                                          std::span<const char> alive,
                                          unsigned threads);

/// Parallel StarCount.
uint64_t ParallelStarCount(const Graph& graph, int x,
                           std::span<const char> alive, unsigned threads);

/// Parallel FourCycleDegrees (appendix D.2 two-path grouping). Each worker
/// carries its own O(n) path-count scratch.
std::vector<uint64_t> ParallelFourCycleDegrees(const Graph& graph,
                                               std::span<const char> alive,
                                               unsigned threads);

/// Parallel FourCycleCount (= sum of degrees / 4).
uint64_t ParallelFourCycleCount(const Graph& graph,
                                std::span<const char> alive, unsigned threads);

}  // namespace dsd

#endif  // DSD_PARALLEL_PARALLEL_PATTERN_H_
