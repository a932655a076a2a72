// Parallel frontier-peeling kernels behind MotifOracle::PeelBatch.
//
// Batch-bracket peeling fixes a within-bracket removal order up front
// (ascending vertex id, chosen by the engine in dsd/motif_core.cpp). That
// makes each bracket member's work independent: the instances destroyed by
// member i are exactly the instances containing it whose other members are
// either survivors or bracket members of HIGHER rank — a pure function of
// the (frontier, rank) pair and the bracket-start alive mask, no matter
// what the other workers are doing. The kernels here shard the frontier
// across ParallelForStrided workers under that rank mask:
//   - cliques: enumerate the cliques through member i among the bracket-
//     start alive set and keep those whose minimum-rank member is i (the
//     sequential loop would have destroyed exactly those at step i);
//   - stars / 4-cycles: the per-vertex appendix-D routines of
//     pattern/special.h (StarPeelAt, FourCyclePeelAt), instantiated with
//     the rank-aware aliveness predicate and a survivor-only emit;
//   - generic patterns: PatternMatcher::PeelContaining drives the compiled
//     plans under the same rank mask, pruning branches through lower-rank
//     members mid-extension (min-rank attribution without enumerating the
//     instances the member does not own).
// Per-frontier destroyed counts are written to worker-owned slots;
// survivor degree-deltas are summed through ChunkedAccumulator (weighted
// adds) and reported through the caller's single-threaded callback after
// the join. Results are bit-identical to looping MotifOracle::PeelVertex
// over the frontier in order, for every thread count: the only cross-
// worker combination is uint64 addition.
//
// Every kernel honours ctx.ShouldStop() at sub-bracket granularity: the
// frontier is processed in rank-contiguous chunks with a deadline poll
// between chunks, and a stopped call returns the destroyed counts of the
// completed prefix only (its alive bits cleared, the suffix untouched) —
// the same truncation contract as the sequential default.
#ifndef DSD_PARALLEL_PARALLEL_PEEL_H_
#define DSD_PARALLEL_PARALLEL_PEEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dsd/execution_context.h"
#include "dsd/motif_oracle.h"
#include "graph/graph.h"

namespace dsd {

/// Brackets smaller than this are peeled by the sequential default loop
/// even under a multi-thread budget: spawning workers costs more than a
/// handful of PeelVertex calls.
inline constexpr size_t kMinParallelPeelFrontier = 8;

/// Whether a bracket is worth the parallel kernels at all. Beyond the
/// absolute floor (worker spawn), the kernels pay O(n) setup per call —
/// the rank array, the delta accumulator's totals, the survivor drain —
/// so a bracket must also be a non-trivial fraction of the graph or the
/// setup would dwarf the members' peel work (thousands of small brackets
/// on a huge sparse graph would otherwise cost O(n) each). The sequential
/// default loop pays only per-member work, so it stays the right choice
/// below the ratio.
inline bool WorthParallelPeel(size_t frontier_size, uint64_t num_vertices) {
  return frontier_size >= kMinParallelPeelFrontier &&
         frontier_size * 256 >= num_vertices;
}

/// Worth test for the generic-pattern batch kernel. Same absolute floor as
/// WorthParallelPeel, but a much laxer bracket-to-graph ratio: a generic
/// member's peel work (full plan-driven enumeration through the member)
/// dwarfs the kernel's O(n) setup long before a clique member's cheap
/// neighborhood scan would, so small brackets on big graphs still win.
inline bool WorthParallelGenericPeel(size_t frontier_size,
                                     uint64_t num_vertices) {
  return frontier_size >= kMinParallelPeelFrontier &&
         frontier_size * 4096 >= num_vertices;
}

/// Batch h-clique peel of `frontier` (rank = span position) from `alive`
/// on ctx.threads workers. See MotifOracle::PeelBatch for the contract.
/// Every kernel computes read-only against the bracket-start mask;
/// `consume_alive = false` turns it into the pure COUNT stage
/// (MotifOracle::CountPeelBatch): identical counts and deltas, mask left
/// bitwise untouched for the engine to apply later.
std::vector<uint64_t> ParallelCliquePeelBatch(const Graph& graph, int h,
                                              std::span<const VertexId> frontier,
                                              std::span<char> alive,
                                              const PeelCallback& cb,
                                              const ExecutionContext& ctx,
                                              bool consume_alive = true);

/// Batch K_{1,x} star peel (appendix D.1 closed form, x >= 2).
std::vector<uint64_t> ParallelStarPeelBatch(const Graph& graph, int x,
                                            std::span<const VertexId> frontier,
                                            std::span<char> alive,
                                            const PeelCallback& cb,
                                            const ExecutionContext& ctx,
                                            bool consume_alive = true);

/// Batch 4-cycle peel (appendix D.2 two-path grouping). Each worker
/// carries its own O(n) two-path scratch.
std::vector<uint64_t> ParallelFourCyclePeelBatch(
    const Graph& graph, std::span<const VertexId> frontier,
    std::span<char> alive, const PeelCallback& cb, const ExecutionContext& ctx,
    bool consume_alive = true);

/// Batch peel for an arbitrary connected pattern via the compiled plans'
/// rank-masked PeelContaining reduction. Workers share one PatternMatcher
/// (and the caller's once-compiled PatternPlanSet) and carry their own
/// Scratch. Bit-identical to looping PatternOracle::PeelVertex over the
/// frontier in order, for every thread count.
std::vector<uint64_t> ParallelPatternPeelBatch(
    const Graph& graph, const PatternPlanSet& plans,
    std::span<const VertexId> frontier, std::span<char> alive,
    const PeelCallback& cb, const ExecutionContext& ctx,
    bool consume_alive = true);

}  // namespace dsd

#endif  // DSD_PARALLEL_PARALLEL_PEEL_H_
